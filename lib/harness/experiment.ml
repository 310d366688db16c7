type boot_row = {
  label : string;
  total : Imk_util.Stats.summary;
  phases : (string * Imk_util.Stats.summary) list;
}

type check = { name : string; ok : bool; detail : string }

let gate ~name ~cases ~failures detail =
  if cases = 0 then { name; ok = false; detail = "no cases ran — " ^ detail }
  else { name; ok = failures = 0; detail }

type output = {
  title : string;
  table : Imk_util.Table.t;
  notes : string list;
  telemetry : boot_row list;
  checks : check list;
}

type params = { runs : int; mutate : bool; requests : int }

let default = { runs = 20; mutate = false; requests = 50_000 }

type t = { id : string; run : params -> Workspace.t -> output }
