(** The experiment contract: one record per table/figure of the paper.

    Every experiment is an {!t} in the {!Experiments} registry. It runs
    against a {!Workspace.t} under explicit {!params} and returns an
    {!output}: a rendered table, claim-check notes (the "who wins, by
    what factor" assertions EXPERIMENTS.md records), raw telemetry, and
    typed pass/fail {!check}s for the campaigns that gate. *)

type boot_row = {
  label : string;
      (** stable row key: every key cell of the table row, numeric ones
          included, joined with ["/"] — e.g. ["aws/kaslr/lz4"],
          ["aws/kaslr/256M"]. Dropping numeric key cells (an old bug)
          made sweep points collapse onto one label and silently shadow
          each other in the JSON. *)
  total : Imk_util.Stats.summary;  (** nanoseconds, across the runs *)
  phases : (string * Imk_util.Stats.summary) list;
      (** per-phase nanosecond summaries ("in-monitor", "bootstrap",
          "decompression", "linux-boot" — or finer span labels for
          span-level experiments like fig5). Phases the boot path never
          entered are absent, not zero-padded; the present phases' means
          sum to [total.mean] up to per-run phase dropout. *)
}

type check = {
  name : string;  (** e.g. ["soundness"], ["mutant cross-path"] *)
  ok : bool;
  detail : string;  (** what was counted, for the printed verdict *)
}
(** One gate's verdict. [bench/main.exe] exits 1 when any check of any
    experiment it ran has [ok = false]. *)

val gate : name:string -> cases:int -> failures:int -> string -> check
(** [gate ~name ~cases ~failures detail] is the one constructor every
    gated campaign uses: ok iff at least one case ran and none failed. A
    gate that ran zero cases fails — an empty sweep is not evidence. *)

type output = {
  title : string;
  table : Imk_util.Table.t;
  notes : string list;  (** derived claims, paper-vs-measured *)
  telemetry : boot_row list;
      (** the raw per-label distributions behind the table, fed to
          {!Telemetry} as floats — never re-parsed from the rendered
          cells. Empty for experiments without boot-time rows (table1,
          fig11, security, page-sharing). *)
  checks : check list;
      (** typed gates (faults, resilience, diffcheck, fleet); empty for
          experiments that only report *)
}

type params = {
  runs : int;  (** repetitions per configuration; the paper used 100 *)
  mutate : bool;  (** diffcheck: plant one fault per mutable oracle *)
  requests : int;  (** fleet: simulated requests per cell *)
}

val default : params
(** [{ runs = 20; mutate = false; requests = 50_000 }] — bench's
    defaults. Some experiments cap or ignore [runs] (fig10 caps at 8;
    fig5, fig11, table1, security, page-sharing and zygote use fixed
    counts). *)

type t = {
  id : string;  (** "table1", "fig3", ...; written once, in its family's entries *)
  run : params -> Workspace.t -> output;
}
