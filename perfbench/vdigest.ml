(* The pinned virtual-time digest.

   A workload cycles through [cycle] distinct operation inputs. The first
   time slot [i] runs, its virtual output (boot traces, makespans, fleet
   report fields — see Adapter) is recorded; every later run of that slot
   must print exactly the same text. The digest is the MD5 of the slots
   in order, so it does not depend on how many operations a run timed,
   nor on whether spans were being recorded. *)

type t = {
  slots : string option array;
  mutable mismatches : int;
  mutable first_mismatch : string option;
}

let create ~cycle =
  { slots = Array.make cycle None; mismatches = 0; first_mismatch = None }

let record t ~slot vout =
  match t.slots.(slot) with
  | None -> t.slots.(slot) <- Some vout
  | Some v when String.equal v vout -> ()
  | Some v ->
      t.mismatches <- t.mismatches + 1;
      if t.first_mismatch = None then
        t.first_mismatch <-
          Some (Printf.sprintf "slot %d: first %s, now %s" slot v vout)

let complete t = Array.for_all Option.is_some t.slots

let hex t =
  if not (complete t) then None
  else
    Some
      (Digest.to_hex
         (Digest.string
            (String.concat "\n" (Array.to_list (Array.map Option.get t.slots)))))

(* pinned.json: {"default_seed": 1, "pins": {"<workload>": {"<seed>": "<md5>"}}} *)
type pins = { default_seed : int; table : (string * (int * string) list) list }

let parse_pins text =
  let open Adapter in
  let field k = function
    | Obj kv -> (
        match List.assoc_opt k kv with
        | Some v -> v
        | None -> failwith ("pinned digests: missing " ^ k))
    | _ -> failwith "pinned digests: not an object"
  in
  let root = parse_json text in
  let default_seed =
    match field "default_seed" root with
    | Num f -> int_of_float f
    | _ -> failwith "pinned digests: default_seed is not a number"
  in
  let table =
    match field "pins" root with
    | Obj workloads ->
        List.map
          (fun (w, seeds) ->
            match seeds with
            | Obj kv ->
                ( w,
                  List.map
                    (function
                      | s, Str d -> (int_of_string s, d)
                      | _ -> failwith "pinned digests: digest is not a string")
                    kv )
            | _ -> failwith "pinned digests: per-workload pins not an object")
          workloads
    | _ -> failwith "pinned digests: pins is not an object"
  in
  { default_seed; table }

let load_pins path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_pins text

let pinned pins ~workload ~seed =
  Option.bind (List.assoc_opt workload pins.table) (List.assoc_opt seed)

type verdict = Match | Unpinned | Mismatch of string

let check pins ~workload ~seed digest =
  match (pinned pins ~workload ~seed, digest) with
  | None, _ -> Unpinned
  | Some p, Some d when String.equal p d -> Match
  | Some p, Some d -> Mismatch (Printf.sprintf "digest %s, pinned %s" d p)
  | Some p, None -> Mismatch ("incomplete cycle, pinned " ^ p)
