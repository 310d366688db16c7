(* Host-cost benchmark of the microVM boot simulator.

   Usage (from the repository root):
     perfbench/run.sh --workload <direct|bzimage|density|fleet>
                      --seed <n> --seconds <s> --trace <0|1>

   One process runs one workload on one domain. It sets the workload up
   [setups] times (reporting the median as setup_s), then runs a closed
   loop of operations for --seconds. With --trace 0 the last stdout line
   carries the end-to-end metrics; with --trace 1 the run spends half
   its time untraced and half recording spans, and the last line carries
   the per-layer metrics. Every operation's virtual output feeds the
   digest checked against perfbench/pinned.json. See perfbench/README.md. *)

open Perfbench

let process_start = Spans.now_ns ()
let setups = 3
let min_ops = 20

(* Every run times at least [fixed_ops] operations, and peak_rss_mb is
   VmHWM read right after operation [fixed_ops]: a fixed amount of work,
   so a faster program (more operations in the same seconds) does not
   read as a bigger one. *)
let fixed_ops (inst : Workloads.instance) = max min_ops (4 * inst.cycle)

(* A traced loop times at least [traced_ops] operations: enough for the
   per-layer means, and few enough that the traced half, replays
   included, keeps to its share of --seconds. *)
let traced_ops = 8
let pins_path = "perfbench/pinned.json"
let spans_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: main.exe --workload <direct|bzimage|density|fleet> --seed N\n\
    \                --seconds S --trace 0|1";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: "0" :: rest -> go { a with trace = false } rest
    | "--trace" :: "1" :: rest -> go { a with trace = true } rest
    | _ -> usage ()
  in
  match
    go { workload = ""; seed = 1; seconds = 10.; trace = false } argv
  with
  | a when a.seconds > 0. -> a
  | _ -> usage ()
  | exception Failure _ -> usage ()

let secs ns = float_of_int ns /. 1e9

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb *. 1024. /. 1e6)
        else find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- the closed loop --- *)

type loop = {
  mutable op_ms : float list;  (* successful operations only *)
  mutable items : int;
  mutable ops : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable wall_ns : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable majors : int;
  mutable rss_mb : float;  (* VmHWM after [fixed_ops] operations *)
}

let run_loop (inst : Workloads.instance) digest sp ~first ~seconds ~traced ~fixed =
  Spans.set_enabled sp traced;
  let l =
    {
      op_ms = [];
      items = 0;
      ops = 0;
      attempted = 0;
      failed = 0;
      failures = [];
      wall_ns = 0;
      minor_words = 0.;
      promoted_words = 0.;
      majors = 0;
      rss_mb = nan;
    }
  in
  let start = Spans.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  while l.ops < fixed || Spans.now_ns () < deadline do
    let index = first + l.ops in
    let slot = index mod inst.cycle in
    Spans.set_op sp index;
    let g0 = Gc.quick_stat () in
    let r0 = Spans.replay_ns sp in
    let t0 = Spans.now_ns () in
    let res =
      match Spans.span sp "harness.op" (fun () -> inst.op ~slot) with
      | o -> Ok o
      | exception Out_of_memory -> raise Out_of_memory
      | exception e -> Error (Adapter.describe_failure e)
    in
    (* replays inside an operation are measurement, not the operation *)
    let op_ns = Spans.now_ns () - t0 - (Spans.replay_ns sp - r0) in
    let g1 = Gc.quick_stat () in
    l.minor_words <- l.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    l.promoted_words <-
      l.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    l.majors <- l.majors + g1.Gc.major_collections - g0.Gc.major_collections;
    let note_failure msg =
      l.failed <- l.failed + 1;
      if List.length l.failures < 5 then
        l.failures <- Printf.sprintf "op %d: %s" index msg :: l.failures
    in
    (match res with
    | Ok o ->
        l.op_ms <- (float_of_int op_ns /. 1e6) :: l.op_ms;
        l.items <- l.items + o.Workloads.items;
        l.attempted <- l.attempted + o.Workloads.attempted;
        List.iter note_failure o.Workloads.failures;
        Vdigest.record digest ~slot o.Workloads.vout
    | Error msg ->
        l.attempted <- l.attempted + 1;
        note_failure msg;
        Vdigest.record digest ~slot ("failed: " ^ msg));
    if traced then begin
      match inst.replay ~index:l.ops ~slot with
      | () -> ()
      | exception Out_of_memory -> raise Out_of_memory
      | exception e ->
          Spans.count sp "check.mismatch" 1.;
          l.failures <-
            Printf.sprintf "replay %d: %s" index (Adapter.describe_failure e)
            :: l.failures
    end;
    l.ops <- l.ops + 1;
    if l.ops = fixed then l.rss_mb <- peak_rss_mb ()
  done;
  l.wall_ns <- Spans.now_ns () - start;
  Spans.set_enabled sp false;
  l

(* a full major cycle first: [Gc.compact] alone can leave the previous
   set-up's guest buffers unswept, so two set-ups would share the peak *)
let release_heap () =
  Gc.full_major ();
  Gc.compact ()

let setup (w : Workloads.t) ~seed sp =
  let times = ref [] and inst = ref None in
  for k = 1 to setups do
    if k > 1 then begin
      inst := None;
      release_heap ()
    end;
    let t0 = if k = 1 then process_start else Spans.now_ns () in
    Spans.set_op sp (-k);
    inst := Some (w.Workloads.setup ~seed sp);
    times := secs (Spans.now_ns () - t0) :: !times
  done;
  release_heap ();
  (Option.get !inst, List.rev !times)

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let w = match Workloads.find a.workload with Some w -> w | None -> usage () in
  Adapter.sequential ();
  let pins = Vdigest.load_pins pins_path in
  let sp = Spans.create () in
  Spans.set_enabled sp a.trace;
  let inst, setup_times = setup w ~seed:a.seed sp in
  let digest = Vdigest.create ~cycle:inst.Workloads.cycle in
  let plain_seconds = if a.trace then a.seconds /. 2. else a.seconds in
  let plain =
    run_loop inst digest sp ~first:0 ~seconds:plain_seconds ~traced:false
      ~fixed:(fixed_ops inst)
  in
  let traced =
    if a.trace then
      Some
        (run_loop inst digest sp ~first:plain.ops ~seconds:(a.seconds /. 2.)
           ~traced:true ~fixed:traced_ops)
    else None
  in
  let loops = plain :: Option.to_list traced in
  let ops = List.fold_left (fun n l -> n + l.ops) 0 loops in
  let attempted = List.fold_left (fun n l -> n + l.attempted) 0 loops in
  let failed = List.fold_left (fun n l -> n + l.failed) 0 loops in
  let hex = Vdigest.hex digest in
  let verdict = Vdigest.check pins ~workload:w.name ~seed:a.seed hex in
  let replay_mismatch = Spans.counter sp "check.mismatch" > 0. in
  (* a span shorter than the children it encloses means broken timing *)
  let negative_self =
    Array.fold_left (fun n ns -> if ns < 0 then n + 1 else n) 0 (Spans.self_ns sp)
  in
  let correct =
    failed = 0 && digest.Vdigest.mismatches = 0 && hex <> None
    && (match verdict with Vdigest.Mismatch _ -> false | _ -> true)
    && (not replay_mismatch) && negative_self = 0
  in
  Printf.printf
    "perfbench %s seed=%d trace=%b: %d operations, %d attempted, %d failed, \
     cycle %d, VmHWM %.1f MB\n"
    w.name a.seed a.trace ops attempted failed inst.Workloads.cycle (peak_rss_mb ());
  if negative_self > 0 then
    Printf.printf "  %d spans have a negative self time\n" negative_self;
  Printf.printf "  virtual digest %s (%s; %d in-run mismatches)\n"
    (Option.value ~default:"incomplete" hex)
    (match verdict with
    | Vdigest.Match -> "matches the pin"
    | Vdigest.Unpinned ->
        Printf.sprintf "seed not pinned; pins are on seed %d" pins.Vdigest.default_seed
    | Vdigest.Mismatch m -> "MISMATCH: " ^ m)
    digest.Vdigest.mismatches;
  Option.iter (Printf.printf "  first mismatch: %s\n") digest.Vdigest.first_mismatch;
  List.iter
    (fun l -> List.iter (Printf.printf "  failure: %s\n") (List.rev l.failures))
    loops;
  let p50 l = Metrics.median l.op_ms in
  let metrics =
    match traced with
    | None ->
        let tail_ms, tail_pct =
          match Metrics.tail plain.op_ms with
          | Some t -> t
          | None -> (nan, nan)
        in
        Printf.printf "  setup_s runs: %s\n"
          (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
        Printf.printf "  op_ms_tail is p%.2f of %d operations\n" tail_pct
          (List.length plain.op_ms);
        let value = function
          | "setup_s" -> Metrics.median setup_times
          | "op_ms_p50" -> p50 plain
          | "op_ms_tail" -> tail_ms
          | "items_per_s" -> float_of_int plain.items /. secs plain.wall_ns
          | "peak_rss_mb" -> plain.rss_mb
          | m -> failwith ("no end-to-end metric " ^ m)
        in
        List.map (fun (n, u) -> (n, u, value n)) Metrics.end_to_end
    | Some tl ->
        let layers = Spans.by_name sp in
        let ops = float_of_int (max 1 plain.ops) in
        let host = function
          | "gc.minor_mw_per_op" -> plain.minor_words /. ops /. 1e6
          | "gc.promoted_mw_per_op" -> plain.promoted_words /. ops /. 1e6
          | "gc.major_per_op" -> float_of_int plain.majors /. ops
          | "gc.top_heap_mb" ->
              float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
              /. 1e6
          | "trace.overhead_pct" -> 100. *. ((p50 tl /. p50 plain) -. 1.)
          | m -> failwith ("no host metric " ^ m)
        in
        let ms =
          List.map
            (fun (n, u, src) ->
              ( n,
                u,
                Metrics.layer_value ~layers ~counter:(Spans.counter sp) ~ops:tl.ops
                  ~host src ))
            Metrics.per_layer
        in
        Printf.printf "  op_ms_p50 untraced %.4f (%d ops), traced %.4f (%d ops)\n"
          (p50 plain) plain.ops (p50 tl) tl.ops;
        Printf.printf "  %-32s %14s  %s\n" "per-layer metric" "value" "unit";
        List.iter (fun (n, u, v) -> Printf.printf "  %-32s %14.4f  %s\n" n v u) ms;
        (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
        let path =
          Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.json" w.name a.seed)
        in
        Spans.write sp path;
        Printf.printf "  spans written to %s\n" path;
        ms
  in
  print_endline (Metrics.result_json ~correct ~attempted ~failed metrics)
