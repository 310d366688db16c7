(* Metric names, units and how each is computed; the result line.
   The names here must equal BENCHMARK.json's (the self-test checks). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_ms_p50", "ms");
    ("op_ms_tail", "ms");
    ("items_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(* where a per-layer value comes from *)
type source =
  | Self_ms of string  (* mean self time per span of this name *)
  | Per_op of string  (* counter total / traced operations *)
  | Per_span of string * string  (* counter total / spans of this name *)
  | Ratio of string * string  (* counter / counter *)
  | Mb_per_s of string * string  (* MB counter / total self time of span *)
  | Host of string  (* measured by the run loop itself (GC, overhead) *)

let per_layer =
  [
    ("memory.alloc_ms", "ms", Self_ms "memory.alloc");
    ("memory.alloc_count", "count", Per_op "memory.alloc_count");
    ("memory.scrub_ms", "ms", Self_ms "memory.scrub");
    ("memory.scrub_mb", "MB", Per_span ("memory.scrub_mb", "memory.scrub"));
    ("memory.arena_hit_ratio", "ratio", Ratio ("memory.arena_hits", "memory.arena_borrows"));
    ("monitor.boot_ms", "ms", Self_ms "monitor.boot");
    ("monitor.plan_hit_ratio", "ratio", Ratio ("monitor.plan_hits", "monitor.plan_lookups"));
    ("monitor.plan_build_ms", "ms", Self_ms "monitor.plan_build");
    ("monitor.snapshot_capture_ms", "ms", Self_ms "monitor.snapshot_capture");
    ("monitor.snapshot_restore_ms", "ms", Self_ms "monitor.snapshot_restore");
    ("randomize.place_ms", "ms", Self_ms "randomize.place");
    ("randomize.kaslr_apply_ms", "ms", Self_ms "randomize.kaslr_apply");
    ("randomize.fgkaslr_plan_ms", "ms", Self_ms "randomize.fgkaslr_plan");
    ("guest.verify_ms", "ms", Self_ms "guest.verify");
    ("guest.verify_sites", "count", Per_span ("guest.verify_sites", "guest.verify"));
    ("bootstrap.run_ms", "ms", Self_ms "bootstrap.run");
    ("compress.decompress_ms", "ms", Self_ms "compress.decompress");
    ("compress.decompress_mb_per_s", "MB/s", Mb_per_s ("compress.decompress_mb", "compress.decompress"));
    ("compress.compress_ms", "ms", Self_ms "compress.compress");
    ("util.crc32_mb_per_s", "MB/s", Mb_per_s ("util.crc32_mb", "util.crc32"));
    ("kernel.build_ms", "ms", Self_ms "kernel.build");
    ("kernel.link_ms", "ms", Self_ms "kernel.link");
    ("vclock.sched_run_ms", "ms", Self_ms "vclock.sched_run");
    ("vclock.disk_acquires", "count", Per_span ("vclock.disk_acquires", "vclock.sched_run"));
    ("vclock.decompress_acquires", "count", Per_span ("vclock.decompress_acquires", "vclock.sched_run"));
    ("vclock.peak_in_use", "count", Per_span ("vclock.peak_in_use", "vclock.sched_run"));
    ("fleet.sim_ms", "ms", Self_ms "fleet.sim");
    ("fleet.arrivals_ms", "ms", Self_ms "fleet.arrivals");
    ("fleet.pool_hit_ratio", "ratio", Per_op "fleet.hit_rate");
    ("fleet.evictions", "count", Per_op "fleet.evictions");
    ("fleet.dropped", "count", Per_op "fleet.dropped");
    ("harness.self_ms", "ms", Self_ms "harness.op");
    ("gc.minor_mw_per_op", "Mword", Host "gc.minor_mw_per_op");
    ("gc.promoted_mw_per_op", "Mword", Host "gc.promoted_mw_per_op");
    ("gc.major_per_op", "count", Host "gc.major_per_op");
    ("gc.top_heap_mb", "MB", Host "gc.top_heap_mb");
    ("trace.overhead_pct", "%", Host "trace.overhead_pct");
  ]

(* a per-layer value; 0 when the workload never entered the layer *)
let layer_value ~layers ~counter ~ops ~host = function
  | Self_ms name -> (
      match Hashtbl.find_opt layers name with
      | Some { Spans.calls; self_total_ns } when calls > 0 ->
          float_of_int self_total_ns /. float_of_int calls /. 1e6
      | _ -> 0.)
  | Per_op key -> if ops = 0 then 0. else counter key /. float_of_int ops
  | Per_span (key, name) -> (
      match Hashtbl.find_opt layers name with
      | Some { Spans.calls; _ } when calls > 0 -> counter key /. float_of_int calls
      | _ -> 0.)
  | Ratio (a, b) -> if counter b = 0. then 0. else counter a /. counter b
  | Mb_per_s (key, name) -> (
      match Hashtbl.find_opt layers name with
      | Some { Spans.self_total_ns; _ } when self_total_ns > 0 ->
          counter key /. (float_of_int self_total_ns /. 1e9)
      | _ -> 0.)
  | Host key -> host key

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let tail_beyond = 10

(* the highest percentile with at least [tail_beyond] samples beyond it:
   the (tail_beyond + 1)-th largest sample, and that percentile *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n <= tail_beyond then None
  else
    Some
      ( a.(n - tail_beyond - 1),
        100. *. float_of_int (n - tail_beyond) /. float_of_int n )

let result_json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      if i > 0 then Buffer.add_string b ", ";
      (* %.17g keeps every digit; JSON has no NaN or infinity *)
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
