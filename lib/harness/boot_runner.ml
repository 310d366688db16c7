open Imk_vclock

type phase_stats = {
  in_monitor : Imk_util.Stats.summary;
  bootstrap : Imk_util.Stats.summary;
  decompression : Imk_util.Stats.summary;
  linux_boot : Imk_util.Stats.summary;
  total : Imk_util.Stats.summary;
}

let ms s = Imk_util.Units.ns_float_to_ms s.Imk_util.Stats.mean

let default_jobs = ref 1

let trace_sink : (Trace.t -> unit) option ref = ref None

let emit_trace trace =
  match !trace_sink with Some f -> f trace | None -> ()

let boot_once ?(jitter = true) ?mem ?plans ~seed ~cache vm =
  let clock = Clock.create () in
  let trace = Trace.create clock in
  let jitter_rng =
    if jitter then Some (Imk_entropy.Prng.create ~seed:(Int64.add seed 7919L))
    else None
  in
  let ch = Charge.create ?jitter:jitter_rng trace Cost_model.default in
  let result =
    Imk_monitor.Vmm.boot ?mem ?plans ch cache
      { vm with Imk_monitor.Vm_config.seed }
  in
  emit_trace trace;
  (trace, result)

let warm_seed i = Int64.of_int (1000 + i)
let run_seed i = Int64.of_int (2000 + i)
let contend_seed ~run ~slot = Int64.of_int (3000 + (run * 256) + slot)

(* a phase the boot never entered (direct boots have no decompression)
   reports 0 ns; drop it so its summary says n = 0 instead of averaging
   fabricated zero samples *)
let record_trace trace =
  let breakdown =
    List.filter_map
      (fun (p, ns) -> if ns = 0 then None else Some (p, float_of_int ns))
      (Trace.breakdown trace)
  in
  (breakdown, float_of_int (Trace.total trace))

(* samples are prepended record by record, in run order *)
let summarize_recorded recorded =
  let phase_samples = Hashtbl.create 8 in
  let totals = ref [] in
  let record phase v =
    let prev =
      Option.value ~default:[] (Hashtbl.find_opt phase_samples phase)
    in
    Hashtbl.replace phase_samples phase (v :: prev)
  in
  Array.iter
    (fun (breakdown, total) ->
      List.iter (fun (phase, v) -> record phase v) breakdown;
      totals := total :: !totals)
    recorded;
  let summary phase =
    match Hashtbl.find_opt phase_samples phase with
    | None | Some [] -> Imk_util.Stats.empty
    | Some samples -> Imk_util.Stats.summarize samples
  in
  {
    in_monitor = summary Trace.In_monitor;
    bootstrap = summary Trace.Bootstrap_setup;
    decompression = summary Trace.Decompression;
    linux_boot = summary Trace.Linux_boot;
    total =
      (match !totals with
      | [] -> Imk_util.Stats.empty
      | samples -> Imk_util.Stats.summarize samples);
  }

let boot_many ?(warmups = 5) ?(cold = false) ?arena ?plans ~runs ~cache
    ~make_vm () =
  (* one full boot: returns its phase breakdown (as floats) and total,
     and hands the guest memory back to the arena *)
  let boot seed =
    if cold then Imk_storage.Page_cache.drop_caches cache;
    let vm = make_vm ~seed in
    let record (trace, _result) = record_trace trace in
    match arena with
    | None -> record (boot_once ?plans ~seed ~cache vm)
    | Some a ->
        (* bracketed borrow: a boot that raises (fault-injection runs)
           still hands its buffer back to the pool *)
        Imk_memory.Arena.with_buffer a ~size:vm.Imk_monitor.Vm_config.mem_bytes
          (fun mem -> record (boot_once ~mem ?plans ~seed ~cache vm))
  in
  (* the series runs in order against the shared cache: the warm-ups
     prime it, and recorded boot i (0-based) uses run_seed (i + 1) *)
  for i = 1 to warmups do
    ignore (boot (warm_seed i))
  done;
  summarize_recorded (Array.init runs (fun i -> boot (run_seed (i + 1))))

(* --- contended boots on the shared event timeline (DESIGN.md §10) --- *)

let contend_capacities = ref (1, 1)

type contended_stats = {
  per_boot : phase_stats;
  makespan : Imk_util.Stats.summary;
}

let boot_contended ?(warmups = 5) ?plans ~n ~runs ~cache ~make_vm () =
  if n < 1 then invalid_arg "Boot_runner.boot_contended: n < 1";
  if runs < 0 then invalid_arg "Boot_runner.boot_contended: negative runs";
  let disk_capacity, decompress_slots = !contend_capacities in
  (* warm the shared cache (and plan cache / lazy image builds)
     sequentially, exactly like [boot_many]: the boots' read set does not
     depend on the seed, so afterwards the cache is a fixed point for
     this configuration *)
  for i = 1 to warmups do
    ignore (boot_once ?plans ~seed:(warm_seed i) ~cache (make_vm ~seed:(warm_seed i)))
  done;
  (* one run = a fresh scheduler booting [n] guests concurrently against
     a private clone of the warmed cache. Every input is a pure function
     of the run index — seeds, jitter, cache state, and the scheduler's
     event order (single-domain, seq-stamped). Runs go one at a time: a
     run holds [n] live guests, so fanning runs out would multiply peak
     memory by the fan-out (12 x 256 MiB per fig9 run). *)
  let one_run r =
    let cache = Imk_storage.Page_cache.clone cache in
    let sched =
      Imk_vclock.Sched.create ~disk_capacity ~decompress_slots ()
    in
    let boots =
      Array.init n (fun s ->
          let tl = Imk_vclock.Sched.timeline sched in
          let trace = Trace.create (Imk_vclock.Sched.timeline_clock tl) in
          let seed = contend_seed ~run:r ~slot:s in
          let jitter = Imk_entropy.Prng.create ~seed:(Int64.add seed 7919L) in
          let ch = Charge.create ~jitter ~sched:tl trace Cost_model.default in
          (tl, trace, ch, seed))
    in
    Array.iter
      (fun (tl, _trace, ch, seed) ->
        Imk_vclock.Sched.spawn sched tl (fun () ->
            let vm = { (make_vm ~seed) with Imk_monitor.Vm_config.seed = seed } in
            ignore (Imk_monitor.Vmm.boot ?plans ch cache vm)))
      boots;
    Imk_vclock.Sched.run sched;
    let per_boot =
      Array.map
        (fun (_, trace, _, _) ->
          emit_trace trace;
          record_trace trace)
        boots
    in
    (per_boot, float_of_int (Imk_vclock.Sched.now sched))
  in
  let per_run =
    Array.init runs (fun r -> one_run (r + 1))
  in
  {
    per_boot =
      summarize_recorded
        (Array.concat (Array.to_list (Array.map fst per_run)));
    makespan =
      (match Array.to_list (Array.map snd per_run) with
      | [] -> Imk_util.Stats.empty
      | samples -> Imk_util.Stats.summarize samples);
  }

let spans_by_label trace =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let label =
        if String.length s.label > 0 && s.label.[0] = '+' then
          String.sub s.label 1 (String.length s.label - 1)
        else s.label
      in
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc label) in
      Hashtbl.replace acc label (prev + (s.stop_ns - s.start_ns)))
    (Trace.spans trace);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
