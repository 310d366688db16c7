module Stats = Imk_util.Stats
module W = Imk_fault.Weather

type config = {
  arrival : Arrival.model;
  seed : int;
  requests : int;
  servers : int;
  pool_capacity : int;
  queue_capacity : int;
  cold_ns : int array;
  warm_ns : int array;
  fault_ns : int array;
  weather : W.t option;
  seams : Imk_fault.Inject.kind list;
}

type report = {
  requests : int;
  completed : int;
  dropped : int;
  cold_starts : int;
  warm_starts : int;
  fault_starts : int;
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  hit_rate : float;
  distinct_layouts : int;
  sojourn : Stats.summary;
  cold_service : Stats.summary;
  warm_service : Stats.summary;
  fault_service : Stats.summary;
  queue_wait : Stats.summary;
  queue_depth : Stats.summary;
  makespan_ns : int;
}

(* in-flight boots on the shared event heap, keyed (finish_ns, seq):
   seq is the start order, so ties resolve deterministically and the
   completion order is a pure function of the schedule *)
module Heap = Imk_util.Heap

(* LSD radix sort on non-negative ints, 16-bit digits: the SLO sample
   buffers hold up to [requests] entries apiece, and summarizing them
   with [Array.sort Float.compare] costs a closure call per comparison —
   measured at more than half of a 1M-request cell's wall clock. Two to
   four counting passes replace the comparison sort; samples are virtual
   nanoseconds and queue depths, all >= 0 by construction. Returns the
   array holding the sorted prefix (either [a] or [scratch], whichever
   the final pass landed in). *)
let radix_sort ~scratch ~counts (a : int array) len =
  let max_v = ref 0 in
  for i = 0 to len - 1 do
    if a.(i) > !max_v then max_v := a.(i)
  done;
  let src = ref a and dst = ref scratch in
  let shift = ref 0 in
  while !max_v lsr !shift > 0 do
    Array.fill counts 0 65536 0;
    let s = !src and d = !dst in
    for i = 0 to len - 1 do
      let dgt = (s.(i) lsr !shift) land 0xFFFF in
      counts.(dgt) <- counts.(dgt) + 1
    done;
    let acc = ref 0 in
    for dgt = 0 to 65535 do
      let c = counts.(dgt) in
      counts.(dgt) <- !acc;
      acc := !acc + c
    done;
    for i = 0 to len - 1 do
      let v = s.(i) in
      let dgt = (v lsr !shift) land 0xFFFF in
      d.(counts.(dgt)) <- v;
      counts.(dgt) <- counts.(dgt) + 1
    done;
    let t = !src in
    src := !dst;
    dst := t;
    shift := !shift + 16
  done;
  !src

let validate cfg =
  Arrival.validate cfg.arrival;
  if cfg.requests < 0 then invalid_arg "Sim.run: negative requests";
  if cfg.servers < 1 then invalid_arg "Sim.run: servers must be >= 1";
  if cfg.queue_capacity < 0 then
    invalid_arg "Sim.run: negative queue_capacity";
  let samples what a ~required =
    if required && Array.length a = 0 then
      invalid_arg (Printf.sprintf "Sim.run: empty %s samples" what);
    Array.iter
      (fun ns ->
        if ns < 0 then
          invalid_arg (Printf.sprintf "Sim.run: negative %s sample" what))
      a
  in
  samples "cold_ns" cfg.cold_ns ~required:true;
  samples "warm_ns" cfg.warm_ns ~required:true;
  samples "fault_ns" cfg.fault_ns ~required:(cfg.weather <> None)

(* the layout fingerprint of a freshly booted instance: pure in
   (seed, id), the same allocation-free mix the arrival streams use —
   every cold boot randomizes a new layout, every warm reuse freezes
   one. Storm cells mint hundreds of thousands of instances, so this
   runs hot. *)
let layout_seed ~seed ~id =
  let h = ((seed * 2) + 3) * 0x9E3779B97F4A7C1 in
  let h = h + ((id + 1) * 0x2545F4914F6CDD1D) in
  let h = (h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9 in
  h lxor (h lsr 31)

type start_class = Cold | Warm | Faulty

let run cfg =
  validate cfg;
  let n = cfg.requests in
  let pool = Pool.create ~capacity:cfg.pool_capacity in
  let heap = Heap.create ~dummy:{ Pool.id = 0; layout_seed = 0 } in
  let seq = ref 0 in
  (* admission queue as a ring of (request index, arrival) int pairs:
     bounded by queue_capacity, so it never grows and never allocates *)
  let qcap = max 1 cfg.queue_capacity in
  let q_idx = Array.make qcap 0 in
  let q_arr = Array.make qcap 0 in
  let q_head = ref 0 in
  let qlen = ref 0 in
  let free = ref cfg.servers in
  let next_id = ref 0 in
  (* SLO sample buffers hold raw virtual nanoseconds (and queue depths)
     as ints; they are converted to floats once, after the radix sort,
     when each summary is built *)
  let cap = max 1 n in
  let sojourn = Array.make cap 0 and n_all = ref 0 in
  let cold_s = Array.make cap 0 and n_cold = ref 0 in
  let warm_s = Array.make cap 0 and n_warm = ref 0 in
  let fault_s = Array.make cap 0 and n_fault = ref 0 in
  let wait_s = Array.make cap 0 in
  let depth = Array.make cap 0 in
  let dropped = ref 0 in
  let makespan = ref 0 in
  let cold_len = Array.length cfg.cold_ns in
  let warm_len = Array.length cfg.warm_ns in
  let fault_len = Array.length cfg.fault_ns in
  let classify index =
    match cfg.weather with
    | None -> `Normal
    | Some w -> (
        let fc = W.forecast w ~run:(index + 1) ~seams:cfg.seams in
        match fc.W.fault with
        | Some _ -> `Faulty
        | None -> if fc.W.cold then `Forced_cold else `Normal)
  in
  let fresh_instance () =
    let id = !next_id in
    incr next_id;
    { Pool.id; layout_seed = layout_seed ~seed:cfg.seed ~id }
  in
  (* begin serving request [index] at [now_ns]; the caller holds a free
     server. Latencies are recorded here — the finish time is already
     determined — and only the pool release waits for the completion
     event. The interval identities are Imk_vclock.Timeline's, inlined:
     wait = start - arrival, service = finish - start (the start-class
     cost), sojourn = wait + service; allocating a stamp per request is
     pure minor-GC pressure at fleet scale, and test_fleet pins the
     Timeline accessors to these identities. *)
  let start ~index ~arrival_ns ~now_ns =
    let cls, inst, cost =
      match classify index with
      | `Faulty ->
          (Faulty, fresh_instance (), cfg.fault_ns.(index mod fault_len))
      | `Forced_cold ->
          (Cold, fresh_instance (), cfg.cold_ns.(index mod cold_len))
      | `Normal -> (
          match Pool.acquire pool ~now_ns with
          | Some inst -> (Warm, inst, cfg.warm_ns.(index mod warm_len))
          | None -> (Cold, fresh_instance (), cfg.cold_ns.(index mod cold_len)))
    in
    let wait = now_ns - arrival_ns in
    let finish = now_ns + cost in
    sojourn.(!n_all) <- wait + cost;
    wait_s.(!n_all) <- wait;
    incr n_all;
    (* per-class rows carry the service time alone — what the start
       class cost, with queueing reported separately — so cold vs warm
       compares boot paths, not congestion *)
    (match cls with
    | Cold ->
        cold_s.(!n_cold) <- cost;
        incr n_cold
    | Warm ->
        warm_s.(!n_warm) <- cost;
        incr n_warm
    | Faulty ->
        fault_s.(!n_fault) <- cost;
        incr n_fault);
    if finish > !makespan then makespan := finish;
    decr free;
    incr seq;
    Heap.push heap ~key:finish ~seq:!seq inst
  in
  let start_queued ~now_ns =
    while !free > 0 && !qlen > 0 do
      let h = !q_head in
      q_head := (h + 1) mod qcap;
      decr qlen;
      start ~index:q_idx.(h) ~arrival_ns:q_arr.(h) ~now_ns
    done
  in
  (* retire every boot finishing at or before [t]: the instance goes
     back to the warm pool at its finish time, and queued requests start
     the moment a server frees — possibly finishing before [t] too,
     which is why the loop re-reads the heap minimum *)
  let complete_until t =
    while Heap.len heap > 0 && Heap.min_key heap <= t do
      let finish = Heap.min_key heap in
      let inst = Heap.pop heap in
      Pool.release pool inst ~now_ns:finish;
      incr free;
      start_queued ~now_ns:finish
    done
  in
  let t_arr = ref 0 in
  for i = 0 to n - 1 do
    t_arr := !t_arr + Arrival.gap_ns cfg.arrival ~seed:cfg.seed ~index:i;
    complete_until !t_arr;
    depth.(i) <- !qlen;
    if !free > 0 then start ~index:i ~arrival_ns:!t_arr ~now_ns:!t_arr
    else if !qlen < cfg.queue_capacity then begin
      let tail = (!q_head + !qlen) mod qcap in
      q_idx.(tail) <- i;
      q_arr.(tail) <- !t_arr;
      incr qlen
    end
    else incr dropped
  done;
  complete_until max_int;
  (* one scratch + counts pair serves all six summaries: each [summ]
     call radix-sorts its buffer and copies the sorted prefix out into
     the float array before the next call reuses the scratch space *)
  let scratch = Array.make cap 0 in
  let counts = Array.make 65536 0 in
  let summ a len =
    if len = 0 then Stats.empty
    else begin
      let sorted = radix_sort ~scratch ~counts a len in
      Stats.summarize_sorted (Array.init len (fun i -> float_of_int sorted.(i)))
    end
  in
  {
    requests = n;
    completed = !n_all;
    dropped = !dropped;
    cold_starts = !n_cold;
    warm_starts = !n_warm;
    fault_starts = !n_fault;
    pool_hits = Pool.hits pool;
    pool_misses = Pool.misses pool;
    pool_evictions = Pool.evictions pool;
    hit_rate = Pool.hit_rate pool;
    (* [layout_seed] is a bijection of [id] for a fixed seed — the
       affine step multiplies by an odd constant (invertible mod 2^63)
       and each xor-shift / odd-multiply finalizer round is invertible —
       and every minted instance serves the request that minted it, so
       the distinct-layout count is exactly the mint count. No hash
       table on the hot path. *)
    distinct_layouts = !next_id;
    sojourn = summ sojourn !n_all;
    cold_service = summ cold_s !n_cold;
    warm_service = summ warm_s !n_warm;
    fault_service = summ fault_s !n_fault;
    queue_wait = summ wait_s !n_all;
    queue_depth = summ depth n;
    makespan_ns = !makespan;
  }

let instantiation_rate ~cores ~window_ms samples =
  if cores < 1 then invalid_arg "Sim.instantiation_rate: cores must be >= 1";
  if Array.length samples = 0 then
    invalid_arg "Sim.instantiation_rate: empty samples";
  if not (Float.is_finite window_ms) || window_ms <= 0. then
    invalid_arg "Sim.instantiation_rate: window must be positive";
  Array.iter
    (fun s ->
      if not (Float.is_finite s) || s <= 0. then
        invalid_arg "Sim.instantiation_rate: samples must be positive")
    samples;
  let n = Array.length samples in
  let completed = ref 0 in
  let span_ms = ref 0. in
  for core = 0 to cores - 1 do
    let t = ref 0. and i = ref core in
    while !t < window_ms do
      t := !t +. samples.(!i mod n);
      if !t <= window_ms then begin
        incr completed;
        if !t > !span_ms then span_ms := !t
      end;
      incr i
    done
  done;
  if !completed = 0 then 0.
  else float_of_int !completed /. (!span_ms /. 1000.)
