(* The four workloads. Each is a closed loop with one client: the
   benchmark starts an operation only after the previous one returned.
   A workload's set-up builds everything an operation needs; an
   operation raises when the program fails it. Every call into the
   program goes through Adapter. Spans named "<layer>.<step>" use the
   lib/ directory of the layer they time. *)

module A = Adapter

type outcome = {
  vout : string;
  items : int;  (* verified boots, or simulated requests on fleet *)
  attempted : int;
      (* what failure accounting counts: boots on direct and bzimage,
         the whole operation on density and fleet *)
  failures : string list;  (* one message per failed attempt *)
}

type instance = {
  cycle : int;  (* distinct operation inputs; slot = op index mod cycle *)
  op : slot:int -> outcome;
  replay : index:int -> slot:int -> unit;
      (* measurement-only calls on the operation's inputs, traced runs *)
}

type t = { name : string; setup : seed:int -> Spans.t -> instance }

let mib = 1024 * 1024

(* operation inputs come from the workload seed alone *)
let seeds ~seed ~salt n =
  let rs = Random.State.make [| seed; salt |] in
  Array.init n (fun _ -> Int64.of_int (Random.State.bits rs))

let alloc_replays = 3

(* a replay that times one fresh guest allocation of [size] *)
let replay_alloc sp ~size =
  ignore (Spans.span ~replay:true sp "memory.alloc" (fun () -> A.fresh_mem ~size))

(* One verified boot, as Boot_runner.boot_many runs it with an arena:
   borrow, boot in place, scrub back. Traced, the guest is verified a
   second time (a replay) and its dirty bytes counted before the scrub. *)
let boot_op ws sp vm =
  let arena = A.arena ws in
  let size = A.mem_bytes vm in
  let traced = Spans.enabled sp in
  let hits0, misses0 = if traced then A.arena_stats arena else (0, 0) in
  let phits0, pbuilds0 = if traced then A.plan_stats ws else (0, 0) in
  let mem = Spans.span sp "memory.borrow" (fun () -> A.borrow arena ~size) in
  match Spans.span sp "monitor.boot" (fun () -> A.boot_once ws ~mem vm) with
  | exception e ->
      A.release arena mem;
      raise e
  | b ->
      if traced then begin
        let sites =
          Spans.span ~replay:true sp "guest.verify" (fun () -> A.verify b)
        in
        Spans.count sp "guest.verify_sites" (float_of_int sites);
        Spans.count sp "memory.scrub_mb"
          (float_of_int (A.dirty_bytes mem) /. 1e6)
      end;
      Spans.span sp "memory.scrub" (fun () -> A.release arena mem);
      if traced then begin
        let hits1, misses1 = A.arena_stats arena in
        let phits1, pbuilds1 = A.plan_stats ws in
        Spans.count sp "memory.alloc_count" (float_of_int (misses1 - misses0));
        Spans.count sp "memory.arena_hits" (float_of_int (hits1 - hits0));
        Spans.count sp "memory.arena_borrows"
          (float_of_int (hits1 - hits0 + misses1 - misses0));
        Spans.count sp "monitor.plan_hits" (float_of_int (phits1 - phits0));
        Spans.count sp "monitor.plan_lookups"
          (float_of_int (phits1 - phits0 + pbuilds1 - pbuilds0))
      end;
      (b, A.boot_vout b)

(* replays of the randomization steps on a scratch guest, at the layout
   the boot chose *)
let replay_randomize sp scratch img ~layout:(phys_load, virt_base) ~fg ~seed =
  let shuffle =
    if fg then
      Some
        (Spans.span ~replay:true sp "randomize.fgkaslr_plan" (fun () ->
             A.fgkaslr_plan img ~seed))
    else None
  in
  Spans.span ~replay:true sp "randomize.place" (fun () ->
      A.place scratch img ~phys_load shuffle);
  Spans.span ~replay:true sp "randomize.kaslr_apply" (fun () ->
      A.kaslr_apply scratch img ~phys_load ~virt_base shuffle)

let replay_crc sp bytes =
  ignore (Spans.span ~replay:true sp "util.crc32" (fun () -> A.crc32 bytes));
  Spans.count sp "util.crc32_mb" (float_of_int (Bytes.length bytes) /. 1e6)

(* a guest of [size] for the replays, made on first use *)
let scratch_guest sp ~size =
  let m = ref None in
  fun () ->
    match !m with
    | Some mem -> mem
    | None ->
        let mem =
          Spans.span ~replay:true sp "memory.alloc" (fun () -> A.fresh_mem ~size)
        in
        m := Some mem;
        mem

(* A direct or bzimage operation is one round of the round-robin:
   [repeat] boots of each configuration, configurations interleaved,
   about a third of a second of work. A single boot's time depends on
   its configuration far more than on anything else (3 to 30 ms), so the
   median of single boots would sit between two configurations' modes.
   And the host this was tuned on slows down for a second or so at a
   time: an operation that long absorbs such a burst, where ten shorter
   ones would each take all of it and op_ms_tail would follow the host's
   bursts rather than the program. *)
let rounds = 8

let round_robin ws sp ~seed ~salt ~mem_bytes ~repeat make_vms ~replay_boot
    ~replay_first =
  let n = Array.length make_vms in
  let per_round = repeat * n in
  let boot_seeds = seeds ~seed ~salt (rounds * per_round) in
  let seed_of ~slot j = boot_seeds.((slot * per_round) + j) in
  let vms =
    Array.init rounds (fun slot ->
        Array.init per_round (fun j -> make_vms.(j mod n) ~seed:(seed_of ~slot j)))
  in
  let layouts = Array.make per_round None in
  (* a boot that raises is recorded in the round's output and the round
     goes on, so failures are counted boot by boot *)
  let op ~slot =
    let failures = ref [] in
    let vouts =
      Array.mapi
        (fun j vm ->
          match boot_op ws sp vm with
          | b, vout ->
              layouts.(j) <- Some (A.layout b);
              vout
          | exception Out_of_memory -> raise Out_of_memory
          | exception e ->
              layouts.(j) <- None;
              let msg = Printf.sprintf "boot %d: %s" j (A.describe_failure e) in
              failures := msg :: !failures;
              "failed: " ^ msg)
        vms.(slot)
    in
    let failures = List.rev !failures in
    {
      vout = String.concat ";" (Array.to_list vouts);
      items = per_round - List.length failures;
      attempted = per_round;
      failures;
    }
  in
  let replay ~index ~slot =
    Array.iteri
      (fun j layout ->
        Option.iter
          (fun layout -> replay_boot ~k:(j mod n) ~seed:(seed_of ~slot j) ~layout)
          layout)
      layouts;
    if index < alloc_replays then begin
      replay_first ();
      replay_alloc sp ~size:mem_bytes
    end
  in
  { cycle = rounds; op; replay }

(* --- direct: in-monitor (FG)KASLR direct boots --- *)

let direct_kernels =
  [|
    (A.Aws, A.Kaslr, A.Rando_kaslr);
    (A.Ubuntu, A.Kaslr, A.Rando_kaslr);
    (A.Aws, A.Fgkaslr, A.Rando_fgkaslr);
    (A.Ubuntu, A.Fgkaslr, A.Rando_fgkaslr);
  |]

let direct_setup ~seed sp =
  let ws = A.workspace () in
  let mem_bytes = 256 * mib in
  let kernels = direct_kernels in
  Array.iter
    (fun (p, v, _) -> Spans.span sp "kernel.build" (fun () -> A.build_kernel ws p v))
    kernels;
  A.warm_page_cache ws;
  let make_vms =
    Array.map (fun (p, v, r) ~seed -> A.direct_vm ws p v r ~mem_bytes ~seed) kernels
  in
  Array.iter (fun make_vm -> A.warm_up ws ~make_vm) make_vms;
  (* replay inputs are prepared on first use, outside set-up *)
  let vmlinux = Array.map (fun (p, v, _) -> lazy (A.vmlinux_bytes ws p v)) kernels in
  let images = Array.map (fun (p, v, _) -> lazy (A.image ws p v)) kernels in
  let scratch = scratch_guest sp ~size:mem_bytes in
  let replay_boot ~k ~seed ~layout =
    let _, _, rando = kernels.(k) in
    Spans.span ~replay:true sp "monitor.plan_build" (fun () ->
        A.plan_build_elf (Lazy.force vmlinux.(k)));
    replay_crc sp (Lazy.force vmlinux.(k));
    replay_randomize sp (scratch ()) (Lazy.force images.(k)) ~layout
      ~fg:(rando = A.Rando_fgkaslr) ~seed
  in
  round_robin ws sp ~seed ~salt:1 ~mem_bytes ~repeat:8 make_vms ~replay_boot
    ~replay_first:ignore

(* --- bzimage: self-randomizing KASLR bzImages through the loader --- *)

let bz_images = [| (A.Lupine, "lz4"); (A.Aws, "lz4"); (A.Ubuntu, "lz4"); (A.Aws, "gzip") |]

let bzimage_setup ~seed sp =
  let ws = A.workspace () in
  let mem_bytes = 256 * mib in
  let images = bz_images in
  List.iter
    (fun p -> Spans.span sp "kernel.build" (fun () -> A.build_kernel ws p A.Kaslr))
    [ A.Lupine; A.Aws; A.Ubuntu ];
  Array.iter
    (fun (p, codec) ->
      Spans.span sp "kernel.link" (fun () -> A.link_bzimage ws p ~codec))
    images;
  A.warm_page_cache ws;
  let make_vms =
    Array.map (fun (p, codec) ~seed -> A.bzimage_vm ws p ~codec ~mem_bytes ~seed) images
  in
  Array.iter (fun make_vm -> A.warm_up ws ~make_vm) make_vms;
  (* replay inputs are prepared on first use, outside set-up *)
  let bzs = Array.map (fun (p, codec) -> lazy (A.bz ws p ~codec)) images in
  let kimages = Array.map (fun (p, _) -> lazy (A.image ws p A.Kaslr)) images in
  let payloads =
    Array.map (fun b -> lazy (Bytes.make (A.payload_len (Lazy.force b)) '\000')) bzs
  in
  let scratch = scratch_guest sp ~size:mem_bytes in
  let replay_boot ~k ~seed ~layout =
    let bz = Lazy.force bzs.(k) and payload = Lazy.force payloads.(k) in
    Spans.span ~replay:true sp "monitor.plan_build" (fun () ->
        A.plan_build_bz bz);
    Spans.span ~replay:true sp "bootstrap.run" (fun () ->
        A.loader_run (scratch ()) bz ~seed);
    Spans.span ~replay:true sp "compress.decompress" (fun () ->
        A.decompress_into bz payload);
    Spans.count sp "compress.decompress_mb"
      (float_of_int (Bytes.length payload) /. 1e6);
    replay_crc sp payload;
    replay_randomize sp (scratch ()) (Lazy.force kimages.(k)) ~layout ~fg:false ~seed
  in
  (* compression is set-up work (the bzImage link), timed per image on
     the first few traced operations only *)
  let replay_first () =
    Array.iteri
      (fun k bz ->
        Spans.span ~replay:true sp "compress.compress" (fun () ->
            A.compress (Lazy.force bz) (Lazy.force payloads.(k))))
      bzs
  in
  round_robin ws sp ~seed ~salt:2 ~mem_bytes ~repeat:4 make_vms ~replay_boot
    ~replay_first

(* --- density: 12 contended lupine kaslr/lz4 boots per operation --- *)

let density_guests = 12

let density_setup ~seed:_ sp =
  let ws = A.workspace () in
  let mem_bytes = 64 * mib in
  let n = density_guests in
  Spans.span sp "kernel.build" (fun () -> A.build_kernel ws A.Lupine A.Kaslr);
  Spans.span sp "kernel.link" (fun () ->
      A.link_bzimage ws A.Lupine ~codec:"lz4");
  A.warm_page_cache ws;
  A.set_contention ~disk:1 ~decompress:1;
  let make_vm ~seed = A.bzimage_vm ws A.Lupine ~codec:"lz4" ~mem_bytes ~seed in
  (* boot_contended's own five sequential warm-ups, no recorded run *)
  ignore (A.boot_contended ws ~warmups:5 ~n ~runs:0 ~make_vm);
  let last_makespan = ref 0 in
  let op ~slot:_ =
    let vout, makespan =
      Spans.span sp "harness.boot_contended" (fun () ->
          A.boot_contended ws ~warmups:0 ~n ~runs:1 ~make_vm)
    in
    Spans.count sp "memory.alloc_count" (float_of_int n);
    last_makespan := makespan;
    { vout; items = n; attempted = 1; failures = [] }
  in
  (* the operation's run again, through the event core directly, on
     guests borrowed before it starts *)
  let sched_replay () =
    let arena = A.new_arena ~max_per_size:n () in
    let mems =
      Array.init n (fun _ ->
          Spans.span ~replay:true sp "memory.borrow" (fun () ->
              A.borrow arena ~size:mem_bytes))
    in
    let r =
      Spans.span ~replay:true sp "vclock.sched_run" (fun () ->
          A.sched_boots ws ~make_vm ~mems)
    in
    Spans.count sp "vclock.disk_acquires" (float_of_int r.A.disk_acquires);
    Spans.count sp "vclock.decompress_acquires"
      (float_of_int r.A.decompress_acquires);
    Spans.count sp "vclock.peak_in_use" (float_of_int r.A.peak_in_use);
    (* same seeds, same capacities: the same virtual timeline *)
    if r.A.makespan_ns <> !last_makespan then Spans.count sp "check.mismatch" 1.;
    Array.iter
      (fun b ->
        let sites =
          Spans.span ~replay:true sp "guest.verify" (fun () -> A.verify b)
        in
        Spans.count sp "guest.verify_sites" (float_of_int sites))
      r.A.boots;
    Array.iter
      (fun mem ->
        Spans.count sp "memory.scrub_mb" (float_of_int (A.dirty_bytes mem) /. 1e6);
        Spans.span ~replay:true sp "memory.scrub" (fun () -> A.release arena mem))
      mems
  in
  (* the replay holds [n] more guests while the operation's garbage is
     still live, so it runs on the first few traced operations only; its
     arena dies with it *)
  let replay ~index ~slot:_ =
    if index < alloc_replays then begin
      sched_replay ();
      replay_alloc sp ~size:mem_bytes
    end
  in
  { cycle = 1; op; replay }

(* --- fleet: the serving simulator over calibrated boot costs --- *)

let fleet_requests = 1_000_000
let fleet_cal_runs = 10

let fleet_setup ~seed sp =
  let ws = A.workspace () in
  let p = A.Aws in
  Spans.span sp "kernel.build" (fun () -> A.build_kernel ws p A.Kaslr);
  A.warm_page_cache ws;
  (* calibration uses [--exp fleet]'s fixed per-run seeds: the offered
     load derives from it, and a seed-dependent load would make the
     amount of simulated work depend on the workload seed *)
  let cal_seed i = A.run_seed (i + 1) in
  let cold = Array.init fleet_cal_runs (fun i -> A.fleet_cold ws p ~seed:(cal_seed i)) in
  let base = Spans.span sp "monitor.boot" (fun () -> A.snapshot_boot ws p) in
  let snap =
    Spans.span sp "monitor.snapshot_capture" (fun () -> A.snapshot_capture base)
  in
  let warm =
    Array.init fleet_cal_runs (fun i ->
        A.fleet_warm ws p snap ~seed:(cal_seed i))
  in
  let fault =
    Array.init fleet_cal_runs (fun i ->
        A.fleet_fault ws p ~run:(i + 1) ~seed:(cal_seed i))
  in
  if Spans.enabled sp then
    for _ = 1 to alloc_replays do
      Spans.span ~replay:true sp "monitor.snapshot_restore" (fun () ->
          A.snapshot_restore snap)
    done;
  let cal = { A.cold_ns = cold; warm_ns = warm; fault_ns = fault } in
  let cycle = 4 in
  let sim_seeds = seeds ~seed ~salt:5 (2 * cycle) in
  let sims =
    Array.init cycle (fun i ->
        A.fleet_sim cal
          ~seed:(Int64.to_int sim_seeds.(i))
          ~weather_seed:(Int64.to_int sim_seeds.(cycle + i))
          ~requests:fleet_requests)
  in
  let op ~slot =
    let r = Spans.span sp "fleet.sim" (fun () -> A.fleet_run sims.(slot)) in
    if r.A.completed + r.A.dropped <> r.A.requests then
      failwith
        (Printf.sprintf "fleet: %d completed + %d dropped <> %d requests"
           r.A.completed r.A.dropped r.A.requests);
    Spans.count sp "fleet.hit_rate" r.A.hit_rate;
    Spans.count sp "fleet.evictions" (float_of_int r.A.evictions);
    Spans.count sp "fleet.dropped" (float_of_int r.A.dropped);
    { vout = r.A.vout; items = r.A.requests; attempted = 1; failures = [] }
  in
  let replay ~index:_ ~slot =
    Spans.span ~replay:true sp "fleet.arrivals" (fun () ->
        A.fleet_arrivals sims.(slot))
  in
  { cycle; op; replay }

let all =
  [
    { name = "direct"; setup = direct_setup };
    { name = "bzimage"; setup = bzimage_setup };
    { name = "density"; setup = density_setup };
    { name = "fleet"; setup = fleet_setup };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
