module Config = Imk_kernel.Config
module Vm_config = Imk_monitor.Vm_config
module Ws = Imk_harness.Workspace
module Runner = Imk_harness.Boot_runner
module Guest_mem = Imk_memory.Guest_mem
module Arena = Imk_memory.Arena

(* --- kernel images --- *)

type preset = Lupine | Aws | Ubuntu
type variant = Kaslr | Fgkaslr

let cpreset = function
  | Lupine -> Config.Lupine
  | Aws -> Config.Aws
  | Ubuntu -> Config.Ubuntu

let cvariant = function Kaslr -> Config.Kaslr | Fgkaslr -> Config.Fgkaslr

type workspace = Ws.t

let workspace () = Ws.create ()
let build_kernel ws p v = ignore (Ws.built ws (cpreset p) (cvariant v))

let bz_path ws p ~codec =
  Ws.bzimage_path ws (cpreset p) Config.Kaslr ~codec ~bz:Imk_kernel.Bzimage.Standard

let link_bzimage ws p ~codec = ignore (bz_path ws p ~codec)

let warm_page_cache = Ws.warm_all
let disk_bytes ws path = Imk_storage.Disk.find (Ws.disk ws) path
let vmlinux_bytes ws p v = disk_bytes ws (Ws.vmlinux_path ws (cpreset p) (cvariant v))

(* --- VM configurations --- *)

type vm = Vm_config.t
type rando = Rando_kaslr | Rando_fgkaslr

let direct_vm ws p v rando ~mem_bytes ~seed =
  let preset = cpreset p and variant = cvariant v in
  let rando, kallsyms =
    match rando with
    | Rando_kaslr -> (Vm_config.Rando_kaslr, Vm_config.Kallsyms_eager)
    | Rando_fgkaslr -> (Vm_config.Rando_fgkaslr, Vm_config.Kallsyms_deferred)
  in
  Vm_config.make ~rando ~mem_bytes ~kallsyms
    ~relocs_path:(Some (Ws.relocs_path ws preset variant))
    ~kernel_path:(Ws.vmlinux_path ws preset variant)
    ~kernel_config:(Ws.config ws preset variant)
    ~seed ()

let bzimage_vm ws p ~codec ~mem_bytes ~seed =
  Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr
    ~rando:Vm_config.Rando_kaslr ~mem_bytes ~loader:Vm_config.Loader_stripped
    ~kernel_path:(bz_path ws p ~codec)
    ~kernel_config:(Ws.config ws (cpreset p) Config.Kaslr)
    ~seed ()

let mem_bytes (vm : vm) = vm.Vm_config.mem_bytes

(* --- guest memory --- *)

type mem = Guest_mem.t
type arena = Arena.t

let arena = Ws.arena
let new_arena ~max_per_size () = Arena.create ~max_per_size ()
let borrow a ~size = Arena.borrow a ~size
let release = Arena.release
let arena_stats = Arena.stats
let fresh_mem ~size = Guest_mem.create ~size

let dirty_bytes mem =
  Guest_mem.fold_dirty_ranges mem ~init:0 ~f:(fun acc ~lo ~hi -> acc + hi - lo)

(* --- boots --- *)

type boot = { trace : Imk_vclock.Trace.t; result : Imk_monitor.Vmm.boot_result }

let run_seed = Runner.run_seed
let sequential () = Runner.default_jobs := 1

let boot_once ws ~mem (vm : vm) =
  let trace, result =
    Runner.boot_once ~mem ?plans:(Ws.plans ws) ~seed:vm.Vm_config.seed
      ~cache:(Ws.cache ws) vm
  in
  { trace; result }

let warm_up ws ~make_vm =
  ignore
    (Runner.boot_many ~arena:(Ws.arena ws) ?plans:(Ws.plans ws) ~runs:0
       ~cache:(Ws.cache ws) ~make_vm ())

let boot_vout b =
  let module T = Imk_vclock.Trace in
  let p = b.result.Imk_monitor.Vmm.params in
  let s = b.result.Imk_monitor.Vmm.stats in
  Printf.sprintf "%d[%s]@%x/%x{%d,%d,%d,%d,%d,%d}" (T.total b.trace)
    (String.concat ","
       (List.map (fun (_, ns) -> string_of_int ns) (T.breakdown b.trace)))
    p.Imk_guest.Boot_params.phys_load p.Imk_guest.Boot_params.virt_base
    s.Imk_guest.Runtime.functions_visited s.Imk_guest.Runtime.sites_verified
    s.Imk_guest.Runtime.rodata_verified s.Imk_guest.Runtime.extab_verified
    s.Imk_guest.Runtime.kallsyms_verified s.Imk_guest.Runtime.orc_verified

let verify b =
  (Imk_guest.Runtime.verify_boot b.result.Imk_monitor.Vmm.mem
     b.result.Imk_monitor.Vmm.params)
    .Imk_guest.Runtime.sites_verified


let describe_failure e =
  match Imk_fault.Failure.classify e with
  | Some f -> Imk_fault.Failure.describe f
  | None -> Printexc.to_string e

(* --- contended boots --- *)

let set_contention ~disk ~decompress =
  Runner.contend_capacities := (disk, decompress)

(* exact float text, so a digest sees every bit of a summary *)
let summary_vout (s : Imk_util.Stats.summary) =
  Printf.sprintf "%d:%h:%h:%h:%h:%h:%h:%h" s.n s.mean s.min s.max s.stddev
    s.p50 s.p90 s.p99

let phase_vout (s : Runner.phase_stats) =
  String.concat "|"
    (List.map summary_vout
       [ s.in_monitor; s.bootstrap; s.decompression; s.linux_boot; s.total ])

let boot_contended ws ~warmups ~n ~runs ~make_vm =
  let s =
    Runner.boot_contended ~warmups ?plans:(Ws.plans ws) ~n ~runs
      ~cache:(Ws.cache ws) ~make_vm ()
  in
  ( phase_vout s.Runner.per_boot ^ "#" ^ summary_vout s.Runner.makespan,
    int_of_float s.Runner.makespan.Imk_util.Stats.mean )

let contend_seed ~slot = Runner.contend_seed ~run:1 ~slot

type sched_run = {
  makespan_ns : int;
  boots : boot array;
  disk_acquires : int;
  decompress_acquires : int;
  peak_in_use : int;
}

let sched_boots ws ~make_vm ~mems =
  let module S = Imk_vclock.Sched in
  let module V = Imk_vclock in
  let disk_capacity, decompress_slots = !Runner.contend_capacities in
  let cache = Imk_storage.Page_cache.clone (Ws.cache ws) in
  let plans = Ws.plans ws in
  let sched = S.create ~disk_capacity ~decompress_slots () in
  let results = Array.make (Array.length mems) None in
  let traces =
    Array.mapi
      (fun slot mem ->
        let tl = S.timeline sched in
        let trace = V.Trace.create (S.timeline_clock tl) in
        let seed = contend_seed ~slot in
        let jitter = Imk_entropy.Prng.create ~seed:(Int64.add seed 7919L) in
        let ch = V.Charge.create ~jitter ~sched:tl trace V.Cost_model.default in
        S.spawn sched tl (fun () ->
            let vm = { (make_vm ~seed) with Vm_config.seed } in
            results.(slot) <- Some (Imk_monitor.Vmm.boot ~mem ?plans ch cache vm));
        trace)
      mems
  in
  S.run sched;
  let disk = S.resource_stats sched S.Disk in
  let dec = S.resource_stats sched S.Decompress in
  {
    makespan_ns = S.now sched;
    boots =
      Array.mapi
        (fun i trace ->
          match results.(i) with
          | Some result -> { trace; result }
          | None -> invalid_arg "sched_boots: a fiber did not finish")
        traces;
    disk_acquires = disk.S.acquires;
    decompress_acquires = dec.S.acquires;
    peak_in_use = max disk.S.peak_in_use dec.S.peak_in_use;
  }

(* --- per-layer replays --- *)

module Plan_cache = Imk_monitor.Plan_cache

let plan_build_elf b = ignore (Plan_cache.build_elf_plan b)


let plan_stats ws =
  match Ws.plans ws with Some t -> Plan_cache.stats t | None -> (0, 0)

type image = { plan : Plan_cache.elf_plan; relocs : Imk_elf.Relocation.table }

let image ws p v =
  let preset = cpreset p and variant = cvariant v in
  {
    plan = Plan_cache.build_elf_plan (vmlinux_bytes ws p v);
    relocs =
      Imk_elf.Relocation.decode (disk_bytes ws (Ws.relocs_path ws preset variant));
  }

type shuffle = Imk_randomize.Fgkaslr.plan

let fgkaslr_plan img ~seed =
  Imk_randomize.Fgkaslr.make_plan
    (Imk_entropy.Prng.create ~seed)
    ~sections:img.plan.Plan_cache.fn_sections ~text_base:Imk_memory.Addr.link_base

let place mem img ~phys_load shuffle =
  Imk_randomize.Loadelf.place_list mem img.plan.Plan_cache.alloc ~phys_load
    ~plan:shuffle

let kaslr_apply mem img ~phys_load ~virt_base shuffle =
  let link_base = Imk_memory.Addr.link_base in
  let displace va =
    match shuffle with
    | Some p -> Imk_randomize.Fgkaslr.displace p va
    | None -> va
  in
  let delta = virt_base - link_base in
  Imk_randomize.Kaslr.apply ~mem ~relocs:img.relocs
    ~site_pa:(fun va -> displace va - link_base + phys_load)
    ~new_va_of:(fun va -> Imk_randomize.Kaslr.delta_new_va ~delta (displace va))

let layout b =
  let p = b.result.Imk_monitor.Vmm.params in
  (p.Imk_guest.Boot_params.phys_load, p.Imk_guest.Boot_params.virt_base)

type bz = {
  bytes : bytes;
  bplan : Plan_cache.bz_plan;
  hooks : Imk_bootstrap.Loader.hooks;
  kconfig : Config.t;
  codec : Imk_compress.Codec.t;
}

let bz ws p ~codec =
  let path = bz_path ws p ~codec in
  let bytes = disk_bytes ws path in
  let plans = Ws.plans ws in
  let bplan =
    match plans with
    | Some t -> Plan_cache.bz_plan t ~path bytes
    | None -> Plan_cache.build_bz_plan bytes
  in
  {
    bytes;
    bplan;
    hooks = Plan_cache.loader_hooks plans bplan;
    kconfig = Ws.config ws (cpreset p) Config.Kaslr;
    codec = Imk_compress.Registry.find codec;
  }

let plan_build_bz b = ignore (Plan_cache.build_bz_plan b.bytes)

let loader_run mem b ~seed =
  let module L = Imk_bootstrap.Loader in
  let module V = Imk_vclock in
  Guest_mem.write_bytes mem ~pa:Imk_monitor.Vmm.staging_pa b.bytes;
  let trace = V.Trace.create (V.Clock.create ()) in
  let ch = V.Charge.create trace V.Cost_model.default in
  ignore
    (L.run ~hooks:b.hooks ch mem ~bzimage:b.bplan.Plan_cache.bz
       ~staging_pa:Imk_monitor.Vmm.staging_pa ~config:b.kconfig
       ~rando:L.Loader_kaslr ~policy:L.stripped_policy
       ~rng:(Imk_entropy.Prng.create ~seed:(Int64.add seed 101L)))

let payload_len b =
  let z = b.bplan.Plan_cache.bz in
  z.Imk_kernel.Bzimage.vmlinux_len + z.Imk_kernel.Bzimage.relocs_len

let decompress_into b dst =
  ignore
    (b.codec.Imk_compress.Codec.decompress_into
       b.bplan.Plan_cache.bz.Imk_kernel.Bzimage.payload ~dst ~dst_off:0)

let compress b src = ignore (b.codec.Imk_compress.Codec.compress src)
let crc32 b = Imk_util.Crc.crc32 b 0 (Bytes.length b)

(* --- fleet --- *)

module Sup = Imk_harness.Boot_supervisor
module Inject = Imk_fault.Inject

type calibration = { cold_ns : int array; warm_ns : int array; fault_ns : int array }
type snapshot = Imk_monitor.Snapshot.t

let fleet_mem = 64 * 1024 * 1024
let fleet_seams = [ Inject.Transient_init 1; Inject.Truncate_relocs; Inject.Flip_relocs_magic ]
let snap_path = "fleet.snapshot"

let fleet_files ws p =
  let k = Ws.vmlinux_path ws (cpreset p) Config.Kaslr in
  let r = Ws.relocs_path ws (cpreset p) Config.Kaslr in
  (k, r, [ (k, disk_bytes ws k); (r, disk_bytes ws r) ])

let fleet_vm ws p ~seed =
  let k, r, _ = fleet_files ws p in
  Vm_config.make ~rando:Vm_config.Rando_kaslr ~mem_bytes:fleet_mem
    ~relocs_path:(Some r) ~kernel_path:k
    ~kernel_config:(Ws.config ws (cpreset p) Config.Kaslr)
    ~seed ()

(* a run-private disk and page cache holding [files], warmed *)
let private_cache files =
  let disk = Imk_storage.Disk.create () in
  List.iter (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b) files;
  let cache = Imk_storage.Page_cache.create disk in
  List.iter (fun (n, _) -> Imk_storage.Page_cache.warm cache n) files;
  (disk, cache)

let supervised_total what (rep : Sup.report) =
  match rep.Sup.outcome with
  | Ok _ -> rep.Sup.total_ns
  | Error f -> failwith (what ^ " failed: " ^ Imk_fault.Failure.describe f)

let fleet_cold ws p ~seed =
  let _, _, files = fleet_files ws p in
  let ctx = Sup.plain_ctx ?plans:(Ws.plans ws) (snd (private_cache files)) in
  supervised_total "fleet cold calibration boot"
    (Sup.supervise ~arena:(Ws.arena ws) ~seed ~ctx (fleet_vm ws p ~seed))

let snapshot_boot ws p =
  let module V = Imk_vclock in
  let trace = V.Trace.create (V.Clock.create ()) in
  let ch = V.Charge.create trace V.Cost_model.default in
  let result =
    Imk_monitor.Vmm.boot ?plans:(Ws.plans ws) ch (Ws.cache ws)
      (fleet_vm ws p ~seed:404L)
  in
  { trace; result }

let snapshot_capture b = Imk_monitor.Snapshot.capture b.result

let snapshot_restore snap =
  let module V = Imk_vclock in
  let trace = V.Trace.create (V.Clock.create ()) in
  let ch = V.Charge.create trace V.Cost_model.default in
  ignore (Imk_monitor.Snapshot.restore ch snap ~working_set_pages:2048)

let fleet_warm ws p snap ~seed =
  let _, _, files = fleet_files ws p in
  let blob = Imk_monitor.Snapshot.serialize snap in
  let ctx =
    Sup.plain_ctx ?plans:(Ws.plans ws)
      (snd (private_cache ((snap_path, blob) :: files)))
  in
  supervised_total "fleet warm calibration restore"
    (Sup.supervise_snapshot ~arena:(Ws.arena ws) ~seed ~ctx
       ~snapshot_path:snap_path ~working_set_pages:2048 (fleet_vm ws p ~seed))

let fleet_fault ws p ~run ~seed =
  let k, r, files = fleet_files ws p in
  let kind = List.nth fleet_seams ((run - 1) mod List.length fleet_seams) in
  let disk, cache = private_cache files in
  let inject =
    (Inject.arm kind ~seed:((131 * run) + 7) ~disk ~kernel_path:k
       ~relocs_path:r ())
      .Inject.inject
  in
  let ctx = { Sup.cache; inject; plans = Ws.plans ws } in
  let rep = Sup.supervise ~arena:(Ws.arena ws) ~seed ~ctx (fleet_vm ws p ~seed) in
  (match rep.Sup.outcome with
  | Ok _ when rep.Sup.events = [] ->
      failwith ("fleet fault calibration: silent success under " ^ Inject.name kind)
  | _ -> ());
  rep.Sup.total_ns

type fleet_report = {
  requests : int;
  completed : int;
  dropped : int;
  hit_rate : float;
  evictions : int;
  vout : string;
}

type sim = Imk_fleet.Sim.config

let fleet_sim cal ~seed ~weather_seed ~requests =
  let servers = 4 in
  let mean a =
    Imk_util.Stats.mean (List.map float_of_int (Array.to_list a))
  in
  (* the offered load [--exp fleet] gives its bursty cells: 85% of
     server capacity at an 80%-warm service mix, bursts 2.5x, lulls 0.5x *)
  let m_svc = (0.8 *. mean cal.warm_ns) +. (0.2 *. mean cal.cold_ns) in
  let lambda = 0.85 *. float_of_int servers /. (m_svc /. 1e9) in
  {
    Imk_fleet.Sim.arrival =
      Imk_fleet.Arrival.Bursty
        {
          base_per_s = lambda *. 0.5;
          burst_per_s = lambda *. 2.5;
          burst_len = 64;
          period = 256;
        };
    seed;
    requests;
    servers;
    pool_capacity = 2;
    queue_capacity = 16;
    cold_ns = cal.cold_ns;
    warm_ns = cal.warm_ns;
    fault_ns = cal.fault_ns;
    weather = Some (Imk_fault.Weather.make Imk_fault.Weather.Storm ~seed:weather_seed);
    seams = fleet_seams;
  }

let fleet_run (c : sim) =
  let module R = Imk_fleet.Sim in
  let r = R.run c in
  let ints =
    [
      r.R.requests; r.R.completed; r.R.dropped; r.R.cold_starts;
      r.R.warm_starts; r.R.fault_starts; r.R.pool_hits; r.R.pool_misses;
      r.R.pool_evictions; r.R.distinct_layouts; r.R.makespan_ns;
    ]
  in
  {
    requests = r.R.requests;
    completed = r.R.completed;
    dropped = r.R.dropped;
    hit_rate = r.R.hit_rate;
    evictions = r.R.pool_evictions;
    vout =
      String.concat ","
        (List.map string_of_int ints
        @ Printf.sprintf "%h" r.R.hit_rate
          :: List.map summary_vout
               [
                 r.R.sojourn; r.R.cold_service; r.R.warm_service;
                 r.R.fault_service; r.R.queue_wait; r.R.queue_depth;
               ]);
  }

let fleet_arrivals (c : sim) =
  ignore
    (Imk_fleet.Arrival.arrivals c.Imk_fleet.Sim.arrival ~seed:c.Imk_fleet.Sim.seed
       ~n:c.Imk_fleet.Sim.requests)

(* --- JSON --- *)

type json = Imk_util.Minjson.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json = Imk_util.Minjson.parse
