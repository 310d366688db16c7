(** The benchmark's only door into the program.

    Every call the benchmark makes into [lib/] goes through this module,
    and nowhere else in [perfbench/] names an [Imk_*] library. Each value
    below says which public functions it calls, so an API migration in
    the program is a one-place, behaviour-neutral edit here.

    Known upcoming signature changes (ROADMAP open items):
    - item 2 (demand-paged guest memory) deletes [Imk_memory.Arena] and
      [Arena.with_buffer]: {!arena}, {!new_arena}, {!borrow}, {!release},
      {!arena_stats} and {!warm_up} change, and {!dirty_bytes} may
      become a chunk count;
    - item 3 (one run configuration) moves [Boot_runner.default_jobs] and
      [Boot_runner.contend_capacities] into a run configuration carried
      by [Workspace]: {!sequential} and {!set_contention} change. *)

(** {1 Kernel images} *)

type preset = Lupine | Aws | Ubuntu
type variant = Kaslr | Fgkaslr

type workspace

val workspace : unit -> workspace
(** [Imk_harness.Workspace.create ()]: full-size presets (scale 16, no
    function override) with the shared plan cache on, as [--exp fig9]
    runs. *)

val build_kernel : workspace -> preset -> variant -> unit
(** [Workspace.built]: builds the image the first time, registering its
    vmlinux and relocs on the workspace disk. *)

val link_bzimage : workspace -> preset -> codec:string -> unit
(** [Workspace.bzimage_path ~bz:Standard] of the preset's KASLR kernel:
    links and compresses the bzImage the first time. *)

val warm_page_cache : workspace -> unit
(** [Workspace.warm_all]: marks every registered image cached. *)

val vmlinux_bytes : workspace -> preset -> variant -> bytes
(** The built vmlinux, read with [Imk_storage.Disk.find] from
    [Workspace.disk] at [Workspace.vmlinux_path]. *)

(** {1 VM configurations} *)

type vm

type rando = Rando_kaslr | Rando_fgkaslr

val direct_vm :
  workspace -> preset -> variant -> rando -> mem_bytes:int -> seed:int64 -> vm
(** [Imk_monitor.Vm_config.make] for an in-monitor direct boot of the
    vmlinux with its relocs, as [--exp fig9]'s direct cells build it:
    FGKASLR defers kallsyms, KASLR fixes them eagerly. *)

val bzimage_vm :
  workspace -> preset -> codec:string -> mem_bytes:int -> seed:int64 -> vm
(** [Vm_config.make] for a self-randomizing KASLR bzImage boot (flavor
    in-monitor-fgkaslr, stripped loader), as [--exp fig9]'s lz4 cells
    build it. *)

val mem_bytes : vm -> int

(** {1 Guest memory} *)

type mem
type arena

val arena : workspace -> arena
(** [Workspace.arena]. *)

val new_arena : max_per_size:int -> unit -> arena
(** [Imk_memory.Arena.create ~max_per_size ()]. *)

val borrow : arena -> size:int -> mem
(** [Arena.borrow]. *)

val release : arena -> mem -> unit
(** [Arena.release]: scrubs the dirty ranges and pools the buffer. *)

val arena_stats : arena -> int * int
(** [Arena.stats]: [(hits, misses)]. *)

val fresh_mem : size:int -> mem
(** [Imk_memory.Guest_mem.create]. *)

val dirty_bytes : mem -> int
(** Bytes written since the last scrub, summed with
    [Guest_mem.fold_dirty_ranges]. *)

(** {1 Boots} *)

type boot
(** One finished boot: its virtual trace and the booted guest. *)

val run_seed : int -> int64
(** [Boot_runner.run_seed]: the seed of recorded run [i]. *)

val sequential : unit -> unit
(** Sets [Imk_harness.Boot_runner.default_jobs] to 1: no domain fan-out. *)

val boot_once : workspace -> mem:mem -> vm -> boot
(** [Boot_runner.boot_once ~mem ?plans ~seed ~cache]: one jittered boot
    in caller-owned memory, seeded by the config's seed, against the
    workspace's page cache and plan cache. The boot itself runs
    [Vmm.boot], which ends in the guest's own [verify_boot]; a botched
    layout raises. *)

val warm_up : workspace -> make_vm:(seed:int64 -> vm) -> unit
(** [Boot_runner.boot_many ~arena ?plans ~runs:0 ~cache ~make_vm]: the
    five unrecorded warm-up boots [boot_many] makes before it records,
    each in a guest borrowed from the workspace arena
    ([Arena.with_buffer]), against the workspace's page cache and plan
    cache. *)

val boot_vout : boot -> string
(** The boot's virtual output, canonically printed: trace total, the
    four-phase breakdown ([Imk_vclock.Trace.total]/[breakdown]), the
    layout and the guest's verify counts. *)

val verify : boot -> int
(** [Imk_guest.Runtime.verify_boot] on the booted guest again; returns
    the relocation sites it checked. *)

val describe_failure : exn -> string
(** [Imk_fault.Failure.classify]/[describe] when the exception is a
    typed boot failure ([Runtime.Panic], [Vmm.Boot_error], ...), else
    [Printexc.to_string]. *)

(** {1 Contended boots on one event timeline} *)

val set_contention : disk:int -> decompress:int -> unit
(** Sets [Boot_runner.contend_capacities]. *)

val boot_contended :
  workspace ->
  warmups:int ->
  n:int ->
  runs:int ->
  make_vm:(seed:int64 -> vm) ->
  string * int
(** [Boot_runner.boot_contended ?plans ~n ~runs ~cache ~make_vm]; returns
    the canonical virtual output (every field of the per-boot phase
    summaries and of the makespan summary) and the mean makespan in ns
    (0 when [runs = 0]). Each guest is a fresh [Guest_mem.create]. *)

type sched_run = {
  makespan_ns : int;
  boots : boot array;
  disk_acquires : int;
  decompress_acquires : int;
  peak_in_use : int;  (** max over both resource classes *)
}

val sched_boots :
  workspace -> make_vm:(seed:int64 -> vm) -> mems:mem array -> sched_run
(** The contended run [boot_contended] makes, driven here through
    [Imk_vclock.Sched.create]/[timeline]/[spawn]/[run] with one
    [Vmm.boot ~mem] fiber per pre-allocated guest, seeded with
    [Boot_runner.contend_seed ~run:1], against a [Page_cache.clone] of the workspace cache
    and the capacities last given to {!set_contention}. Counters come
    from [Sched.resource_stats]. *)

(** {1 Per-layer replays}

    The calls below repeat one step of a boot on the workload's own
    inputs, purely so the benchmark can time that layer. *)

val plan_build_elf : bytes -> unit
(** [Imk_monitor.Plan_cache.build_elf_plan]. *)

val plan_stats : workspace -> int * int
(** [Plan_cache.stats] of the workspace cache: [(hits, builds)]. *)

type image
(** A vmlinux prepared for the randomization replays: its boot plan and
    decoded relocation table. *)

val image : workspace -> preset -> variant -> image
(** [Plan_cache.build_elf_plan] and [Imk_elf.Relocation.decode] of the
    workspace's vmlinux and relocs. *)

type shuffle

val fgkaslr_plan : image -> seed:int64 -> shuffle
(** [Imk_randomize.Fgkaslr.make_plan] over the image's function
    sections. *)

val place : mem -> image -> phys_load:int -> shuffle option -> unit
(** [Imk_randomize.Loadelf.place_list]. *)

val kaslr_apply :
  mem -> image -> phys_load:int -> virt_base:int -> shuffle option -> unit
(** [Imk_randomize.Kaslr.apply] with the site and target maps
    [Vmm.boot] builds ([Fgkaslr.displace], [Kaslr.delta_new_va]). *)

val layout : boot -> int * int
(** [(phys_load, virt_base)] the boot chose. *)

type bz

val bz : workspace -> preset -> codec:string -> bz
(** The bzImage's cached boot plan ([Plan_cache.bz_plan]) and the
    kernel config it boots with. *)

val plan_build_bz : bz -> unit
(** [Plan_cache.build_bz_plan] of the bzImage's bytes. *)

val loader_run : mem -> bz -> seed:int64 -> unit
(** Stages the bzImage at [Vmm.staging_pa] ([Guest_mem.write_bytes]) and
    runs [Imk_bootstrap.Loader.run] on it with the plan cache's
    [loader_hooks], the stripped policy and the guest rng a boot with
    [seed] uses. *)

val payload_len : bz -> int
(** Uncompressed payload bytes (vmlinux and relocs). *)

val decompress_into : bz -> bytes -> unit
(** [Imk_compress.Codec.decompress_into] of the payload, through the
    codec [Imk_compress.Registry.find] names. *)

val compress : bz -> bytes -> unit
(** The codec's [compress] over the given uncompressed payload. *)

val crc32 : bytes -> int
(** [Imk_util.Crc.crc32] over all of the bytes. *)

(** {1 Fleet} *)

type calibration = {
  cold_ns : int array;
  warm_ns : int array;
  fault_ns : int array;
}

type snapshot

val fleet_cold : workspace -> preset -> seed:int64 -> int
(** One supervised cold boot ([Boot_supervisor.supervise ~arena] on a
    run-private warmed cache, 64 MiB, KASLR), as [--exp fleet]
    calibrates; returns its virtual total. Raises [Failure] when the
    boot fails. *)

val snapshot_boot : workspace -> preset -> boot
(** The boot a snapshot is captured from: [Vmm.boot] with seed 404 on
    the workspace cache, as [--exp fleet] does. *)

val snapshot_capture : boot -> snapshot
(** [Imk_monitor.Snapshot.capture]. *)

val snapshot_restore : snapshot -> unit
(** [Snapshot.restore ~working_set_pages:2048] into a fresh guest. *)

val fleet_warm :
  workspace -> preset -> snapshot -> seed:int64 -> int
(** One supervised snapshot restore ([Snapshot.serialize], then
    [Boot_supervisor.supervise_snapshot]); virtual total. Raises
    [Failure] when it fails. *)

val fleet_fault : workspace -> preset -> run:int -> seed:int64 -> int
(** One supervised boot with an armed fault ([Imk_fault.Inject.arm];
    [run] cycles transient-init, truncated relocs and a flipped relocs
    magic, as [--exp fleet] does); virtual total, recovery included.
    Raises [Failure] on a silent success: an armed fault must surface. *)

type fleet_report = {
  requests : int;
  completed : int;
  dropped : int;
  hit_rate : float;
  evictions : int;
  vout : string;  (** every report field, canonically printed *)
}

type sim

val fleet_sim :
  calibration -> seed:int -> weather_seed:int -> requests:int -> sim
(** The [Imk_fleet.Sim.config] of one [--exp fleet] bursty cell under
    storm weather ([Imk_fault.Weather.make Storm]): 4 servers, pool 2,
    queue 16, offered load sized from the calibration as [--exp fleet]
    sizes it. *)

val fleet_run : sim -> fleet_report
(** [Imk_fleet.Sim.run]. *)

val fleet_arrivals : sim -> unit
(** [Imk_fleet.Arrival.arrivals] of the config's whole request stream. *)

(** {1 JSON} *)

type json = Imk_util.Minjson.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> json
(** [Imk_util.Minjson.parse]. *)
