(** Helpers shared by the experiment families ({!Figures},
    {!Ablations}, {!Campaigns}). *)

val presets : Imk_kernel.Config.preset list
val pname : Imk_kernel.Config.preset -> string

val msf : Imk_util.Stats.summary -> float
(** {!Boot_runner.ms}: a summary's mean in ms. *)

val msv : float -> string
(** One-decimal ms cell. *)

val msn : float -> string
(** One-decimal ms cell from float nanoseconds. *)

val min_max_cells : Boot_runner.phase_stats -> string list
(** The "min"/"max" cells of a boot_many table row, straight from the
    raw float nanoseconds (no truncation). *)

val pct : float -> float -> float
(** [pct a b]: percent change of [a] relative to [b]. *)

val boot_row : string -> Boot_runner.phase_stats -> Experiment.boot_row
(** The telemetry row for one boot_many campaign; phases that never ran
    (n = 0) are dropped, not zero-padded. *)

val labelled_phases :
  (string * int) list list -> (string * Imk_util.Stats.summary) list
(** Telemetry phases from labelled nanosecond intervals (one list per
    run or comparison): one phase per label in first-seen order, whose
    samples are each item's sum for that label, from the items that
    carry it. *)

val direct_vm :
  Workspace.t ->
  Imk_kernel.Config.preset ->
  Imk_kernel.Config.variant ->
  rando:Imk_monitor.Vm_config.rando_mode ->
  ?kallsyms:Imk_monitor.Vm_config.kallsyms_policy ->
  ?profile:Imk_monitor.Profiles.t ->
  ?mem:int ->
  unit ->
  seed:int64 ->
  Imk_monitor.Vm_config.t
(** In-monitor direct boot of the workspace's vmlinux (relocs attached
    unless [rando] is off); 256 MiB and Firecracker by default. *)

val bz_vm :
  Workspace.t ->
  Imk_kernel.Config.preset ->
  Imk_kernel.Config.variant ->
  codec:string ->
  bz:Imk_kernel.Bzimage.variant ->
  rando:Imk_monitor.Vm_config.rando_mode ->
  ?profile:Imk_monitor.Profiles.t ->
  ?mem:int ->
  unit ->
  seed:int64 ->
  Imk_monitor.Vm_config.t
(** Self-randomizing bzImage boot of the workspace's [codec]/[bz]
    variant: stripped loader; 256 MiB and Firecracker by default. *)

val boot_many :
  ?cold:bool ->
  Workspace.t ->
  runs:int ->
  (seed:int64 -> Imk_monitor.Vm_config.t) ->
  Boot_runner.phase_stats
(** {!Boot_runner.boot_many} over the workspace's arena, plan cache and
    page cache: one series, in order, on the calling domain. *)

val boot_once :
  Workspace.t ->
  seed:int64 ->
  Imk_monitor.Vm_config.t ->
  Imk_vclock.Trace.t * Imk_monitor.Vmm.boot_result
(** One unjittered {!Boot_runner.boot_once} over the workspace's plan
    cache and page cache. *)

val fan_out : tasks:int -> (worker:int -> int -> 'a) -> 'a array
(** {!Imk_util.Par.map_tasks} at the ambient [--jobs]
    ({!Boot_runner.default_jobs}, read nowhere else): the one level of
    parallelism. Each task must own its state (a [Workspace.clone_fresh]
    workspace, a {!run_ctx}); results come back in task order; [worker]
    indexes per-worker state. *)

(** {1 Supervised-campaign kit}

    What the gated campaigns (faults, resilience, fleet) share: one
    swept boot path, run-private disks and caches, the reference
    snapshot, calibration and the report tally. *)

type cell = {
  path : string;  (** boot path label, e.g. ["direct/kaslr"] *)
  files : (string * bytes) list;  (** pristine disk files, by name *)
  kernel : string;  (** kernel image path, the fault target *)
  relocs : string option;  (** relocation table path, if the path has one *)
  make_vm : seed:int64 -> Imk_monitor.Vm_config.t;
}

val direct_cell : Workspace.t -> Imk_kernel.Config.preset -> cell
(** The preset's KASLR vmlinux + relocs, booted in-monitor in 64 MiB
    ([path] ["direct/kaslr"]). Builds the images on the calling domain. *)

val bz_cell : Workspace.t -> Imk_kernel.Config.preset -> cell
(** The preset's KASLR lz4 bzImage, self-randomizing in 64 MiB ([path]
    ["bz/lz4/kaslr"]). Links the image on the calling domain. *)

val run_ctx :
  ?warm:bool ->
  ?fault:Imk_fault.Inject.kind * int ->
  ?extra:(string * bytes) list ->
  Workspace.t ->
  cell ->
  Boot_supervisor.ctx
(** One run's private context: a fresh disk holding the cell's files and
    [extra], [fault] = [(kind, seed)] armed against that disk only, and
    a fresh page cache over it, with every file warmed when [warm]
    (default false). The workspace's plan cache is shared. *)

val snapshot_blob : Workspace.t -> cell -> bytes
(** The campaign's reference snapshot: a seed-404 boot of the cell on a
    fresh linear clock over the workspace cache, captured and
    serialized. *)

val total_exn : string -> Boot_supervisor.report -> int
(** A calibration boot's [total_ns]; [Invalid_argument] with
    ["<what>: <failure>"] if it failed. *)

type tally = {
  armed : int;  (** runs with a fault armed *)
  ok : int;  (** verify-green outcomes *)
  recovered : int;  (** green with at least one recovery event *)
  silent : int;  (** armed, green and no event: a soundness violation *)
  failed : int;  (** typed failures *)
  retries : int;  (** [Retried] events *)
  kinds : string list;  (** failure kind names, first-seen order *)
}

val tally : (Boot_supervisor.report * bool) array -> tally
(** Count supervised reports, each paired with whether its run had a
    fault armed. *)
