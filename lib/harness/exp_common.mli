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
  unit ->
  seed:int64 ->
  Imk_monitor.Vm_config.t
(** Self-randomizing bzImage boot of the workspace's [codec]/[bz]
    variant: stripped loader, 256 MiB, Firecracker by default. *)

val boot_many :
  ?jobs:int ->
  ?cold:bool ->
  Workspace.t ->
  runs:int ->
  (seed:int64 -> Imk_monitor.Vm_config.t) ->
  Boot_runner.phase_stats
(** {!Boot_runner.boot_many} over the workspace's arena, plan cache and
    page cache. *)

val boot_once :
  Workspace.t ->
  seed:int64 ->
  Imk_monitor.Vm_config.t ->
  Imk_vclock.Trace.t * Imk_monitor.Vmm.boot_result
(** One unjittered {!Boot_runner.boot_once} over the workspace's plan
    cache and page cache. *)
