(* Helpers shared by the experiment families (Figures, Ablations,
   Campaigns): cell formatting, telemetry rows, VM configs over the
   workspace's images, and the workspace-plumbed boot entry points. *)
open Imk_kernel
open Imk_monitor
open Experiment

let presets = Config.all_presets
let pname = Config.preset_name
let msf = Boot_runner.ms
let msv f = Printf.sprintf "%.1f" f
let msn ns = msv (Imk_util.Units.ns_float_to_ms ns)

(* the "min"/"max" cells of a boot_many table row, shared by every
   experiment that renders them: the summary's raw float nanoseconds go
   straight through [ns_float_to_ms] — an int_of_float round-trip here
   (an old bug, copy-pasted three times) truncated toward zero and
   re-lost the sub-ns precision the schema-2 telemetry work preserved *)
let min_max_cells (s : Boot_runner.phase_stats) =
  [
    msn s.Boot_runner.total.Imk_util.Stats.min;
    msn s.Boot_runner.total.Imk_util.Stats.max;
  ]
let pct a b = Imk_util.Stats.pct_change b a (* change of a relative to b *)

(* the telemetry row for one boot_many campaign: the raw nanosecond
   summaries, phases that never ran (n = 0) dropped rather than padded
   with fabricated zeros *)
let boot_row label (s : Boot_runner.phase_stats) =
  {
    label;
    total = s.Boot_runner.total;
    phases =
      List.filter
        (fun (_, sum) -> sum.Imk_util.Stats.n > 0)
        [
          ("in-monitor", s.Boot_runner.in_monitor);
          ("bootstrap", s.Boot_runner.bootstrap);
          ("decompression", s.Boot_runner.decompression);
          ("linux-boot", s.Boot_runner.linux_boot);
        ];
  }

let direct_vm ws preset variant ~rando ?(kallsyms = Vm_config.Kallsyms_eager)
    ?(profile = Profiles.firecracker) ?(mem = 256 * 1024 * 1024) () ~seed =
  let need_relocs = rando <> Vm_config.Rando_off in
  Vm_config.make ~rando ~profile ~mem_bytes:mem ~kallsyms
    ~relocs_path:
      (if need_relocs then Some (Workspace.relocs_path ws preset variant)
       else None)
    ~kernel_path:(Workspace.vmlinux_path ws preset variant)
    ~kernel_config:(Workspace.config ws preset variant)
    ~seed ()

let bz_vm ws preset variant ~codec ~bz ~rando ?(profile = Profiles.firecracker)
    () ~seed =
  let path = Workspace.bzimage_path ws preset variant ~codec ~bz in
  Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr ~rando ~profile
    ~mem_bytes:(256 * 1024 * 1024) ~loader:Vm_config.Loader_stripped
    ~kernel_path:path
    ~kernel_config:(Workspace.config ws preset variant)
    ~seed ()


(* every measured boot of an experiment goes through the workspace's
   arena, plan cache and page cache *)
let boot_many ?jobs ?cold ws ~runs make_vm =
  Boot_runner.boot_many ?jobs ?cold ~arena:(Workspace.arena ws) ~runs
    ?plans:(Workspace.plans ws) ~cache:(Workspace.cache ws) ~make_vm ()

let boot_once ws ~seed vm =
  Boot_runner.boot_once ~jitter:false ~seed ?plans:(Workspace.plans ws)
    ~cache:(Workspace.cache ws) vm
