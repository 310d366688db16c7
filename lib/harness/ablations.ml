(* Ablations of the paper's design choices (§4.3, §6, §7): kallsyms and
   ORC fixup policies, page sharing, re-randomization, zygote pools,
   unikernels and the device model. *)
open Imk_kernel
open Imk_monitor
open Experiment
open Exp_common

(* a single measured quantity (already in ns) as a one-sample row *)
let scalar_row label ns = { label; total = Imk_util.Stats.summarize [ ns ]; phases = [] }

let ablation_kallsyms { runs; _ } ws =
  let table =
    Imk_util.Table.create
      ~headers:[ "policy"; "boot ms"; "first-lookup ms"; "boot overhead vs deferred" ]
  in
  let boot policy =
    Workspace.warm_all ws;
    let make_vm =
      direct_vm ws Config.Aws Config.Fgkaslr ~rando:Vm_config.Rando_fgkaslr
        ~kallsyms:policy ()
    in
    boot_many ws ~runs make_vm
  in
  let eager = boot Vm_config.Kallsyms_eager in
  let deferred = boot Vm_config.Kallsyms_deferred in
  (* time-to-first-lookup under the deferred policy *)
  let first_lookup_ms =
    Workspace.warm_all ws;
    let vm =
      direct_vm ws Config.Aws Config.Fgkaslr ~rando:Vm_config.Rando_fgkaslr
        ~kallsyms:Vm_config.Kallsyms_deferred () ~seed:61L
    in
    let trace, result =
      boot_once ws ~seed:61L vm
    in
    let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
    let before = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) in
    let state = Imk_guest.Kallsyms.create () in
    let _ =
      Imk_guest.Kallsyms.read_for_user state ch result.Vmm.mem result.Vmm.params
        ~privileged:true ~index:0
    in
    Imk_util.Units.ns_to_ms
      (Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) - before)
  in
  let e = msf eager.Boot_runner.total and d = msf deferred.Boot_runner.total in
  Imk_util.Table.add_row table
    [ "eager"; msv e; "0.0"; Printf.sprintf "+%.1f ms (+%.0f%%)" (e -. d) (pct e d) ];
  Imk_util.Table.add_row table
    [ "deferred"; msv d; msv first_lookup_ms; "baseline" ];
  {
    title = "Ablation: eager vs deferred kallsyms fixup (§4.3)";
    table;
    telemetry = [ boot_row "eager" eager; boot_row "deferred" deferred ];
    notes =
      [
        Printf.sprintf
          "eager fixup adds %.0f%% to fgkaslr boot (paper: kallsyms ≈ 22%% of boot); \
           deferred pays %.1f ms at first /proc/kallsyms access"
          (pct e d) first_lookup_ms;
      ];
    checks = [];
  }

let ablation_orc { runs; _ } ws =
  (* a special ORC-enabled fgkaslr build *)
  let base = Workspace.config ws Config.Aws Config.Fgkaslr in
  let cfg = { base with Config.unwinder_orc = true; name = "aws-fgkaslr-orc" } in
  let built = Image.build cfg in
  let disk = Workspace.disk ws in
  Imk_storage.Disk.add disk ~name:"aws-fgkaslr-orc.vmlinux" built.Image.vmlinux;
  Imk_storage.Disk.add disk ~name:"aws-fgkaslr-orc.relocs" built.Image.relocs_bytes;
  let boot orc =
    Workspace.warm_all ws;
    Imk_storage.Page_cache.warm (Workspace.cache ws) "aws-fgkaslr-orc.vmlinux";
    Imk_storage.Page_cache.warm (Workspace.cache ws) "aws-fgkaslr-orc.relocs";
    let make_vm ~seed =
      Vm_config.make ~rando:Vm_config.Rando_fgkaslr
        ~relocs_path:(Some "aws-fgkaslr-orc.relocs") ~orc
        ~kernel_path:"aws-fgkaslr-orc.vmlinux" ~kernel_config:cfg ~seed ()
    in
    boot_many ws ~runs make_vm
  in
  let skip = boot Vm_config.Orc_skip in
  let update = boot Vm_config.Orc_update in
  let s = msf skip.Boot_runner.total and u = msf update.Boot_runner.total in
  let table = Imk_util.Table.create ~headers:[ "orc policy"; "boot ms" ] in
  Imk_util.Table.add_row table [ "skip (paper's choice)"; msv s ];
  Imk_util.Table.add_row table [ "update"; msv u ];
  {
    title = "Ablation: ORC unwind table update cost (§4.3)";
    table;
    notes =
      [ Printf.sprintf "updating ORC would add %.1f ms (+%.1f%%)" (u -. s) (pct u s) ];
    telemetry = [ boot_row "orc-skip" skip; boot_row "orc-update" update ];
    checks = [];
  }

let ablation_page_sharing _ ws =
  let boot seed =
    Workspace.warm_all ws;
    let vm =
      direct_vm ws Config.Aws Config.Fgkaslr ~rando:Vm_config.Rando_fgkaslr ()
        ~seed
    in
    let _, r = boot_once ws ~seed vm in
    r
  in
  (* KSM-style content-based sharing over the pages that hold each
     guest's kernel image (location-independent, zero pages excluded by
     construction since the span covers the loaded image) *)
  let zero_hash = Imk_util.Crc.crc32 (Bytes.make 4096 '\000') 0 4096 in
  let page_hash_list r =
    let mem = r.Vmm.mem in
    let page = 4096 in
    let lo = r.Vmm.params.Imk_guest.Boot_params.phys_load in
    let hi = min (Imk_memory.Guest_mem.size mem) (lo + (8 * 1024 * 1024)) in
    let hashes = ref [] in
    let off = ref lo in
    while !off + page <= hi do
      let h = Imk_memory.Guest_mem.crc32_range mem ~pa:!off ~len:page in
      (* all-zero pages merge trivially and say nothing about layouts *)
      if h <> zero_hash then hashes := h :: !hashes;
      off := !off + page
    done;
    !hashes
  in
  let identical_pages a b =
    let ha = page_hash_list a in
    let hb = Hashtbl.create 1024 in
    List.iter (fun h -> Hashtbl.replace hb h ()) (page_hash_list b);
    let shared = List.length (List.filter (Hashtbl.mem hb) ha) in
    float_of_int shared /. float_of_int (max 1 (List.length ha)) *. 100.
  in
  let a = boot 71L and b = boot 71L and c = boot 72L in
  let table =
    Imk_util.Table.create ~headers:[ "pairing"; "identical guest pages" ]
  in
  Imk_util.Table.add_row table
    [ "same seed (host-grouped VMs)"; Printf.sprintf "%.1f%%" (identical_pages a b) ];
  Imk_util.Table.add_row table
    [ "different seeds"; Printf.sprintf "%.1f%%" (identical_pages a c) ];
  {
    title = "Ablation: memory density under FGKASLR (§6)";
    table;
    notes =
      [
        "in-monitor randomization lets the host pick a shared seed for \
         related VMs, restoring page-merging that fine-grained \
         randomization otherwise nullifies";
      ];
    telemetry = [];
    checks = [];
  }

let ablation_rerando { runs; _ } ws =
  (* a 40 ms serverless function invocation under three platform
     policies: persistent VM (boot once, same layout forever),
     reboot-per-invocation with in-monitor KASLR, and
     reboot-per-invocation with self-randomizing bzImage boot *)
  let invocation_ms = 40. in
  let table =
    Imk_util.Table.create
      ~headers:
        [ "policy"; "boot ms"; "invocations/s"; "layouts per 100 invocations" ]
  in
  let rows = ref [] in
  let measure name make_vm ~reboot =
    Workspace.warm_all ws;
    let s = boot_many ws ~runs make_vm in
    rows := boot_row name s :: !rows;
    let boot_ms = msf s.Boot_runner.total in
    let per_invocation =
      if reboot then boot_ms +. invocation_ms else invocation_ms
    in
    let layouts = if reboot then 100 else 1 in
    Imk_util.Table.add_row table
      [
        name;
        msv boot_ms;
        Printf.sprintf "%.1f" (1000. /. per_invocation);
        string_of_int layouts;
      ];
    1000. /. per_invocation
  in
  let in_monitor =
    direct_vm ws Config.Aws Config.Kaslr ~rando:Vm_config.Rando_kaslr ()
  in
  let self_rando =
    bz_vm ws Config.Aws Config.Kaslr ~codec:"none" ~bz:Bzimage.None_optimized
      ~rando:Vm_config.Rando_kaslr ()
  in
  let persistent = measure "persistent VM (SAND-style)" in_monitor ~reboot:false in
  let inm = measure "reboot + in-monitor KASLR" in_monitor ~reboot:true in
  let self = measure "reboot + self-rando bzImage" self_rando ~reboot:true in
  {
    title = "Ablation: re-randomization between invocations (§7)";
    table;
    notes =
      [
        Printf.sprintf
          "fresh randomization every invocation costs %.0f%% of persistent-VM \
           throughput with in-monitor KASLR (%.0f%% with self-rando) — the \
           opportunity SAND-style reuse forgoes"
          (100. *. (1. -. (inm /. persistent)))
          (100. *. (1. -. (self /. persistent)));
      ];
    telemetry = List.rev !rows;
    checks = [];
  }

let ablation_devices { runs; _ } ws =
  (* a fuller microVM: serial console, rootfs block device, network —
     the devices a Lambda-style instance actually attaches. Off in the
     paper-calibrated experiments; here we measure what they add, and how
     a QEMU-style device model amplifies the monitor's share. *)
  let rootfs = Imk_kernel.Rootfs.make ~size:(512 * 1024) ~seed:77L in
  Imk_storage.Disk.add (Workspace.disk ws) ~name:"rootfs.img" rootfs;
  let table =
    Imk_util.Table.create
      ~headers:[ "vmm"; "devices"; "in-monitor"; "linux"; "total ms" ]
  in
  let rows = ref [] in
  let boot profile devices label =
    Workspace.warm_all ws;
    let make_vm ~seed =
      Vm_config.make ~profile ~rando:Vm_config.Rando_kaslr
        ~relocs_path:(Some (Workspace.relocs_path ws Config.Aws Config.Kaslr))
        ~devices
        ~kernel_path:(Workspace.vmlinux_path ws Config.Aws Config.Kaslr)
        ~kernel_config:(Workspace.config ws Config.Aws Config.Kaslr)
        ~seed ()
    in
    let s = boot_many ws ~runs make_vm in
    rows := boot_row (profile.Profiles.name ^ "/" ^ label) s :: !rows;
    Imk_util.Table.add_row table
      [
        profile.Profiles.name;
        label;
        msv (msf s.Boot_runner.in_monitor);
        msv (msf s.Boot_runner.linux_boot);
        msv (msf s.Boot_runner.total);
      ];
    msf s.Boot_runner.total
  in
  let full =
    [
      Devices.Serial;
      Devices.Virtio_blk { image = "rootfs.img" };
      Devices.Virtio_net;
    ]
  in
  let fc_none = boot Profiles.firecracker [] "none" in
  let fc_full = boot Profiles.firecracker full "serial+blk+net" in
  let _ = boot Profiles.qemu full "serial+blk+net" in
  {
    title = "Ablation: the device model's share of a microVM boot";
    table;
    notes =
      [
        Printf.sprintf
          "a Lambda-style device set adds %.1f ms on Firecracker's minimal \
           device model (rootfs superblock read included); the same set \
           under a QEMU-style model shows why lightweight monitors keep \
           In-Monitor small (§2.1)"
          (fc_full -. fc_none);
      ];
    telemetry = List.rev !rows;
    checks = [];
  }

let ablation_unikernel { runs; _ } ws =
  (* §6: unikernels cannot self-randomize (no bootstrap loader exists);
     the monitor is the only possible randomizing principal — and at
     unikernel scale, whole-system function-granular ASLR costs almost
     nothing *)
  let disk = Workspace.disk ws in
  let register (b : Image.built) =
    let base = b.Image.config.Config.name in
    Imk_storage.Disk.add disk ~name:(base ^ ".bin") b.Image.vmlinux;
    if b.Image.config.Config.relocatable then
      Imk_storage.Disk.add disk ~name:(base ^ ".relocs") b.Image.relocs_bytes;
    base
  in
  let plain = register (Unikernel.build ~aslr:false ()) in
  let rando_build = Unikernel.build ~aslr:true () in
  let rando = register rando_build in
  let table =
    Imk_util.Table.create
      ~headers:[ "configuration"; "boot ms"; "min"; "max"; "distinct layouts/20" ]
  in
  let rows = ref [] in
  let boot name ~kernel ~rando:mode ~relocs =
    Workspace.warm_all ws;
    let cfg = Unikernel.config ~aslr:(mode <> Vm_config.Rando_off) () in
    let make_vm ~seed =
      Vm_config.make ~profile:Profiles.solo5 ~rando:mode
        ~relocs_path:relocs ~mem_bytes:(64 * 1024 * 1024)
        ~kernel_path:kernel ~kernel_config:{ cfg with Config.name = cfg.Config.name }
        ~seed ()
    in
    let s = boot_many ws ~runs make_vm in
    rows := boot_row name s :: !rows;
    (* layout diversity across instances *)
    let bases = Hashtbl.create 32 in
    for i = 1 to 20 do
      let _, r =
        let seed = Int64.of_int (50 + i) in
        boot_once ws ~seed (make_vm ~seed)
      in
      Hashtbl.replace bases r.Vmm.params.Imk_guest.Boot_params.virt_base ()
    done;
    Imk_util.Table.add_row table
      ([ name; msv (msf s.Boot_runner.total) ]
      @ min_max_cells s
      @ [ string_of_int (Hashtbl.length bases) ]);
    msf s.Boot_runner.total
  in
  let base_ms =
    boot "unikernel, no ASLR (today)" ~kernel:(plain ^ ".bin")
      ~rando:Vm_config.Rando_off ~relocs:None
  in
  let aslr_ms =
    boot "unikernel + in-monitor whole-system FGASLR"
      ~kernel:(rando ^ ".bin") ~rando:Vm_config.Rando_fgkaslr
      ~relocs:(Some (rando ^ ".relocs"))
  in
  {
    title = "Ablation: in-monitor ASLR for unikernels (§6)";
    table;
    notes =
      [
        Printf.sprintf
          "whole-system function-granular ASLR costs +%.2f ms on a %.1f ms \
           unikernel boot; with no bootstrap loader, the monitor is the \
           only principal that can randomize at all"
          (aslr_ms -. base_ms) base_ms;
      ];
    telemetry = List.rev !rows;
    checks = [];
  }

let ablation_zygote _ ws =
  (* instance-creation strategies for a serverless host (§7):
     fresh boot with in-monitor KASLR vs single-snapshot restore vs a
     Morula-style pool of pre-randomized zygotes *)
  let table =
    Imk_util.Table.create
      ~headers:
        [ "strategy"; "create ms"; "distinct layouts"; "resident memory" ]
  in
  Workspace.warm_all ws;
  let make_vm ~seed =
    direct_vm ws Config.Aws Config.Kaslr ~rando:Vm_config.Rando_kaslr
      ~mem:(64 * 1024 * 1024) () ~seed
  in
  let working_set_pages = 2048 (* 8 MiB touched before first request *) in
  (* fresh boots *)
  let fresh =
    boot_many ws ~runs:10 make_vm
  in
  let fresh_ms = msf fresh.Boot_runner.total in
  Imk_util.Table.add_row table
    [ "fresh boot (in-monitor KASLR)"; msv fresh_ms; "per-instance"; "0" ];
  (* single snapshot *)
  let charge () =
    let trace = Imk_vclock.Trace.create (Imk_vclock.Clock.create ()) in
    Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default
  in
  let ch = charge () in
  let base =
    Vmm.boot ?plans:(Workspace.plans ws) ch (Workspace.cache ws)
      (make_vm ~seed:404L)
  in
  let snap = Snapshot.capture base in
  let restore_ms =
    let ch = charge () in
    let t0 = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) in
    let _ = Snapshot.restore ch snap ~working_set_pages in
    Imk_util.Units.ns_to_ms (Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) - t0)
  in
  Imk_util.Table.add_row table
    [
      "single snapshot restore";
      msv restore_ms;
      "1 (cloned)";
      Imk_util.Units.bytes_to_string (Snapshot.encoded_bytes snap);
    ];
  (* Morula pool *)
  let pool_size = 8 in
  let pool =
    Zygote.build (charge ()) (Workspace.cache ws) ~make_vm ~size:pool_size
  in
  let draw_ms =
    let ch = charge () in
    let rng = Imk_entropy.Prng.create ~seed:11L in
    let t0 = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) in
    let r = Zygote.draw ch pool ~rng ~working_set_pages in
    ignore r.Vmm.stats;
    Imk_util.Units.ns_to_ms (Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) - t0)
  in
  Imk_util.Table.add_row table
    [
      Printf.sprintf "Morula pool of %d zygotes" pool_size;
      msv draw_ms;
      string_of_int (Zygote.distinct_layouts pool);
      Imk_util.Units.bytes_to_string (Zygote.memory_bytes pool);
    ];
  {
    title = "Ablation: snapshots and zygote pools vs randomized boots (§7)";
    table;
    notes =
      [
        Printf.sprintf
          "restores are %.0fx faster than boots but clone one layout; a \
           Morula pool restores diversity at %s of resident memory — \
           in-monitor KASLR shrinks the gap the pool exists to bridge"
          (fresh_ms /. restore_ms)
          (Imk_util.Units.bytes_to_string (Zygote.memory_bytes pool));
      ];
    telemetry =
      [
        boot_row "fresh-boot" fresh;
        scalar_row "snapshot-restore" (restore_ms *. 1e6);
        scalar_row "zygote-draw" (draw_ms *. 1e6);
      ];
    checks = [];
  }

let entries =
  [
    { id = "ablation-kallsyms"; run = ablation_kallsyms };
    { id = "ablation-orc"; run = ablation_orc };
    { id = "ablation-page-sharing"; run = ablation_page_sharing };
    { id = "ablation-rerando"; run = ablation_rerando };
    { id = "ablation-zygote"; run = ablation_zygote };
    { id = "ablation-unikernel"; run = ablation_unikernel };
    { id = "ablation-devices"; run = ablation_devices };
  ]
