(* The paper's tables and figures: Table 1, Figures 3-6 and 9-11, the
   QEMU cross-check, the §5.2 throughput metric and the security
   accounting. *)
open Imk_kernel
open Imk_monitor
open Experiment
open Exp_common

let variant_of_rando = function
  | Vm_config.Rando_off -> Config.Nokaslr
  | Vm_config.Rando_kaslr -> Config.Kaslr
  | Vm_config.Rando_fgkaslr -> Config.Fgkaslr

let rando_name = function
  | Vm_config.Rando_off -> "nokaslr"
  | Vm_config.Rando_kaslr -> "kaslr"
  | Vm_config.Rando_fgkaslr -> "fgkaslr"

(* ---------- Table 1 ---------- *)

let table1 _ ws =
  let table =
    Imk_util.Table.create
      ~headers:
        [ "kernel"; "vmlinux"; "bzImage(None)"; "bzImage(LZ4)"; "relocs"; "sections" ]
  in
  List.iter
    (fun preset ->
      List.iter
        (fun variant ->
          let b = Workspace.built ws preset variant in
          let bz codec =
            let path =
              Workspace.bzimage_path ws preset variant ~codec
                ~bz:Bzimage.Standard
            in
            Config.modeled_of_actual b.Image.config
              (Imk_storage.Disk.size (Workspace.disk ws) path)
          in
          let bytes = Imk_util.Units.bytes_to_string in
          Imk_util.Table.add_row table
            [
              b.Image.config.Config.name;
              bytes (Image.modeled_vmlinux_bytes b);
              bytes (bz "none");
              bytes (bz "lz4");
              (if b.Image.config.Config.relocatable then
                 bytes (Image.modeled_reloc_bytes b)
               else "N/A");
              string_of_int (Image.modeled_sections b);
            ])
        Config.all_variants)
    presets;
  {
    title = "Table 1: kernel image sizes (modelled at paper scale)";
    table;
    notes =
      [
        "fgkaslr variants are larger than kaslr variants (function sections)";
        "relocs grow: lupine < aws < ubuntu, and kaslr < fgkaslr";
      ];
    telemetry = [];
    checks = [];
  }

(* ---------- Figure 3: compression bakeoff ---------- *)

let fig3 { runs; _ } ws =
  let codecs = [ "gzip"; "bzip2"; "lzma"; "xz"; "lzo"; "lz4" ] in
  let table =
    Imk_util.Table.create
      ~headers:[ "codec"; "total ms"; "decompress ms"; "in-monitor ms"; "min"; "max" ]
  in
  let totals =
    List.map
      (fun codec ->
        let make_vm =
          bz_vm ws Config.Aws Config.Nokaslr ~codec ~bz:Bzimage.Standard
            ~rando:Vm_config.Rando_off ()
        in
        Workspace.warm_all ws;
        let s =
          boot_many ws ~runs make_vm
        in
        Imk_util.Table.add_row table
          ([
             codec;
             msv (msf s.Boot_runner.total);
             msv (msf s.Boot_runner.decompression);
             msv (msf s.Boot_runner.in_monitor);
           ]
          @ min_max_cells s);
        (codec, s))
      codecs
  in
  let best =
    List.fold_left
      (fun (bc, bv) (c, s) ->
        let v = msf s.Boot_runner.total in
        if v < bv then (c, v) else (bc, bv))
      ("", infinity) totals
  in
  {
    title = "Figure 3: compression bakeoff (aws kernel bzImage boots, cached)";
    table;
    notes =
      [
        Printf.sprintf "fastest codec: %s (paper: LZ4)" (fst best);
      ];
    telemetry = List.map (fun (codec, s) -> boot_row codec s) totals;
    checks = [];
  }

(* ---------- Figure 4: cache effects ---------- *)

let fig4 { runs; _ } ws =
  let table =
    Imk_util.Table.create
      ~headers:[ "kernel"; "method"; "cache"; "in-monitor"; "bootstrap"; "decomp"; "linux"; "total ms" ]
  in
  let notes = ref [] in
  let rows = ref [] in
  List.iter
    (fun preset ->
      let run ~cold ~method_name make_vm =
        Workspace.warm_all ws;
        let s =
          boot_many ~cold ws ~runs make_vm
        in
        rows :=
          boot_row
            (String.concat "/"
               [ pname preset; method_name; (if cold then "cold" else "warm") ])
            s
          :: !rows;
        Imk_util.Table.add_row table
          [
            pname preset;
            method_name;
            (if cold then "cold" else "warm");
            msv (msf s.Boot_runner.in_monitor);
            msv (msf s.Boot_runner.bootstrap);
            msv (msf s.Boot_runner.decompression);
            msv (msf s.Boot_runner.linux_boot);
            msv (msf s.Boot_runner.total);
          ];
        msf s.Boot_runner.total
      in
      let bz_mk =
        bz_vm ws preset Config.Nokaslr ~codec:"lz4" ~bz:Bzimage.Standard
          ~rando:Vm_config.Rando_off ()
      in
      let direct_mk =
        direct_vm ws preset Config.Nokaslr ~rando:Vm_config.Rando_off ()
      in
      let bz_cold = run ~cold:true ~method_name:"bzImage-lz4" bz_mk in
      let dir_cold = run ~cold:true ~method_name:"direct" direct_mk in
      let bz_warm = run ~cold:false ~method_name:"bzImage-lz4" bz_mk in
      let dir_warm = run ~cold:false ~method_name:"direct" direct_mk in
      notes :=
        Printf.sprintf
          "%s: cold — direct %+.0f%% vs bzImage (paper: direct slower); warm — direct %+.0f%% (paper: direct faster)"
          (pname preset) (pct dir_cold bz_cold) (pct dir_warm bz_warm)
        :: !notes)
    presets;
  {
    title = "Figure 4: cache effects on bzImage vs direct boot";
    table;
    notes = List.rev !notes;
    telemetry = List.rev !rows;
    checks = [];
  }

(* ---------- Figure 5: bootstrap breakdown ---------- *)

let fig5 _ ws =
  let table =
    Imk_util.Table.create
      ~headers:[ "kernel"; "setup ms"; "decompression ms"; "parse+load ms"; "decomp %" ]
  in
  let notes = ref [] in
  let rows = ref [] in
  List.iter
    (fun preset ->
      Workspace.warm_all ws;
      let vm =
        bz_vm ws preset Config.Nokaslr ~codec:"lz4" ~bz:Bzimage.Standard
          ~rando:Vm_config.Rando_off () ~seed:11L
      in
      let trace, _ = boot_once ws ~seed:11L vm in
      let spans = Boot_runner.spans_by_label trace in
      let find label =
        Option.value ~default:0 (List.assoc_opt label spans)
      in
      let setup = find "loader-setup" in
      let decomp = find "decompress-lz4" in
      let main = find "loader-main" in
      let total_loader = setup + decomp + main in
      let span_summary ns = Imk_util.Stats.summarize [ float_of_int ns ] in
      rows :=
        {
          label = pname preset;
          total = span_summary total_loader;
          phases =
            [
              ("loader-setup", span_summary setup);
              ("decompress-lz4", span_summary decomp);
              ("loader-main", span_summary main);
            ];
        }
        :: !rows;
      let pct_decomp =
        100. *. float_of_int decomp /. float_of_int (max 1 total_loader)
      in
      Imk_util.Table.add_row table
        [
          pname preset;
          msv (Imk_util.Units.ns_to_ms setup);
          msv (Imk_util.Units.ns_to_ms decomp);
          msv (Imk_util.Units.ns_to_ms main);
          Printf.sprintf "%.0f%%" pct_decomp;
        ];
      notes := Printf.sprintf "%s: decompression = %.0f%% of loader time (paper: up to 73%%)" (pname preset) pct_decomp :: !notes)
    presets;
  {
    title = "Figure 5: bootstrap loader step breakdown (LZ4 bzImage)";
    table;
    notes = List.rev !notes;
    telemetry = List.rev !rows;
    checks = [];
  }

(* ---------- Figure 6: bootstrap methods ---------- *)

let fig6 { runs; _ } ws =
  let table =
    Imk_util.Table.create
      ~headers:[ "method"; "in-monitor"; "bootstrap"; "decomp"; "total ms" ]
  in
  let rows = ref [] in
  let measure method_name make_vm =
    Workspace.warm_all ws;
    let s = boot_many ws ~runs make_vm in
    rows := boot_row method_name s :: !rows;
    Imk_util.Table.add_row table
      [
        method_name;
        msv (msf s.Boot_runner.in_monitor);
        msv (msf s.Boot_runner.bootstrap);
        msv (msf s.Boot_runner.decompression);
        msv (msf s.Boot_runner.total);
      ];
    (method_name, msf s.Boot_runner.total)
  in
  let p = Config.Aws and v = Config.Nokaslr in
  let r = Vm_config.Rando_off in
  let results =
    [
      measure "compression-none"
        (bz_vm ws p v ~codec:"none" ~bz:Bzimage.Standard ~rando:r ());
      measure "lz4" (bz_vm ws p v ~codec:"lz4" ~bz:Bzimage.Standard ~rando:r ());
      measure "none-optimized"
        (bz_vm ws p v ~codec:"none" ~bz:Bzimage.None_optimized ~rando:r ());
      measure "uncompressed(direct)" (direct_vm ws p v ~rando:r ());
    ]
  in
  let ordered =
    List.map fst (List.sort (fun (_, a) (_, b) -> compare b a) results)
  in
  {
    title = "Figure 6: bootstrap method comparison (aws kernel, cached)";
    table;
    notes =
      [
        "slowest→fastest: " ^ String.concat " > " ordered
        ^ "  (paper: none > lz4 > none-optimized > uncompressed)";
      ];
    telemetry = List.rev !rows;
    checks = [];
  }

(* ---------- Figure 9: main evaluation ---------- *)

let fig9_cell ws preset rando ~runs ~method_ =
  let variant = variant_of_rando rando in
  Workspace.warm_all ws;
  let make_vm =
    match method_ with
    | `Direct ->
        direct_vm ws preset variant ~rando
          ~kallsyms:
            (if rando = Vm_config.Rando_fgkaslr then Vm_config.Kallsyms_deferred
             else Vm_config.Kallsyms_eager)
          ()
    | `None_opt ->
        bz_vm ws preset variant ~codec:"none" ~bz:Bzimage.None_optimized ~rando ()
    | `Lz4 -> bz_vm ws preset variant ~codec:"lz4" ~bz:Bzimage.Standard ~rando ()
  in
  boot_many ws ~runs make_vm

let fig9 { runs; _ } ws =
  let table =
    Imk_util.Table.create
      ~headers:
        [ "kernel"; "rando"; "method"; "in-monitor"; "bootstrap"; "decomp"; "linux"; "total ms"; "min"; "max" ]
  in
  let notes = ref [] in
  let cell = Hashtbl.create 32 in
  (* the 27 (preset x rando x method) cells are independent experiments;
     with an ambient --jobs > 1 they fan out over worker domains, each
     with its own clone_fresh workspace (private disk/cache/builds), and
     each cell's boot series runs in order on its worker. Kernel builds
     and boot costs are pure functions of the cell and its fixed seeds,
     so the table is identical to the sequential one. *)
  let cells =
    List.concat_map
      (fun preset ->
        List.concat_map
          (fun rando ->
            List.map
              (fun (mname, m) -> (preset, rando, mname, m))
              [
                ("in-monitor/direct", `Direct);
                ("none-optimized", `None_opt);
                ("lz4", `Lz4);
              ])
          [ Vm_config.Rando_off; Vm_config.Rando_kaslr; Vm_config.Rando_fgkaslr ])
      presets
  in
  let cells = Array.of_list cells in
  (* worker 0 keeps [ws] (with --jobs 1 it is the only worker); every
     other worker builds its own clone on first use *)
  let workspaces = Hashtbl.create 4 and lock = Mutex.create () in
  Hashtbl.add workspaces 0 ws;
  let ws_for worker =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt workspaces worker with
        | Some w -> w
        | None ->
            let w = Workspace.clone_fresh ws in
            Hashtbl.add workspaces worker w;
            w)
  in
  let stats =
    fan_out ~tasks:(Array.length cells) (fun ~worker i ->
        let p, r, _, m = cells.(i) in
        fig9_cell (ws_for worker) p r ~runs ~method_:m)
  in
  let rows = ref [] in
  let cell_p50 = Hashtbl.create 32 in
  Array.iteri
    (fun i (preset, rando, mname, _) ->
      let s = stats.(i) in
      Hashtbl.replace cell (preset, rando_name rando, mname)
        (msf s.Boot_runner.total);
      Hashtbl.replace cell_p50 (preset, rando_name rando, mname)
        s.Boot_runner.total.Imk_util.Stats.p50;
      rows :=
        boot_row
          (String.concat "/" [ pname preset; rando_name rando; mname ])
          s
        :: !rows;
      Imk_util.Table.add_row table
        ([
           pname preset;
           rando_name rando;
           mname;
           msv (msf s.Boot_runner.in_monitor);
           msv (msf s.Boot_runner.bootstrap);
           msv (msf s.Boot_runner.decompression);
           msv (msf s.Boot_runner.linux_boot);
           msv (msf s.Boot_runner.total);
         ]
        @ min_max_cells s))
    cells;
  (* contention variant (DESIGN.md §10): [contend_n] kaslr/lz4 guests
     share one event timeline per run under the ambient --contend
     capacities, so each boot's spans absorb its queue waits behind the
     others' disk reads and decompressions. One row, on the lupine
     preset — the microVM-optimized kernel is the one fleets pack
     densely enough for the "Study of Firecracker" contention regime to
     apply. Runs after (and reads nothing from) the solo cells: solo
     telemetry is byte-identical to a build without this block. *)
  let contend_n = 12 in
  let disk_capacity, decompress_slots = !Boot_runner.contend_capacities in
  let contend_method = Printf.sprintf "lz4-x%d-contended" contend_n in
  let contended =
    List.map
      (fun preset ->
        Workspace.warm_all ws;
        let make_vm =
          bz_vm ws preset (variant_of_rando Vm_config.Rando_kaslr) ~codec:"lz4"
            ~bz:Bzimage.Standard ~rando:Vm_config.Rando_kaslr ()
        in
        let s =
          Boot_runner.boot_contended ?plans:(Workspace.plans ws) ~n:contend_n
            ~runs ~cache:(Workspace.cache ws) ~make_vm ()
        in
        let b = s.Boot_runner.per_boot in
        rows :=
          boot_row
            (String.concat "/" [ pname preset; "kaslr"; contend_method ])
            b
          :: !rows;
        Imk_util.Table.add_row table
          ([
             pname preset;
             "kaslr";
             contend_method;
             msv (msf b.Boot_runner.in_monitor);
             msv (msf b.Boot_runner.bootstrap);
             msv (msf b.Boot_runner.decompression);
             msv (msf b.Boot_runner.linux_boot);
             msv (msf b.Boot_runner.total);
           ]
          @ min_max_cells b);
        (preset, s))
      [ Config.Lupine ]
  in
  let get p r m = Hashtbl.find cell (p, r, m) in
  List.iter
    (fun preset ->
      let p = preset in
      let baseline = get p "nokaslr" "in-monitor/direct" in
      let imk = get p "kaslr" "in-monitor/direct" in
      let nopt = get p "kaslr" "none-optimized" in
      let lz4 = get p "kaslr" "lz4" in
      let imfg = get p "fgkaslr" "in-monitor/direct" in
      let noptfg = get p "fgkaslr" "none-optimized" in
      notes :=
        Printf.sprintf
          "%s: in-monitor KASLR +%.1f ms (+%.1f%%) over baseline (paper avg: +4%%, 2 ms); \
           vs none-opt self-rando %.0f%% faster (paper: up to 22%%); vs lz4 %.0f%% faster; \
           FGKASLR %.2fx baseline (paper: 1.8–2.3x), vs none-opt self %.0f%% faster"
          (pname p) (imk -. baseline) (pct imk baseline)
          (pct nopt imk) (pct lz4 imk)
          (imfg /. baseline) (pct noptfg imfg)
        :: !notes)
    presets;
  List.iter
    (fun (preset, (s : Boot_runner.contended_stats)) ->
      let ms = Imk_util.Units.ns_float_to_ms in
      let solo_p50 = Hashtbl.find cell_p50 (preset, "kaslr", "lz4") in
      let cont_p50 = s.Boot_runner.per_boot.Boot_runner.total.Imk_util.Stats.p50 in
      notes :=
        Printf.sprintf
          "%s contention: %d kaslr/lz4 boots on one timeline (disk=%d, \
           decompress=%d) — per-boot p50 %.1f ms, %.2fx solo lz4 p50 \
           (%.1f ms); makespan p50 %.1f ms"
          (pname preset) contend_n disk_capacity decompress_slots
          (ms cont_p50) (cont_p50 /. solo_p50) (ms solo_p50)
          (ms s.Boot_runner.makespan.Imk_util.Stats.p50)
        :: !notes)
    contended;
  {
    title = "Figure 9: boot time by randomization method (cached, 256 MiB)";
    table;
    notes = List.rev !notes;
    telemetry = List.rev !rows;
    checks = [];
  }

(* ---------- Figure 10: memory sweep ---------- *)

let fig10 { runs; _ } ws =
  (* 2 GiB guests make these the most expensive boots to simulate; the
     monitor-time-is-flat / linux-boot-is-linear shape needs few samples *)
  let runs = min runs 8 in
  let table =
    Imk_util.Table.create
      ~headers:[ "kernel"; "rando"; "mem"; "in-monitor ms"; "linux ms"; "total ms" ]
  in
  let mems =
    [ (256, 256 * 1024 * 1024); (512, 512 * 1024 * 1024); (1024, 1024 * 1024 * 1024); (2048, 2048 * 1024 * 1024) ]
  in
  let notes = ref [] in
  let rows = ref [] in
  List.iter
    (fun preset ->
      List.iter
        (fun rando ->
          let im_values = ref [] in
          List.iter
            (fun (label, mem) ->
              Workspace.warm_all ws;
              let make_vm =
                direct_vm ws preset (variant_of_rando rando) ~rando ~mem ()
              in
              let s =
                boot_many ws ~runs make_vm
              in
              (* the memory size is a numeric key cell: it must stay in
                 the label or the four sweep points collapse onto one
                 row and silently shadow each other *)
              rows :=
                boot_row
                  (Printf.sprintf "%s/%s/%dM" (pname preset)
                     (rando_name rando) label)
                  s
                :: !rows;
              im_values := msf s.Boot_runner.in_monitor :: !im_values;
              Imk_util.Table.add_row table
                [
                  pname preset;
                  rando_name rando;
                  Printf.sprintf "%dM" label;
                  msv (msf s.Boot_runner.in_monitor);
                  msv (msf s.Boot_runner.linux_boot);
                  msv (msf s.Boot_runner.total);
                ])
            mems;
          let vals = !im_values in
          let spread =
            List.fold_left max neg_infinity vals -. List.fold_left min infinity vals
          in
          notes :=
            Printf.sprintf "%s/%s: in-monitor spread across memory sizes %.2f ms (paper: flat)"
              (pname preset) (rando_name rando) spread
            :: !notes)
        [ Vm_config.Rando_off; Vm_config.Rando_kaslr; Vm_config.Rando_fgkaslr ])
    presets;
  {
    title = "Figure 10: guest memory impact on boot time";
    table;
    notes = List.rev !notes;
    telemetry = List.rev !rows;
    checks = [];
  }

(* ---------- Figure 11: LEBench ---------- *)

let lebench_layout ws rando ~seed =
  let variant = variant_of_rando rando in
  Workspace.warm_all ws;
  let vm = direct_vm ws Config.Aws variant ~rando () ~seed in
  let trace, result =
    boot_once ws ~seed vm
  in
  let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
  Imk_lebench.Runner.layout_of_guest ch result.Vmm.mem result.Vmm.params

let fig11 _ ws =
  let base_layout = lebench_layout ws Vm_config.Rando_off ~seed:31L in
  let baseline = Imk_lebench.Runner.run ~fn_va:base_layout () in
  let table =
    Imk_util.Table.create ~headers:[ "test"; "kaslr (norm)"; "fgkaslr (norm)" ]
  in
  let norm rando seed =
    let layout = lebench_layout ws rando ~seed in
    Imk_lebench.Runner.normalize ~baseline
      (Imk_lebench.Runner.run ~fn_va:layout ~noise_seed:seed ())
  in
  let k = norm Vm_config.Rando_kaslr 32L in
  let f = norm Vm_config.Rando_fgkaslr 33L in
  List.iter2
    (fun (name, kv) (_, fv) ->
      Imk_util.Table.add_row table
        [ name; Printf.sprintf "%.3f" kv; Printf.sprintf "%.3f" fv ])
    k f;
  let avg l = Imk_util.Stats.mean (List.map snd l) in
  {
    title = "Figure 11: LEBench normalized to aws-nokaslr";
    table;
    notes =
      [
        Printf.sprintf "KASLR average %.1f%% slower (paper: <1%%, within noise)"
          ((avg k -. 1.) *. 100.);
        Printf.sprintf "FGKASLR average %.1f%% slower (paper: ~7%%)"
          ((avg f -. 1.) *. 100.);
      ];
    telemetry = [];
    checks = [];
  }

(* ---------- QEMU cross-check ---------- *)

let qemu_check { runs; _ } ws =
  let table =
    Imk_util.Table.create
      ~headers:[ "vmm"; "method"; "in-monitor"; "total ms" ]
  in
  let notes = ref [] in
  let rows = ref [] in
  List.iter
    (fun profile ->
      let totals =
        List.map
          (fun (mname, make_vm) ->
            Workspace.warm_all ws;
            let s =
              boot_many ws ~runs make_vm
            in
            rows :=
              boot_row (profile.Profiles.name ^ "/" ^ mname) s :: !rows;
            Imk_util.Table.add_row table
              [
                profile.Profiles.name;
                mname;
                msv (msf s.Boot_runner.in_monitor);
                msv (msf s.Boot_runner.total);
              ];
            (mname, msf s.Boot_runner.total))
          [
            ( "bzImage-lz4",
              bz_vm ws Config.Aws Config.Nokaslr ~codec:"lz4"
                ~bz:Bzimage.Standard ~rando:Vm_config.Rando_off ~profile () );
            ( "direct",
              direct_vm ws Config.Aws Config.Nokaslr ~rando:Vm_config.Rando_off
                ~profile () );
          ]
      in
      let bz = List.assoc "bzImage-lz4" totals in
      let direct = List.assoc "direct" totals in
      notes :=
        Printf.sprintf "%s: direct %.0f%% faster than bzImage when cached"
          profile.Profiles.name (pct bz direct)
        :: !notes)
    [ Profiles.firecracker; Profiles.qemu ];
  {
    title = "QEMU cross-check (§2.2): cached direct boot wins on both VMMs";
    table;
    notes = List.rev !notes;
    telemetry = List.rev !rows;
    checks = [];
  }

(* ---------- VM instantiation throughput (§5.2) ---------- *)

let throughput { runs; _ } ws =
  (* "there will be little effect on critical performance metrics such as
     the number of VMs instantiated per second" for KASLR; "with FGKASLR
     however, there is a larger tradeoff between an increase in security
     and a decrease in throughput" — a multi-core host simulation over
     sampled boot-time distributions *)
  let cores = 4 in
  let window_ms = 10_000. in
  let table =
    Imk_util.Table.create
      ~headers:[ "scheme"; "mean boot ms"; "VMs/s (4 cores)"; "vs nokaslr" ]
  in
  let samples rando =
    let variant = variant_of_rando rando in
    (* build the images before warming: there are no warm-up boots, so
       an image built lazily by the first boot would be read uncached *)
    ignore (Workspace.built ws Config.Aws variant);
    Workspace.warm_all ws;
    let make_vm =
      direct_vm ws Config.Aws variant ~rando
        ~kallsyms:
          (if rando = Vm_config.Rando_fgkaslr then Vm_config.Kallsyms_deferred
           else Vm_config.Kallsyms_eager)
        ()
    in
    let arena = Workspace.arena ws in
    let boots = ref [] in
    for i = 1 to runs do
      let seed = Int64.of_int (3000 + i) in
      let vm = make_vm ~seed in
      let total_ms =
        Imk_memory.Arena.with_buffer arena ~size:vm.Vm_config.mem_bytes
          (fun guest_mem ->
            let trace, _ =
              Boot_runner.boot_once ~mem:guest_mem ~seed
                ?plans:(Workspace.plans ws) ~cache:(Workspace.cache ws) vm
            in
            Imk_util.Units.ns_to_ms (Imk_vclock.Trace.total trace))
      in
      boots := total_ms :: !boots
    done;
    Array.of_list !boots
  in
  (* greedy multi-core schedule: each core boots back to back, drawing
     cyclically from the sampled distribution. The rate divides by the
     actual elapsed span (latest counted completion), not the full
     window — the old full-window division biased boots/sec low whenever
     the last boot finished before the window closed. *)
  let rate samples =
    Imk_fleet.Sim.instantiation_rate ~cores ~window_ms samples
  in
  let schemes =
    [ Vm_config.Rando_off; Vm_config.Rando_kaslr; Vm_config.Rando_fgkaslr ]
  in
  let rates =
    List.map
      (fun rando ->
        let s = samples rando in
        let mean = Imk_util.Stats.mean (Array.to_list s) in
        (rando, s, mean, rate s))
      schemes
  in
  let base_rate =
    match rates with (_, _, _, r) :: _ -> r | [] -> assert false
  in
  List.iter
    (fun (rando, _, mean, r) ->
      Imk_util.Table.add_row table
        [
          rando_name rando;
          msv mean;
          Printf.sprintf "%.1f" r;
          Printf.sprintf "%+.1f%%" (100. *. ((r /. base_rate) -. 1.));
        ])
    rates;
  let kaslr_loss =
    match rates with
    | [ _; (_, _, _, rk); _ ] -> 100. *. (1. -. (rk /. base_rate))
    | _ -> 0.
  in
  let fg_loss =
    match rates with
    | [ _; _; (_, _, _, rf) ] -> 100. *. (1. -. (rf /. base_rate))
    | _ -> 0.
  in
  {
    title = "VM instantiation throughput (§5.2, aws kernel, 4 host cores)";
    table;
    notes =
      [
        Printf.sprintf
          "in-monitor KASLR costs %.1f%% of instantiation rate (paper: \
           \"little effect\"); FGKASLR costs %.1f%% (paper: \"a larger \
           tradeoff ... a decrease in throughput\")"
          kaslr_loss fg_loss;
      ];
    telemetry =
      List.map
        (fun (rando, s, _, _) ->
          {
            label = rando_name rando;
            total =
              Imk_util.Stats.summarize
                (List.map (fun ms -> ms *. 1e6) (Array.to_list s));
            phases = [];
          })
        rates;
    checks = [];
  }

(* ---------- Security ---------- *)

let security _ ws =
  let table =
    Imk_util.Table.create
      ~headers:
        [ "scheme"; "base slots"; "base bits"; "perm bits"; "leak exposes" ]
  in
  let b = Workspace.built ws Config.Aws Config.Kaslr in
  let memsz =
    Config.modeled_of_actual b.Image.config
      (Imk_randomize.Loadelf.image_memsz b.Image.elf)
  in
  let modeled_fns =
    Config.modeled_of_actual b.Image.config b.Image.config.Config.functions
  in
  let attack rando seed =
    Workspace.warm_all ws;
    let variant = variant_of_rando rando in
    let vm = direct_vm ws Config.Aws variant ~rando () ~seed in
    let _, result =
      boot_once ws ~seed vm
    in
    let built = Workspace.built ws Config.Aws variant in
    let rng = Imk_entropy.Prng.create ~seed in
    let n = Array.length built.Image.fn_va in
    let fracs =
      List.init 10 (fun _ ->
          let leaked_fn = Imk_entropy.Prng.next_int rng n in
          (Imk_security.Attack.leak_and_locate ~mem:result.Vmm.mem
             ~params:result.Vmm.params ~link_fn_va:built.Image.fn_va ~leaked_fn
             ~scheme:(rando_name rando))
            .Imk_security.Attack.gadgets_exposed_fraction)
    in
    Imk_util.Stats.mean fracs
  in
  let row report frac =
    Imk_util.Table.add_row table
      [
        report.Imk_security.Entropy_analysis.scheme;
        string_of_int report.Imk_security.Entropy_analysis.base_slots;
        Printf.sprintf "%.1f" report.Imk_security.Entropy_analysis.base_bits;
        Printf.sprintf "%.0f" report.Imk_security.Entropy_analysis.permutation_bits;
        Printf.sprintf "%.1f%% of functions" (frac *. 100.);
      ]
  in
  row Imk_security.Entropy_analysis.nokaslr (attack Vm_config.Rando_off 51L);
  row
    (Imk_security.Entropy_analysis.kaslr ~image_memsz:memsz)
    (attack Vm_config.Rando_kaslr 52L);
  row
    (Imk_security.Entropy_analysis.fgkaslr ~image_memsz:memsz
       ~functions:modeled_fns)
    (attack Vm_config.Rando_fgkaslr 53L);
  (* §4.3 entropy equivalence needs equiprobable slots: chi-square over
     many draws *)
  let offsets =
    Imk_security.Uniformity.test_virtual_offsets ~image_memsz:memsz
      ~draws:50_000 ~seed:99L
  in
  let perm =
    Imk_security.Uniformity.test_permutation_positions ~sections:512
      ~draws:50_000 ~seed:98L
  in
  {
    title = "Security: entropy and the value of a single leak (§3.1/§4.3)";
    table;
    notes =
      [
        "one leak exposes the whole kernel under nokaslr/kaslr, one function under fgkaslr";
        Printf.sprintf
          "offset uniformity: chi2 = %.0f vs 1%%-level threshold %.0f over %d \
           slots x %d draws -> %s"
          offsets.Imk_security.Uniformity.statistic
          offsets.Imk_security.Uniformity.threshold
          offsets.Imk_security.Uniformity.slots
          offsets.Imk_security.Uniformity.draws
          (if offsets.Imk_security.Uniformity.uniform then "uniform"
           else "BIASED");
        Printf.sprintf
          "shuffle-position uniformity: chi2 = %.0f vs threshold %.0f -> %s"
          perm.Imk_security.Uniformity.statistic
          perm.Imk_security.Uniformity.threshold
          (if perm.Imk_security.Uniformity.uniform then "uniform" else "BIASED");
      ];
    telemetry = [];
    checks = [];
  }

let entries =
  [
    { id = "table1"; run = table1 };
    { id = "fig3"; run = fig3 };
    { id = "fig4"; run = fig4 };
    { id = "fig5"; run = fig5 };
    { id = "fig6"; run = fig6 };
    { id = "fig9"; run = fig9 };
    { id = "fig10"; run = fig10 };
    { id = "fig11"; run = fig11 };
    { id = "qemu"; run = qemu_check };
    { id = "throughput"; run = throughput };
    { id = "security"; run = security };
  ]
