(* Tests for Imk_harness: workspace caching/registration, the boot runner's
   statistics, and smoke runs of representative experiments on shrunken
   kernels. *)

open Imk_harness
open Imk_kernel

let check = Alcotest.check
let int = Alcotest.int

let small_ws () = Workspace.create ~scale:4 ~functions_override:50 ()

let test_workspace_builds_once () =
  let ws = small_ws () in
  let a = Workspace.built ws Config.Aws Config.Kaslr in
  let b = Workspace.built ws Config.Aws Config.Kaslr in
  check Alcotest.bool "cached build" true (a == b)

let test_workspace_registers_images () =
  let ws = small_ws () in
  let path = Workspace.vmlinux_path ws Config.Lupine Config.Kaslr in
  check Alcotest.bool "on disk" true (Imk_storage.Disk.mem (Workspace.disk ws) path);
  let rpath = Workspace.relocs_path ws Config.Lupine Config.Kaslr in
  check Alcotest.bool "relocs on disk" true
    (Imk_storage.Disk.mem (Workspace.disk ws) rpath)

let test_workspace_bzimage () =
  let ws = small_ws () in
  let path =
    Workspace.bzimage_path ws Config.Aws Config.Nokaslr ~codec:"lz4"
      ~bz:Bzimage.Standard
  in
  check Alcotest.bool "bzimage on disk" true
    (Imk_storage.Disk.mem (Workspace.disk ws) path);
  (* second request returns the same artifact without error *)
  let path2 =
    Workspace.bzimage_path ws Config.Aws Config.Nokaslr ~codec:"lz4"
      ~bz:Bzimage.Standard
  in
  check Alcotest.string "same path" path path2

let test_workspace_functions_override () =
  let ws = small_ws () in
  let c = Workspace.config ws Config.Ubuntu Config.Fgkaslr in
  check int "override applied" 50 c.Config.functions

let test_boot_runner_stats () =
  let ws = small_ws () in
  Workspace.warm_all ws;
  let make_vm ~seed =
    Imk_monitor.Vm_config.make ~rando:Imk_monitor.Vm_config.Rando_kaslr
      ~relocs_path:(Some (Workspace.relocs_path ws Config.Aws Config.Kaslr))
      ~kernel_path:(Workspace.vmlinux_path ws Config.Aws Config.Kaslr)
      ~kernel_config:(Workspace.config ws Config.Aws Config.Kaslr)
      ~mem_bytes:(64 * 1024 * 1024) ~seed ()
  in
  let s =
    Boot_runner.boot_many ~warmups:1 ~runs:8 ~cache:(Workspace.cache ws)
      ~make_vm ()
  in
  check int "8 samples" 8 s.Boot_runner.total.Imk_util.Stats.n;
  check Alcotest.bool "min <= mean <= max" true
    (s.Boot_runner.total.Imk_util.Stats.min
     <= s.Boot_runner.total.Imk_util.Stats.mean
    && s.Boot_runner.total.Imk_util.Stats.mean
       <= s.Boot_runner.total.Imk_util.Stats.max);
  check Alcotest.bool "jitter spreads samples" true
    (s.Boot_runner.total.Imk_util.Stats.max
    > s.Boot_runner.total.Imk_util.Stats.min);
  check Alcotest.bool "phases sum to total" true
    (let sum =
       s.Boot_runner.in_monitor.Imk_util.Stats.mean
       +. s.Boot_runner.bootstrap.Imk_util.Stats.mean
       +. s.Boot_runner.decompression.Imk_util.Stats.mean
       +. s.Boot_runner.linux_boot.Imk_util.Stats.mean
     in
     abs_float (sum -. s.Boot_runner.total.Imk_util.Stats.mean) < 1000.)

let test_empty_phase_reports_zero_count () =
  (* a direct boot has no decompression phase; its summary must say
     n = 0, not fabricate a zero sample *)
  let ws = small_ws () in
  Workspace.warm_all ws;
  let make_vm ~seed =
    Imk_monitor.Vm_config.make ~rando:Imk_monitor.Vm_config.Rando_off
      ~kernel_path:(Workspace.vmlinux_path ws Config.Aws Config.Nokaslr)
      ~kernel_config:(Workspace.config ws Config.Aws Config.Nokaslr)
      ~mem_bytes:(64 * 1024 * 1024) ~seed ()
  in
  let s =
    Boot_runner.boot_many ~warmups:1 ~runs:3 ~arena:(Workspace.arena ws)
      ~cache:(Workspace.cache ws) ~make_vm ()
  in
  check int "no decompression samples" 0
    s.Boot_runner.decompression.Imk_util.Stats.n;
  check int "3 totals" 3 s.Boot_runner.total.Imk_util.Stats.n;
  check (Alcotest.float 0.) "empty phase mean is 0" 0.
    (Boot_runner.ms s.Boot_runner.decompression)

let test_ms_keeps_fractional_ns () =
  let s = Imk_util.Stats.summarize [ 1.; 2. ] in
  check (Alcotest.float 1e-15) "fractional ns survive" 1.5e-6
    (Boot_runner.ms s)

let contains haystack needle =
  let rec go i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || go (i + 1))
  in
  go 0

let test_telemetry_json () =
  let o = Testkit.run_experiment "fig6" (small_ws ()) in
  let rows = Telemetry.rows o in
  check int "one row per method" 4 (List.length rows);
  check Alcotest.bool "labelled, positive mean" true
    (List.exists
       (fun (r : Telemetry.row) ->
         r.Telemetry.label = "lz4" && r.Telemetry.total.Imk_util.Stats.mean > 0.)
       rows);
  let json =
    Telemetry.to_json ~experiment:"fig6" ~runs:2 ~jobs:1 ~scale:4
      ~functions:(Some 50) ~wall_clock_s:0.25 rows
  in
  check Alcotest.bool "has wall clock" true
    (contains json "\"wall_clock_s\": 0.250");
  check Alcotest.bool "has experiment" true
    (contains json "\"experiment\": \"fig6\"");
  check Alcotest.bool "has label" true (contains json "\"label\": \"lz4\"");
  check Alcotest.bool "has p99" true (contains json "\"p99_ms\"")

(* ---- schema 2: round-trips, traps, duplicate labels, the gate ---- *)

let mk_file ?(experiment = "x") rows =
  {
    Telemetry.schema = Telemetry.schema_version;
    experiment;
    runs = 3;
    jobs = 1;
    scale = 4;
    functions = None;
    wall_clock_s = 0.1;
    rows;
  }

let render ?(experiment = "x") rows =
  Telemetry.to_json ~experiment ~runs:3 ~jobs:1 ~scale:4 ~functions:None
    ~wall_clock_s:0.1 rows

let mk_row label samples phases =
  {
    Telemetry.label;
    total = Imk_util.Stats.summarize samples;
    phases = List.map (fun (p, s) -> (p, Imk_util.Stats.summarize s)) phases;
  }

let test_schema2_roundtrip () =
  (* to_json -> of_json preserves every summary field to the emitted
     %.6f ms precision, phases included *)
  let o = Testkit.run_experiment "fig6" (small_ws ()) in
  let rows = Telemetry.rows o in
  let f =
    Telemetry.of_json
      (Telemetry.to_json ~experiment:"fig6" ~runs:2 ~jobs:1 ~scale:4
         ~functions:(Some 50) ~wall_clock_s:0.25 rows)
  in
  check int "schema" Telemetry.schema_version f.Telemetry.schema;
  check Alcotest.string "experiment" "fig6" f.Telemetry.experiment;
  check (Alcotest.option int) "functions" (Some 50) f.Telemetry.functions;
  check int "row count" (List.length rows) (List.length f.Telemetry.rows);
  List.iter2
    (fun (a : Telemetry.row) (b : Telemetry.row) ->
      check Alcotest.string "label" a.Telemetry.label b.Telemetry.label;
      let close what x y = check (Alcotest.float 1e-5) what x y in
      close "p50" a.Telemetry.total.Imk_util.Stats.p50
        b.Telemetry.total.Imk_util.Stats.p50;
      close "p99" a.Telemetry.total.Imk_util.Stats.p99
        b.Telemetry.total.Imk_util.Stats.p99;
      close "stddev" a.Telemetry.total.Imk_util.Stats.stddev
        b.Telemetry.total.Imk_util.Stats.stddev;
      check int "phase count"
        (List.length a.Telemetry.phases)
        (List.length b.Telemetry.phases);
      (* phase means, weighted by how often each phase fired, recover
         the headline total (absent phases are absent, never zero-padded) *)
      let weighted (r : Telemetry.row) =
        List.fold_left
          (fun acc (_, (s : Imk_util.Stats.summary)) ->
            acc
            +. s.Imk_util.Stats.mean
               *. float_of_int s.Imk_util.Stats.n
               /. float_of_int r.Telemetry.total.Imk_util.Stats.n)
          0. r.Telemetry.phases
      in
      close "phase sums = total" b.Telemetry.total.Imk_util.Stats.mean
        (weighted b))
    rows f.Telemetry.rows

let test_schema2_empty_and_escaping () =
  let f = Telemetry.of_json (render []) in
  check int "no rows" 0 (List.length f.Telemetry.rows);
  let wild = "aws/\"kaslr\"\n\tbs\\128M" in
  let row = mk_row wild [ 1.0; 2.0; 3.0 ] [ ("in-monitor", [ 1.0 ]) ] in
  let f = Telemetry.of_json (render [ row ]) in
  match f.Telemetry.rows with
  | [ r ] ->
      check Alcotest.string "wild label round-trips" wild r.Telemetry.label;
      check (Alcotest.float 1e-9) "p50" 2.0 r.Telemetry.total.Imk_util.Stats.p50
  | rs -> Alcotest.failf "expected 1 row, got %d" (List.length rs)

let test_duplicate_labels_rejected () =
  let rows = [ mk_row "same" [ 1.0 ] []; mk_row "same" [ 2.0 ] [] ] in
  check Alcotest.bool "to_json raises" true
    (match render rows with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_schema1_rejected () =
  (* a schema-1 file carried only means; reading it as distributions
     must fail loudly, not fabricate percentiles *)
  let v1 =
    "{ \"schema\": 1, \"experiment\": \"fig9\", \"runs\": 20, \"jobs\": 1,\n\
    \  \"scale\": 16, \"functions\": null, \"wall_clock_s\": 19.1,\n\
    \  \"boot_ms\": [ { \"label\": \"aws/kaslr\", \"mean_ms\": 85.4 } ] }"
  in
  check Alcotest.bool "schema 1 refused" true
    (match Telemetry.of_json v1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.bool "garbage refused" true
    (match Telemetry.of_json "{ \"schema\": 2, " with
    | _ -> false
    | exception Imk_util.Minjson.Malformed _ -> true)

let test_value_column_traps () =
  let vc = Telemetry.value_column in
  check (Alcotest.option int) "atoms is not ms" None
    (vc [ "kernel"; "atoms" ]);
  check (Alcotest.option int) "programs is not ms" None
    (vc [ "rando"; "programs"; "loss %" ]);
  check (Alcotest.option int) "total ms preferred" (Some 2)
    (vc [ "kernel"; "atoms"; "total ms"; "boot ms" ]);
  check (Alcotest.option int) "boot ms fallback" (Some 1)
    (vc [ "kernel"; "boot ms" ]);
  check (Alcotest.option int) "token suffix matches" (Some 1)
    (vc [ "kernel"; "restore ms" ]);
  check (Alcotest.option int) "bare ms matches" (Some 0) (vc [ "ms" ])

let test_baseline_gate () =
  let rows =
    [
      mk_row "a" [ 10.0; 11.0; 12.0 ] [ ("in-monitor", [ 4.0; 4.5; 5.0 ]) ];
      mk_row "b" [ 20.0; 21.0; 22.0 ] [];
    ]
  in
  let current = mk_file rows in
  (* self-diff: zero regressions *)
  let self = Telemetry.diff ~baseline:current ~current () in
  check int "no self regressions" 0 (List.length (Telemetry.regressions self));
  check int "total+phase deltas" 3 (List.length self);
  (* doctored baseline: halve label a's total p50 -> +100% regression *)
  let doctored =
    mk_file
      [
        mk_row "a" [ 5.0; 5.5; 6.0 ] [ ("in-monitor", [ 4.0; 4.5; 5.0 ]) ];
        mk_row "b" [ 20.0; 21.0; 22.0 ] [];
      ]
  in
  let deltas = Telemetry.diff ~baseline:doctored ~current () in
  (match Telemetry.regressions deltas with
  | [ d ] ->
      check Alcotest.string "regressing label" "a" d.Telemetry.d_label;
      check (Alcotest.option Alcotest.string) "headline total" None
        d.Telemetry.d_phase;
      check (Alcotest.float 1e-9) "+100%" 100.0 d.Telemetry.change_pct
  | ds -> Alcotest.failf "expected 1 regression, got %d" (List.length ds));
  (* a phase-only shift never trips the gate: same totals, slower phase *)
  let phase_shift =
    mk_file
      [
        mk_row "a" [ 10.0; 11.0; 12.0 ] [ ("in-monitor", [ 1.0; 1.5; 2.0 ]) ];
        mk_row "b" [ 20.0; 21.0; 22.0 ] [];
      ]
  in
  let deltas = Telemetry.diff ~baseline:phase_shift ~current () in
  check int "phase deltas are diagnostic" 0
    (List.length (Telemetry.regressions deltas));
  (* a single-sample side is degenerate: its quantiles alias the one
     draw, so even a huge p50 change is reported but never a regression *)
  let one_shot = mk_file [ mk_row "a" [ 5.0 ] []; mk_row "b" [ 20.0 ] [] ] in
  let deltas = Telemetry.diff ~baseline:one_shot ~current () in
  check int "degenerate deltas never regress" 0
    (List.length (Telemetry.regressions deltas));
  (match List.find_opt (fun d -> d.Telemetry.d_label = "a") deltas with
  | Some d ->
      check Alcotest.bool "marked degenerate" true d.Telemetry.degenerate;
      check (Alcotest.float 1e-9) "the delta itself is still reported" 120.0
        d.Telemetry.change_pct
  | None -> Alcotest.fail "missing delta for label a");
  (* label drift is reported, not silently ignored *)
  let renamed = mk_file [ mk_row "c" [ 10.0 ] [] ] in
  let only_base, only_cur =
    Telemetry.missing_labels ~baseline:renamed ~current
  in
  check (Alcotest.list Alcotest.string) "only in baseline" [ "c" ] only_base;
  check (Alcotest.list Alcotest.string) "only in current" [ "a"; "b" ] only_cur

let test_trace_sink_fires () =
  let ws = small_ws () in
  Workspace.warm_all ws;
  let vm =
    Imk_monitor.Vm_config.make ~rando:Imk_monitor.Vm_config.Rando_off
      ~kernel_path:(Workspace.vmlinux_path ws Config.Aws Config.Nokaslr)
      ~kernel_config:(Workspace.config ws Config.Aws Config.Nokaslr)
      ~mem_bytes:(64 * 1024 * 1024) ()
  in
  let count = ref 0 in
  let seen_total = ref 0 in
  Boot_runner.trace_sink :=
    Some
      (fun tr ->
        incr count;
        seen_total := Imk_vclock.Trace.total tr);
  Fun.protect
    ~finally:(fun () -> Boot_runner.trace_sink := None)
    (fun () ->
      let trace, _ =
        Boot_runner.boot_once ~jitter:false ~seed:1L
          ~cache:(Workspace.cache ws) vm
      in
      check int "sink fired once" 1 !count;
      check int "sink saw the finished trace" (Imk_vclock.Trace.total trace)
        !seen_total);
  (* uninstalling restores the no-op default *)
  ignore
    (Boot_runner.boot_once ~jitter:false ~seed:2L ~cache:(Workspace.cache ws)
       vm);
  check int "no sink, no fire" 1 !count

let test_boot_once_spans () =
  let ws = small_ws () in
  Workspace.warm_all ws;
  let vm =
    Imk_monitor.Vm_config.make ~rando:Imk_monitor.Vm_config.Rando_off
      ~kernel_path:
        (Workspace.bzimage_path ws Config.Aws Config.Nokaslr ~codec:"lz4"
           ~bz:Bzimage.Standard)
      ~flavor:Imk_monitor.Vm_config.Bzimage_support
      ~kernel_config:(Workspace.config ws Config.Aws Config.Nokaslr)
      ~mem_bytes:(64 * 1024 * 1024) ()
  in
  let trace, _ = Boot_runner.boot_once ~jitter:false ~seed:1L ~cache:(Workspace.cache ws) vm in
  let spans = Boot_runner.spans_by_label trace in
  check Alcotest.bool "has loader-setup" true
    (List.mem_assoc "loader-setup" spans);
  check Alcotest.bool "has decompress span" true
    (List.mem_assoc "decompress-lz4" spans)

(* smoke runs of the cheap experiments; assert structural soundness and
   the headline directions *)

let note_contains o needle =
  List.exists
    (fun n ->
      let rec go i =
        i + String.length needle <= String.length n
        && (String.sub n i (String.length needle) = needle || go (i + 1))
      in
      String.length needle <= String.length n && go 0)
    o.Experiment.notes

let test_table1_smoke () =
  let o = Testkit.run_experiment "table1" (small_ws ()) in
  let rendered = Imk_util.Table.render o.Experiment.table in
  check Alcotest.bool "has all nine kernels" true
    (List.for_all
       (fun k ->
         let rec go i =
           i + String.length k <= String.length rendered
           && (String.sub rendered i (String.length k) = k || go (i + 1))
         in
         go 0)
       [ "lupine-nokaslr"; "aws-fgkaslr"; "ubuntu-kaslr" ])

let test_fig6_smoke () =
  let o = Testkit.run_experiment "fig6" (small_ws ()) in
  check Alcotest.bool "direct fastest" true
    (note_contains o "> uncompressed(direct)")

let test_fig3_smoke () =
  let o = Testkit.run_experiment "fig3" (small_ws ()) in
  check Alcotest.bool "lz4 wins" true (note_contains o "fastest codec: lz4")

let test_security_smoke () =
  let o = Testkit.run_experiment "security" (small_ws ()) in
  check int "three schemes" 3 (List.length (Imk_util.Table.rows o.Experiment.table))

let test_registry () =
  let ids = List.map (fun (e : Experiment.t) -> e.Experiment.id) Experiments.all in
  check int "22 experiments" 22 (List.length ids);
  check int "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match Experiments.find id with
      | Some e -> check Alcotest.string (id ^ " resolves") id e.Experiment.id
      | None -> Alcotest.failf "%s does not resolve" id)
    ids;
  check Alcotest.bool "unknown" true (Experiments.find "fig99" = None)

let test_gate_constructor () =
  let ok ~cases ~failures =
    (Experiment.gate ~name:"g" ~cases ~failures "detail").Experiment.ok
  in
  check Alcotest.bool "clean gate passes" true (ok ~cases:5 ~failures:0);
  check Alcotest.bool "a failing count fails" false (ok ~cases:5 ~failures:1);
  check Alcotest.bool "zero cases fail" false (ok ~cases:0 ~failures:0)

(* the four gated campaigns at smoke size: each reports at least one
   named check, and every check holds *)
let test_gated_campaigns () =
  List.iter
    (fun id ->
      let o = Testkit.run_experiment id (small_ws ()) in
      check Alcotest.bool (id ^ " has checks") true (o.Experiment.checks <> []);
      List.iter
        (fun (c : Experiment.check) ->
          check Alcotest.bool
            (Printf.sprintf "%s %s: %s" id c.Experiment.name c.Experiment.detail)
            true c.Experiment.ok)
        o.Experiment.checks)
    [ "faults"; "resilience"; "diffcheck"; "fleet" ]

(* ---------- supervised-campaign kit ---------- *)

let test_kit_tally () =
  let module F = Imk_fault.Failure in
  let report ?(events = []) outcome =
    { Boot_supervisor.outcome; attempts = 1; events; total_ns = 1;
      recovery = [] }
  in
  let green =
    Ok
      { Imk_guest.Runtime.functions_visited = 1; sites_verified = 1;
        rodata_verified = 0; extab_verified = 0; kallsyms_verified = 0;
        orc_verified = 0 }
  in
  let retried =
    F.Retried { attempt = 1; failure = F.Transient "t"; backoff_ns = 1 }
  in
  let t =
    Exp_common.tally
      [|
        (report green, true) (* armed, green, no event: silent *);
        (report green, false) (* unarmed green: plain ok *);
        (report ~events:[ retried; retried ] green, true) (* recovered *);
        (report (Error (F.Bad_reloc "r")), true);
        (report ~events:[ retried ] (Error (F.Transient "t")), false);
        (report (Error (F.Bad_reloc "r2")), true);
      |]
  in
  let open Exp_common in
  check (Alcotest.list int) "armed/ok/recovered/silent/failed/retries"
    [ 4; 3; 1; 1; 3; 3 ]
    [ t.armed; t.ok; t.recovered; t.silent; t.failed; t.retries ];
  check (Alcotest.list Alcotest.string) "kinds, first-seen order"
    [ "bad-reloc"; "transient" ] t.kinds

let test_kit_run_ctx_isolation () =
  let ws = small_ws () in
  let cell = Exp_common.direct_cell ws Config.Aws in
  let cache (ctx : Boot_supervisor.ctx) = ctx.Boot_supervisor.cache in
  let contents disk =
    List.map
      (fun (name, _) -> Bytes.copy (Imk_storage.Disk.find disk name))
      cell.Exp_common.files
  in
  let on_disk ctx = contents (Imk_storage.Page_cache.disk (cache ctx)) in
  let pristine = contents (Workspace.disk ws) in
  let clean = Exp_common.run_ctx ws cell in
  let armed =
    Exp_common.run_ctx ~fault:(Imk_fault.Inject.Truncate_relocs, 7) ws cell
  in
  let b = Alcotest.bool in
  check b "armed run sees the fault" true (on_disk armed <> pristine);
  check b "other run's disk byte-identical" true (on_disk clean = pristine);
  check b "workspace disk byte-identical" true
    (contents (Workspace.disk ws) = pristine);
  check b "cold by default" false
    (Imk_storage.Page_cache.is_cached (cache clean) cell.Exp_common.kernel);
  let warm =
    Exp_common.run_ctx ~warm:true ~extra:[ ("x", Bytes.empty) ] ws cell
  in
  check b "warm covers files and extras" true
    (List.for_all
       (Imk_storage.Page_cache.is_cached (cache warm))
       [ cell.Exp_common.kernel; "x" ])

let test_throughput_smoke () =
  let o = Testkit.run_experiment ~runs:5 "throughput" (small_ws ()) in
  (* the headline direction: fgkaslr costs more throughput than kaslr *)
  check Alcotest.bool "ordering note present" true
    (note_contains o "FGKASLR costs")

let test_throughput_images_built_first () =
  (* throughput warms the cache before its first boot, so the images it
     boots must exist by then: a workspace that has never built them must
     give the same samples as one whose aws images were built up front *)
  let prebuilt = small_ws () in
  List.iter
    (fun v -> ignore (Workspace.built prebuilt Config.Aws v))
    [ Config.Nokaslr; Config.Kaslr; Config.Fgkaslr ];
  Testkit.check_outputs_identical
    (Testkit.run_experiment ~runs:3 "throughput" (small_ws ()))
    (Testkit.run_experiment ~runs:3 "throughput" prebuilt)

let test_fig9_parallel_identical () =
  (* cell-level fan-out with per-worker workspaces renders the exact
     table the sequential run does *)
  let render jobs =
    Boot_runner.default_jobs := jobs;
    Fun.protect
      ~finally:(fun () -> Boot_runner.default_jobs := 1)
      (fun () ->
        let o = Testkit.run_experiment "fig9" (small_ws ()) in
        Imk_util.Table.render o.Experiment.table)
  in
  check Alcotest.string "fig9 table identical" (render 1) (render 3)

let test_zygote_smoke () =
  let o = Testkit.run_experiment ~runs:3 "ablation-zygote" (small_ws ()) in
  check Alcotest.bool "restores faster" true (note_contains o "faster than boots")

let () =
  Alcotest.run "imk_harness"
    [
      ( "workspace",
        [
          Alcotest.test_case "builds once" `Quick test_workspace_builds_once;
          Alcotest.test_case "registers images" `Quick
            test_workspace_registers_images;
          Alcotest.test_case "bzimage" `Quick test_workspace_bzimage;
          Alcotest.test_case "functions override" `Quick
            test_workspace_functions_override;
        ] );
      ( "boot_runner",
        [
          Alcotest.test_case "stats" `Quick test_boot_runner_stats;
          Alcotest.test_case "span labels" `Quick test_boot_once_spans;
          Alcotest.test_case "empty phase n=0" `Quick
            test_empty_phase_reports_zero_count;
          Alcotest.test_case "ms precision" `Quick test_ms_keeps_fractional_ns;
          Alcotest.test_case "trace sink" `Quick test_trace_sink_fires;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "json" `Quick test_telemetry_json;
          Alcotest.test_case "schema2 roundtrip" `Quick test_schema2_roundtrip;
          Alcotest.test_case "empty + escaping" `Quick
            test_schema2_empty_and_escaping;
          Alcotest.test_case "duplicate labels" `Quick
            test_duplicate_labels_rejected;
          Alcotest.test_case "schema1 rejected" `Quick test_schema1_rejected;
          Alcotest.test_case "value_column traps" `Quick
            test_value_column_traps;
          Alcotest.test_case "baseline gate" `Quick test_baseline_gate;
        ] );
      ( "campaign_kit",
        [
          Alcotest.test_case "tally" `Quick test_kit_tally;
          Alcotest.test_case "run_ctx isolation" `Quick
            test_kit_run_ctx_isolation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1" `Quick test_table1_smoke;
          Alcotest.test_case "fig3" `Slow test_fig3_smoke;
          Alcotest.test_case "fig6" `Quick test_fig6_smoke;
          Alcotest.test_case "security" `Quick test_security_smoke;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "gate constructor" `Quick test_gate_constructor;
          Alcotest.test_case "gated campaigns pass" `Slow test_gated_campaigns;
          Alcotest.test_case "throughput" `Slow test_throughput_smoke;
          Alcotest.test_case "throughput images built first" `Quick
            test_throughput_images_built_first;
          Alcotest.test_case "fig9 parallel" `Slow test_fig9_parallel_identical;
          Alcotest.test_case "zygote" `Slow test_zygote_smoke;
        ] );
    ]
