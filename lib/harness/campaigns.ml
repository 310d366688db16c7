(* The gated campaigns: fault injection, resilience weather, the
   differential-oracle sweep and fleet serving. Each returns typed
   checks built with [Experiment.gate]. *)
open Imk_kernel
open Imk_monitor
open Experiment
open Exp_common

(* ---------- Fault-injection campaign ---------- *)

let faults { runs; _ } ws =
  (* Sweep fault kinds x boot paths x seeds under supervision and hold
     the soundness line: an armed fault must end as a typed failure or
     as a recovery with a recorded event — a silently green boot over
     corrupted bytes is a validator bug. Every cell run is fully
     private (own disk, cache, armed fault), so the table is
     bit-identical for any --jobs value. *)
  let module F = Imk_fault.Failure in
  let module I = Imk_fault.Inject in
  let module S = Boot_supervisor in
  let table =
    Imk_util.Table.create
      ~headers:
        [ "path"; "fault"; "runs"; "ok"; "recovered"; "failed"; "retries";
          "silent"; "failure kinds"; "total ms" ]
  in
  let mem = 64 * 1024 * 1024 in
  let preset = Config.Aws in
  let fault_seed run = (131 * run) + 7 in
  let kcfg = Workspace.config ws preset Config.Kaslr in
  (* build the cell inputs up front, on the calling domain *)
  let direct_k = Workspace.vmlinux_path ws preset Config.Kaslr in
  let direct_r = Workspace.relocs_path ws preset Config.Kaslr in
  let bz_k =
    Workspace.bzimage_path ws preset Config.Kaslr ~codec:"lz4"
      ~bz:Bzimage.Standard
  in
  let file name = (name, Imk_storage.Disk.find (Workspace.disk ws) name) in
  let direct_files = [ file direct_k; file direct_r ] in
  let bz_files = [ file bz_k ] in
  let direct_vmcfg ~seed =
    Vm_config.make ~rando:Vm_config.Rando_kaslr ~mem_bytes:mem
      ~relocs_path:(Some direct_r) ~kernel_path:direct_k ~kernel_config:kcfg
      ~seed ()
  in
  let bz_vmcfg ~seed =
    Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr
      ~rando:Vm_config.Rando_kaslr ~mem_bytes:mem
      ~loader:Vm_config.Loader_stripped ~kernel_path:bz_k ~kernel_config:kcfg
      ~seed ()
  in
  (* per-run context: private disk seeded with the pristine cell files,
     then the fault armed against it with a run-pure seed *)
  let ctx_for ~files ~kernel_path ?relocs_path kind ~run =
    let disk = Imk_storage.Disk.create () in
    List.iter (fun (name, b) -> Imk_storage.Disk.add disk ~name b) files;
    let inject =
      match kind with
      | None -> None
      | Some k ->
          (I.arm k ~seed:(fault_seed run) ~disk ~kernel_path ?relocs_path ())
            .I.inject
    in
    (* the plan cache is deliberately shared across runs and faults:
       content addressing must keep corrupted images from ever resolving
       to a pristine image's plan, and this campaign is the proof *)
    { S.cache = Imk_storage.Page_cache.create disk;
      inject;
      plans = Workspace.plans ws }
  in
  let silent_total = ref 0 and fault_runs = ref 0 in
  let rows = ref [] in
  let add_row ~path ~fault_label ~fault_armed (reports : S.report array) =
    if Array.length reports > 0 then
      rows :=
        {
          label = path ^ "/" ^ fault_label;
          total =
            Imk_util.Stats.summarize
              (Array.to_list
                 (Array.map (fun (r : S.report) -> float_of_int r.S.total_ns)
                    reports));
          phases = [];
        }
        :: !rows;
    let ok = ref 0 and recovered = ref 0 and failed = ref 0 in
    let retries = ref 0 and silent = ref 0 in
    let kinds = ref [] and total = ref 0. in
    Array.iter
      (fun (r : S.report) ->
        (match r.S.outcome with
        | Ok _ ->
            incr ok;
            if r.S.events <> [] then incr recovered
            else if fault_armed then incr silent
        | Error f ->
            incr failed;
            let k = F.kind_name f in
            if not (List.mem k !kinds) then kinds := k :: !kinds);
        List.iter
          (function F.Retried _ -> incr retries | _ -> ())
          r.S.events;
        total := !total +. float_of_int r.S.total_ns)
      reports;
    let n = Array.length reports in
    Imk_util.Table.add_row table
      [
        path;
        fault_label;
        string_of_int n;
        string_of_int !ok;
        string_of_int !recovered;
        string_of_int !failed;
        string_of_int !retries;
        string_of_int !silent;
        (match List.rev !kinds with [] -> "-" | l -> String.concat "," l);
        msv
          (if n = 0 then 0.
           else Imk_util.Units.ns_float_to_ms (!total /. float_of_int n));
      ];
    silent_total := !silent_total + !silent;
    if fault_armed then fault_runs := !fault_runs + n
  in
  let sweep ~path ~files ~kernel_path ?relocs_path ~make_vm kinds =
    List.iter
      (fun kind ->
        let reports =
          S.supervise_many ~runs
            ~ctx_for:(ctx_for ~files ~kernel_path ?relocs_path kind)
            ~make_vm ()
        in
        let fault_label =
          match kind with None -> "none" | Some k -> I.name k
        in
        add_row ~path ~fault_label ~fault_armed:(kind <> None) reports)
      kinds
  in
  sweep ~path:"direct/kaslr" ~files:direct_files ~kernel_path:direct_k
    ~relocs_path:direct_r ~make_vm:direct_vmcfg
    [
      None;
      Some I.Truncate_image;
      Some I.Flip_image_magic;
      Some I.Flip_entry_magic;
      Some I.Truncate_relocs;
      Some I.Flip_relocs_magic;
      Some I.Read_fault_entry_magic;
      Some (I.Transient_init 1);
    ];
  sweep ~path:"bz/lz4/kaslr" ~files:bz_files ~kernel_path:bz_k
    ~make_vm:bz_vmcfg
    [
      None;
      Some I.Flip_image_magic;
      Some I.Truncate_bzimage;
      Some I.Flip_bz_payload_crc;
      Some (I.Transient_init 1);
    ];
  (* snapshot path: one base snapshot per campaign, corrupted per run;
     a failed restore must degrade to a verify-green cold boot *)
  let snap_blob =
    let trace = Imk_vclock.Trace.create (Imk_vclock.Clock.create ()) in
    let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
    let base =
      Vmm.boot ?plans:(Workspace.plans ws) ch (Workspace.cache ws)
        (direct_vmcfg ~seed:404L)
    in
    Snapshot.serialize (Snapshot.capture base)
  in
  let snap_path = "base.snapshot" in
  let jobs = max 1 !Boot_runner.default_jobs in
  List.iter
    (fun (label, corrupt) ->
      let reports =
        Imk_util.Par.map_tasks ~jobs ~tasks:runs (fun ~worker:_ i ->
            let run = i + 1 in
            let seed = Boot_runner.run_seed run in
            let disk = Imk_storage.Disk.create () in
            List.iter
              (fun (name, b) -> Imk_storage.Disk.add disk ~name b)
              direct_files;
            Imk_storage.Disk.add disk ~name:snap_path
              (corrupt ~seed:(fault_seed run) snap_blob);
            let ctx =
              S.plain_ctx ?plans:(Workspace.plans ws)
                (Imk_storage.Page_cache.create disk)
            in
            S.supervise_snapshot ~seed ~ctx ~snapshot_path:snap_path
              ~working_set_pages:2048 (direct_vmcfg ~seed))
      in
      add_row ~path:"snapshot/kaslr" ~fault_label:label
        ~fault_armed:(label <> "none") reports)
    [
      ("none", fun ~seed:_ b -> b);
      ("snapshot-bit-flip", fun ~seed b -> I.flip_one_bit ~seed b);
      ( "snapshot-truncate",
        fun ~seed b -> Bytes.sub b 0 (Bytes.length b - (1 + (seed mod 128))) );
    ];
  {
    title = "Fault injection: typed detection and supervised recovery";
    table;
    notes =
      [
        "recovery is never free: retry backoff, reloc re-derivation and \
         cold-boot fallbacks are charged to the virtual clock in their own \
         spans (retry-backoff, rederive-relocs, snapshot-load)";
      ];
    telemetry = List.rev !rows;
    checks =
      [
        gate ~name:"soundness" ~cases:!fault_runs ~failures:!silent_total
          (Printf.sprintf
             "%d silent successes across %d fault-injected runs (every armed \
              fault must end as a typed failure or a recorded recovery)"
             !silent_total !fault_runs);
      ];
  }

(* ---------- Resilience campaign: weather x preset x boot path ---------- *)

(* one swept (preset, boot-path) point, built up front on the calling
   domain: pristine file bytes, injectable seams, and the calibrated
   per-attempt virtual-time budget *)
type resilience_cell = {
  c_path : string;  (* "aws/direct/kaslr" *)
  c_files : (string * bytes) list;
  c_kernel : string;
  c_relocs : string option;
  c_seams : Imk_fault.Inject.kind list;
  c_snapshot : (string * bytes) option;
  c_make : seed:int64 -> Vm_config.t;
  c_budget : int;
}

let resilience { runs; _ } ws =
  (* Sweep weather profile x preset x boot path under fleet supervision
     (circuit breakers, per-attempt deadlines, a campaign retry budget)
     and hold two lines: an armed fault must never boot silently green,
     and a recoverable fault must end recovered or as an accounted
     degradation (retry budget dry, breaker open). Weather, fault seeds
     and per-run state are pure functions of the (cell, run) index and
     each cell runs its boots sequentially against its own fleet, so the
     table is bit-identical for any --jobs value — parallelism lives
     between cells. *)
  let module F = Imk_fault.Failure in
  let module I = Imk_fault.Inject in
  let module W = Imk_fault.Weather in
  let module S = Boot_supervisor in
  let mem = 64 * 1024 * 1024 in
  let plans = Workspace.plans ws in
  let ms = Imk_util.Units.ns_float_to_ms in
  let file name = (name, Imk_storage.Disk.find (Workspace.disk ws) name) in
  let calibrated ~files ~make_vm =
    (* a clean warm boot of the cell's config, deterministic (no
       jitter); the attempt budget is 1.5x that — generous against ~1%
       jitter, tight enough that a cold-cache overload overruns it *)
    let disk = Imk_storage.Disk.create () in
    List.iter (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b) files;
    let cache = Imk_storage.Page_cache.create disk in
    List.iter (fun (n, _) -> Imk_storage.Page_cache.warm cache n) files;
    let ctx = S.plain_ctx ?plans cache in
    let r = S.supervise ~jitter:false ~seed:1L ~ctx (make_vm ~seed:1L) in
    match r.S.outcome with
    | Ok _ -> r.S.total_ns * 3 / 2
    | Error f ->
        invalid_arg ("resilience: calibration boot failed: " ^ F.describe f)
  in
  let direct_cell preset =
    let variant = Config.Kaslr in
    let k = Workspace.vmlinux_path ws preset variant in
    let r = Workspace.relocs_path ws preset variant in
    let kcfg = Workspace.config ws preset variant in
    let files = [ file k; file r ] in
    let make ~seed =
      Vm_config.make ~rando:Vm_config.Rando_kaslr ~mem_bytes:mem
        ~relocs_path:(Some r) ~kernel_path:k ~kernel_config:kcfg ~seed ()
    in
    {
      c_path = pname preset ^ "/direct/kaslr";
      c_files = files;
      c_kernel = k;
      c_relocs = Some r;
      c_seams =
        [
          I.Truncate_image; I.Flip_image_magic; I.Flip_entry_magic;
          I.Truncate_relocs; I.Flip_relocs_magic; I.Read_fault_entry_magic;
        ];
      c_snapshot = None;
      c_make = make;
      c_budget = calibrated ~files ~make_vm:make;
    }
  in
  let bz_cell preset =
    let variant = Config.Kaslr in
    let k =
      Workspace.bzimage_path ws preset variant ~codec:"lz4" ~bz:Bzimage.Standard
    in
    let kcfg = Workspace.config ws preset variant in
    let files = [ file k ] in
    let make ~seed =
      Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr
        ~rando:Vm_config.Rando_kaslr ~mem_bytes:mem
        ~loader:Vm_config.Loader_stripped ~kernel_path:k ~kernel_config:kcfg
        ~seed ()
    in
    {
      c_path = pname preset ^ "/bz/lz4/kaslr";
      c_files = files;
      c_kernel = k;
      c_relocs = None;
      c_seams = [ I.Flip_image_magic; I.Truncate_bzimage; I.Flip_bz_payload_crc ];
      c_snapshot = None;
      c_make = make;
      c_budget = calibrated ~files ~make_vm:make;
    }
  in
  let snapshot_cell preset =
    let d = direct_cell preset in
    (* one base snapshot per campaign; per-run corruption is a seed-pure
       bit flip. The budget stays the cold-boot fallback's: a warm
       restore fits easily under it, a cold one overruns and degrades. *)
    let blob =
      let trace = Imk_vclock.Trace.create (Imk_vclock.Clock.create ()) in
      let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
      let base = Vmm.boot ?plans ch (Workspace.cache ws) (d.c_make ~seed:404L) in
      Snapshot.serialize (Snapshot.capture base)
    in
    let snap_path = "base.snapshot" in
    let restore_budget =
      (* a clean warm restore, deterministic; the cell budget must admit
         both it and the cold-boot fallback, so take the max with the
         direct cell's. A cold blob read still overruns it. *)
      let disk = Imk_storage.Disk.create () in
      List.iter (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b) d.c_files;
      Imk_storage.Disk.add disk ~name:snap_path blob;
      let cache = Imk_storage.Page_cache.create disk in
      List.iter
        (fun n -> Imk_storage.Page_cache.warm cache n)
        (snap_path :: List.map fst d.c_files);
      let ctx = S.plain_ctx ?plans cache in
      let r =
        S.supervise_snapshot ~jitter:false ~seed:1L ~ctx
          ~snapshot_path:snap_path ~working_set_pages:2048 (d.c_make ~seed:1L)
      in
      match r.S.outcome with
      | Ok _ -> r.S.total_ns * 3 / 2
      | Error f ->
          invalid_arg
            ("resilience: calibration restore failed: " ^ F.describe f)
    in
    {
      d with
      c_path = pname preset ^ "/snapshot/kaslr";
      (* a stand-in seam so the forecast draws corruptions at the normal
         rate; the run loop maps every drawn fault to a blob bit flip *)
      c_seams = [ I.Flip_image_magic ];
      c_snapshot = Some (snap_path, blob);
      c_budget = max d.c_budget restore_budget;
    }
  in
  let cells =
    List.map direct_cell presets
    @ [ bz_cell Config.Aws; snapshot_cell Config.Aws ]
  in
  let policy_for profile ~budget =
    let base = { S.default_policy with S.attempt_budget_ns = Some budget } in
    match profile with
    | W.Calm | W.Flaky -> base
    | W.Storm -> { base with S.retry_budget = max 3 (runs / 2) }
  in
  let tasks_arr =
    Array.of_list
      (List.concat_map
         (fun profile -> List.map (fun c -> (profile, c)) cells)
         W.all_profiles)
  in
  let jobs = max 1 !Boot_runner.default_jobs in
  let per_cell =
    Imk_util.Par.map_tasks ~jobs ~tasks:(Array.length tasks_arr)
      (fun ~worker:_ ti ->
        let profile, cell = tasks_arr.(ti) in
        let weather = W.make profile ~seed:(1 + ti) in
        let fleet =
          S.fleet ~policy:(policy_for profile ~budget:cell.c_budget) ()
        in
        let out = ref [] in
        for run = 1 to runs do
          let seed = Boot_runner.run_seed run in
          let fc = W.forecast weather ~run ~seams:cell.c_seams in
          let disk = Imk_storage.Disk.create () in
          List.iter
            (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b)
            cell.c_files;
          let inject, snap_names =
            match cell.c_snapshot with
            | None ->
                ( (match fc.W.fault with
                  | None -> None
                  | Some kind ->
                      (I.arm kind ~seed:(W.fault_seed weather ~run) ~disk
                         ~kernel_path:cell.c_kernel
                         ?relocs_path:cell.c_relocs ())
                        .I.inject),
                  [] )
            | Some (snap_path, blob) ->
                (* snapshot cells read weather as snapshot-blob
                   corruption: any drawn fault flips one bit of the
                   CRC-framed blob, detectable by construction *)
                let blob =
                  match fc.W.fault with
                  | None -> blob
                  | Some _ ->
                      I.flip_one_bit ~seed:(W.fault_seed weather ~run) blob
                in
                Imk_storage.Disk.add disk ~name:snap_path blob;
                (None, [ snap_path ])
          in
          let cache = Imk_storage.Page_cache.create disk in
          if not fc.W.cold then
            List.iter
              (fun n -> Imk_storage.Page_cache.warm cache n)
              (List.map fst cell.c_files @ snap_names);
          let ctx = { S.cache; inject; plans } in
          let report =
            match cell.c_snapshot with
            | None -> S.supervise ~fleet ~seed ~ctx (cell.c_make ~seed)
            | Some (snap_path, _) ->
                S.supervise_snapshot ~fleet ~seed ~ctx ~snapshot_path:snap_path
                  ~working_set_pages:2048 (cell.c_make ~seed)
          in
          out := (report, fc) :: !out
        done;
        (profile, cell, Array.of_list (List.rev !out), S.breaker_trips fleet))
  in
  (* sequential aggregation, in task order *)
  let table =
    Imk_util.Table.create
      ~headers:
        [
          "profile"; "path"; "runs"; "ok"; "recovered"; "failed"; "short";
          "silent"; "unrec"; "retries"; "aborts"; "fallbacks"; "trips";
          "mttr ms"; "p50 ms"; "p99 ms";
        ]
  in
  let silent_total = ref 0 and unrecovered_total = ref 0 in
  let fault_runs = ref 0 in
  let calm_ns = ref [] and storm_ns = ref [] in
  let rows = ref [] in
  Array.iter
    (fun (profile, cell, rf, trips) ->
      let totals =
        Array.to_list
          (Array.map (fun ((r : S.report), _) -> float_of_int r.S.total_ns) rf)
      in
      (match profile with
      | W.Calm -> calm_ns := totals @ !calm_ns
      | W.Storm -> storm_ns := totals @ !storm_ns
      | W.Flaky -> ());
      let ok = ref 0 and recovered = ref 0 and failed = ref 0 in
      let short = ref 0 and silent = ref 0 and unrec = ref 0 in
      let retries = ref 0 and aborts = ref 0 and fallbacks = ref 0 in
      let mttr_ns = ref [] in
      Array.iter
        (fun ((r : S.report), (fc : W.forecast)) ->
          let armed = fc.W.fault <> None in
          if armed then incr fault_runs;
          let accounted_degradation =
            List.exists
              (function
                | F.Retry_budget_exhausted _ | F.Breaker_short_circuit _ ->
                    true
                | F.Breaker_probe { succeeded = false } -> true
                | _ -> false)
              r.S.events
          in
          List.iter
            (function
              | F.Retried _ -> incr retries
              | F.Deadline_aborted _ -> incr aborts
              | F.Fell_back_to_cold_boot _ -> incr fallbacks
              | F.Breaker_short_circuit _ -> incr short
              | _ -> ())
            r.S.events;
          match r.S.outcome with
          | Ok _ ->
              incr ok;
              if r.S.events <> [] then begin
                incr recovered;
                mttr_ns :=
                  float_of_int
                    (List.fold_left (fun a (_, d) -> a + d) 0 r.S.recovery)
                  :: !mttr_ns
              end
              else if armed then incr silent
          | Error f ->
              incr failed;
              let recoverable_here =
                match f with
                | F.Transient _ | F.Deadline_exceeded _ -> true
                | F.Bad_reloc _ -> cell.c_relocs <> None
                | F.Decode_error _ -> cell.c_snapshot <> None
                | _ -> false
              in
              if recoverable_here && not accounted_degradation then incr unrec)
        rf;
      let s = Imk_util.Stats.summarize totals in
      let prof = W.profile_name profile in
      Imk_util.Table.add_row table
        [
          prof; cell.c_path; string_of_int runs; string_of_int !ok;
          string_of_int !recovered; string_of_int !failed;
          string_of_int !short; string_of_int !silent; string_of_int !unrec;
          string_of_int !retries; string_of_int !aborts;
          string_of_int !fallbacks; string_of_int trips;
          (match !mttr_ns with
          | [] -> "-"
          | l -> msv (ms (Imk_util.Stats.mean l)));
          msv (ms s.Imk_util.Stats.p50);
          msv (ms s.Imk_util.Stats.p99);
        ];
      silent_total := !silent_total + !silent;
      unrecovered_total := !unrecovered_total + !unrec;
      (* telemetry: the cell's total distribution plus per-recovery-label
         per-boot sums as phases (raw ns floats, never re-parsed) *)
      let labels =
        Array.fold_left
          (fun acc ((r : S.report), _) ->
            List.fold_left
              (fun acc (l, _) -> if List.mem l acc then acc else acc @ [ l ])
              acc r.S.recovery)
          [] rf
      in
      let phase_sums label =
        Array.to_list rf
        |> List.filter_map (fun ((r : S.report), _) ->
               match List.filter (fun (l, _) -> l = label) r.S.recovery with
               | [] -> None
               | spans ->
                   Some
                     (float_of_int
                        (List.fold_left (fun a (_, d) -> a + d) 0 spans)))
      in
      rows :=
        {
          label = prof ^ "/" ^ cell.c_path;
          total = s;
          phases =
            List.map
              (fun l -> (l, Imk_util.Stats.summarize (phase_sums l)))
              labels;
        }
        :: !rows)
    per_cell;
  let weather_note =
    match (!calm_ns, !storm_ns) with
    | [], _ | _, [] -> []
    | c, st ->
        let cs = Imk_util.Stats.summarize c
        and ss = Imk_util.Stats.summarize st in
        [
          Printf.sprintf
            "storm vs calm: p50 %.1f ms vs %.1f ms (%.2fx), p99 %.1f ms vs \
             %.1f ms (%.2fx) — the tail is where the weather lives"
            (ms ss.Imk_util.Stats.p50) (ms cs.Imk_util.Stats.p50)
            (ss.Imk_util.Stats.p50 /. cs.Imk_util.Stats.p50)
            (ms ss.Imk_util.Stats.p99) (ms cs.Imk_util.Stats.p99)
            (ss.Imk_util.Stats.p99 /. cs.Imk_util.Stats.p99);
        ]
  in
  {
    title = "Resilience: weather x preset x boot path under fleet supervision";
    table;
    notes =
      weather_note
      @ [
          "recovery is charged and itemized: every report's labelled \
           recovery intervals sum to total_ns minus the successful attempt \
           (checked at report construction)";
        ];
    telemetry = List.rev !rows;
    checks =
      [
        gate ~name:"soundness" ~cases:!fault_runs ~failures:!silent_total
          (Printf.sprintf
             "%d of %d fault-laden runs booted green with no recorded event"
             !silent_total !fault_runs);
        (let runs_total = Array.length per_cell * runs in
         gate ~name:"recovery" ~cases:runs_total ~failures:!unrecovered_total
           (Printf.sprintf
              "%d of %d runs ended a recoverable fault (transient, deadline \
               overrun, bad relocs, snapshot corruption) as a failure with no \
               accounted degradation (retry budget dry, breaker open)"
              !unrecovered_total runs_total));
      ];
  }

let diffcheck { runs; mutate; _ } ws =
  (* Differential-oracle campaign (DESIGN.md §8): sweep the kernel
     matrix through the Imk_check catalogue, one point per run with a
     run-pure seed, fanned over --jobs. Images are built once per
     template on the calling domain (Workspace.built's table is not
     thread-safe and diffcheck builds its own envs anyway); each
     comparison instantiates a private disk and cache, so the table and
     telemetry are bit-identical for any --jobs value. *)
  let module O = Imk_check.Oracle in
  let module P = Imk_check.Point in
  let scale = Workspace.scale ws in
  let templates =
    List.map
      (fun (p : P.t) ->
        { p with
          P.functions =
            (Workspace.config ws p.P.preset p.P.variant).Config.functions })
      (P.matrix ~seed:0L ~functions:None)
  in
  (* only the templates the run count will actually cycle through get
     built; indexing by [i mod n_used] equals [i mod n_templates] in
     both the runs < n and runs >= n cases *)
  let n_used = min runs (List.length templates) in
  let images =
    Array.init n_used (fun i ->
        let tpl = List.nth templates i in
        (tpl, Imk_check.Env.build ~scale tpl))
  in
  let oracles = O.catalogue ~mutate in
  let jobs = max 1 !Boot_runner.default_jobs in
  let per_run =
    Imk_util.Par.map_tasks ~jobs ~tasks:runs (fun ~worker:_ i ->
        let tpl, imgs = images.(i mod n_used) in
        let point = { tpl with P.seed = Boot_runner.run_seed (i + 1) } in
        List.map (fun (o : O.t) -> (o.O.id, point, o.O.run imgs point)) oracles)
  in
  (* jobs-1 ≡ jobs-N: boot_many's rows must be bit-identical for any
     fan-out. Runs on the calling domain — boot_many does its own
     fan-out — and compares every field of every phase summary. *)
  let fan = 4 in
  let jobs_point, jobs_report =
    let tpl, imgs =
      let is_rep ((p : P.t), _) =
        p.P.preset = Config.Aws && p.P.variant = Config.Kaslr
        && p.P.codec = "lz4"
      in
      match Array.find_opt is_rep images with
      | Some x -> x
      | None -> images.(0)
    in
    let point = { tpl with P.seed = Boot_runner.run_seed 1 } in
    let series (s : Boot_runner.phase_stats) =
      List.concat_map
        (fun (name, (sum : Imk_util.Stats.summary)) ->
          [
            (name ^ ".n", float_of_int sum.Imk_util.Stats.n);
            (name ^ ".mean", sum.Imk_util.Stats.mean);
            (name ^ ".min", sum.Imk_util.Stats.min);
            (name ^ ".max", sum.Imk_util.Stats.max);
            (name ^ ".stddev", sum.Imk_util.Stats.stddev);
            (name ^ ".p50", sum.Imk_util.Stats.p50);
            (name ^ ".p90", sum.Imk_util.Stats.p90);
            (name ^ ".p99", sum.Imk_util.Stats.p99);
          ])
        [
          ("in-monitor", s.Boot_runner.in_monitor);
          ("bootstrap", s.Boot_runner.bootstrap);
          ("decompression", s.Boot_runner.decompression);
          ("linux-boot", s.Boot_runner.linux_boot);
          ("total", s.Boot_runner.total);
        ]
    in
    let report =
      O.of_run
        (fun imgs point ~note:_ ->
          let env = Imk_check.Env.instantiate imgs in
          let make_vm ~seed =
            Imk_check.Env.direct_config env { point with P.seed = seed }
          in
          let stats_at jobs =
            Boot_runner.boot_many ~warmups:2 ~jobs ~runs:5
              ~cache:env.Imk_check.Env.cache ~make_vm ()
          in
          O.compare_series (series (stats_at 1)) (series (stats_at fan)))
        imgs point
    in
    (point, report)
  in
  (* aggregation, in run order *)
  let table =
    Imk_util.Table.create
      ~headers:[ "oracle"; "comparisons"; "pass"; "divergent"; "first divergence" ]
  in
  let truncate s =
    if String.length s <= 72 then s else String.sub s 0 69 ^ "..."
  in
  let divergences = ref [] (* (oracle id, point, detail), reverse order *) in
  let add_oracle_row id (reports : (P.t * O.report) list) =
    let n = List.length reports in
    let divergent =
      List.filter
        (fun (_, (r : O.report)) ->
          match r.O.outcome with O.Pass -> false | O.Divergence _ -> true)
        reports
    in
    (match divergent with
    | (p, { O.outcome = O.Divergence d; _ }) :: _ ->
        divergences := (id, p, d) :: !divergences
    | _ -> ());
    Imk_util.Table.add_row table
      [
        id;
        string_of_int n;
        string_of_int (n - List.length divergent);
        string_of_int (List.length divergent);
        (match divergent with
        | (p, { O.outcome = O.Divergence d; _ }) :: _ ->
            truncate (P.name p ^ ": " ^ d)
        | _ -> "-");
      ];
    List.length divergent
  in
  let oracle_reports (o : O.t) =
    Array.to_list per_run
    |> List.concat_map
         (List.filter_map (fun (id, p, r) ->
              if id = o.O.id then Some (p, r) else None))
  in
  let divergent_total = ref 0 and comparisons = ref 0 in
  List.iter
    (fun (o : O.t) ->
      let reports = oracle_reports o in
      comparisons := !comparisons + List.length reports;
      divergent_total := !divergent_total + add_oracle_row o.O.id reports)
    oracles;
  incr comparisons;
  divergent_total :=
    !divergent_total
    + add_oracle_row (Printf.sprintf "jobs-1=%d" fan)
        [ (jobs_point, jobs_report) ];
  (* telemetry: per oracle, the virtual totals of every boot its
     comparisons ran — per-boot-label distributions as phases *)
  let telemetry =
    List.filter_map
      (fun (o : O.t) ->
        let reports = oracle_reports o in
        let all_ns =
          List.concat_map
            (fun (_, (r : O.report)) ->
              List.map (fun (_, ns) -> float_of_int ns) r.O.boot_ns)
            reports
        in
        if all_ns = [] then None
        else
          let labels =
            List.fold_left
              (fun acc (_, (r : O.report)) ->
                List.fold_left
                  (fun acc (lbl, _) ->
                    if List.mem lbl acc then acc else acc @ [ lbl ])
                  acc r.O.boot_ns)
              [] reports
          in
          Some
            {
              label = o.O.id;
              total = Imk_util.Stats.summarize all_ns;
              phases =
                List.map
                  (fun lbl ->
                    ( lbl,
                      Imk_util.Stats.summarize
                        (List.concat_map
                           (fun (_, (r : O.report)) ->
                             List.filter_map
                               (fun (l, ns) ->
                                 if l = lbl then Some (float_of_int ns)
                                 else None)
                               r.O.boot_ns)
                           reports) ))
                  labels;
            })
      oracles
  in
  (* the planted-fault protocol: --mutate must be CAUGHT by every
     mutating oracle, and each one's first caught point shrinks to a
     ready-to-paste reproducer *)
  let mutants =
    [
      ("cross-path", "off-by-one", fun () -> O.cross_path ~mutate:true ());
      ( "event-core-solo",
        "event reordering",
        fun () -> O.event_core_solo ~mutate:true () );
    ]
  in
  let mutant_checks, reproducers =
    if not mutate then ([], [])
    else
      List.split
        (List.map
           (fun (oid, fault, mk) ->
             let compared =
               Array.to_list per_run
               |> List.concat_map
                    (List.filter_map (fun (id, p, (r : O.report)) ->
                         if id = oid then Some (p, r.O.outcome) else None))
             in
             let caught =
               List.filter
                 (fun (_, o) ->
                   match o with O.Divergence _ -> true | O.Pass -> false)
                 compared
             in
             let n = List.length compared and c = List.length caught in
             let verdict =
               gate ~name:("mutant " ^ oid) ~cases:n ~failures:(n - c)
                 (Printf.sprintf "planted %s caught in %d/%d %s comparisons"
                    fault c n oid)
             in
             let repro =
               match caught with
               | (p0, _) :: _ when verdict.ok ->
                   let mutant : O.t = mk () in
                   let still_fails q =
                     match
                       (mutant.O.run (Imk_check.Env.build ~scale q) q).O.outcome
                     with
                     | O.Divergence _ -> true
                     | O.Pass -> false
                   in
                   let minimal = Imk_check.Shrink.minimize still_fails p0 in
                   String.split_on_char '\n' (Imk_check.Shrink.report minimal)
               | _ -> []
             in
             (verdict, repro))
           mutants)
  in
  let divergence_check =
    if mutate then
      let mutant_ids = List.map (fun (oid, _, _) -> oid) mutants in
      let outside =
        List.length
          (List.filter
             (fun (id, _, _) -> not (List.mem id mutant_ids))
             !divergences)
      in
      gate ~name:"divergences" ~cases:!comparisons ~failures:outside
        (Printf.sprintf
           "%d oracles outside cross-path and event-core-solo (which are \
            expected to diverge under --mutate) diverged across %d \
            comparisons"
           outside !comparisons)
    else
      gate ~name:"divergences" ~cases:!comparisons ~failures:!divergent_total
        (Printf.sprintf
           "%d of %d comparisons diverged (monitor/loader layouts, \
            event-core solo traces, plan-cache traces, snapshot clones, \
            arena recycling and jobs fan-out must agree bit for bit)"
           !divergent_total !comparisons)
  in
  {
    title = "Differential boot oracles: cross-path equivalence campaign";
    table;
    notes = List.concat reproducers;
    telemetry;
    checks = divergence_check :: mutant_checks;
  }

(* ---------- Fleet serving campaign (§7 economics) ---------- *)

(* the per-preset calibration behind the fleet simulator: real supervised
   boots, real snapshot restores and real fault-laden supervised boots,
   whose virtual totals become the serving simulator's cost samples *)
type fleet_cal = {
  f_cold : int array;  (* supervised cold boots, total ns *)
  f_warm : int array;  (* supervised snapshot restores, total ns *)
  f_fault : int array;  (* supervised fault-laden boots, recovery included *)
  f_silent : int;  (* armed faults that booted green with no event *)
  f_fault_runs : int;
}

let fleet { runs; requests; _ } ws =
  (* Sweep preset x arrival model x weather profile through the serving
     simulator (Imk_fleet): a virtual-time request stream scheduled onto
     a bounded warm pool with a bounded admission queue. Calibration
     boots run sequentially on the calling domain (supervised boots,
     snapshot restores and fault-laden boots, guest memory recycled
     through the workspace arena); every cell's simulation is then a
     pure function of its calibration arrays, the cell index and the
     request count, so the table and telemetry are bit-identical for any
     --jobs value — parallelism lives between cells. *)
  let module F = Imk_fault.Failure in
  let module I = Imk_fault.Inject in
  let module W = Imk_fault.Weather in
  let module S = Boot_supervisor in
  let module A = Imk_fleet.Arrival in
  let plans = Workspace.plans ws in
  let arena = Workspace.arena ws in
  let mem = 64 * 1024 * 1024 in
  let cal_runs = max 4 runs in
  let seams = [ I.Transient_init 1; I.Truncate_relocs; I.Flip_relocs_magic ] in
  let file name = (name, Imk_storage.Disk.find (Workspace.disk ws) name) in
  let calibrate preset =
    let variant = Config.Kaslr in
    let k = Workspace.vmlinux_path ws preset variant in
    let r = Workspace.relocs_path ws preset variant in
    let kcfg = Workspace.config ws preset variant in
    let files = [ file k; file r ] in
    let make ~seed =
      Vm_config.make ~rando:Vm_config.Rando_kaslr ~mem_bytes:mem
        ~relocs_path:(Some r) ~kernel_path:k ~kernel_config:kcfg ~seed ()
    in
    (* run-private warmed disk/cache, like every supervised campaign *)
    let warmed_cache extra =
      let disk = Imk_storage.Disk.create () in
      List.iter
        (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b)
        (files @ extra);
      let cache = Imk_storage.Page_cache.create disk in
      List.iter
        (fun (n, _) -> Imk_storage.Page_cache.warm cache n)
        (files @ extra);
      cache
    in
    let cold =
      Array.init cal_runs (fun i ->
          let seed = Boot_runner.run_seed (i + 1) in
          let ctx = S.plain_ctx ?plans (warmed_cache []) in
          let rep = S.supervise ~arena ~seed ~ctx (make ~seed) in
          match rep.S.outcome with
          | Ok _ -> rep.S.total_ns
          | Error f ->
              invalid_arg
                ("fleet: cold calibration boot failed: " ^ F.describe f))
    in
    (* the warm tier restores from one snapshot of this preset *)
    let snap_path = "fleet.snapshot" in
    let blob =
      let trace = Imk_vclock.Trace.create (Imk_vclock.Clock.create ()) in
      let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
      let base =
        Vmm.boot ?plans ch (Workspace.cache ws) (make ~seed:404L)
      in
      Snapshot.serialize (Snapshot.capture base)
    in
    let warm =
      Array.init cal_runs (fun i ->
          let seed = Boot_runner.run_seed (i + 1) in
          let ctx = S.plain_ctx ?plans (warmed_cache [ (snap_path, blob) ]) in
          let rep =
            S.supervise_snapshot ~arena ~seed ~ctx ~snapshot_path:snap_path
              ~working_set_pages:2048 (make ~seed)
          in
          match rep.S.outcome with
          | Ok _ -> rep.S.total_ns
          | Error f ->
              invalid_arg
                ("fleet: warm calibration restore failed: " ^ F.describe f))
    in
    let silent = ref 0 in
    let fault =
      Array.init cal_runs (fun i ->
          let run = i + 1 in
          let seed = Boot_runner.run_seed run in
          let kind = List.nth seams (i mod List.length seams) in
          let disk = Imk_storage.Disk.create () in
          List.iter (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b) files;
          let inject =
            (I.arm kind ~seed:((131 * run) + 7) ~disk ~kernel_path:k
               ~relocs_path:r ())
              .I.inject
          in
          let cache = Imk_storage.Page_cache.create disk in
          List.iter (fun (n, _) -> Imk_storage.Page_cache.warm cache n) files;
          let ctx = { S.cache; inject; plans } in
          let rep = S.supervise ~arena ~seed ~ctx (make ~seed) in
          (* the soundness line every fault campaign holds: an armed
             fault must surface as a typed failure or a recovery event *)
          (match rep.S.outcome with
          | Ok _ when rep.S.events = [] -> incr silent
          | _ -> ());
          rep.S.total_ns)
    in
    {
      f_cold = cold;
      f_warm = warm;
      f_fault = fault;
      f_silent = !silent;
      f_fault_runs = cal_runs;
    }
  in
  let cals = List.map (fun p -> (p, calibrate p)) presets in
  (* a warm pool smaller than the server count: under concurrency some
     admissions always miss, so the hit rate, eviction count and layout
     churn stay live signals instead of saturating at 100% *)
  let servers = 4 and pool_capacity = 2 and queue_capacity = 16 in
  let mean_ns a = Imk_util.Stats.mean (List.map float_of_int (Array.to_list a)) in
  let models cal =
    (* offered load sized against the pool-warmed steady state: at the
       target ~80% hit rate mean service is a warm/cold blend; 85% of
       server capacity at that service time keeps the cell busy without
       saturating it under calm weather, and the bursty model swings
       around the same mean (quiet halves, bursts 2.5x) *)
    let m_warm = mean_ns cal.f_warm and m_cold = mean_ns cal.f_cold in
    let m_svc = (0.8 *. m_warm) +. (0.2 *. m_cold) in
    let lambda = 0.85 *. float_of_int servers /. (m_svc /. 1e9) in
    [
      A.Poisson { rate_per_s = lambda };
      A.Bursty
        {
          base_per_s = lambda *. 0.5;
          burst_per_s = lambda *. 2.5;
          burst_len = 64;
          period = 256;
        };
    ]
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (preset, cal) ->
           List.concat_map
             (fun model ->
               List.map
                 (fun profile -> (preset, cal, model, profile))
                 W.all_profiles)
             (models cal))
         cals)
  in
  let jobs = max 1 !Boot_runner.default_jobs in
  let reports =
    Imk_util.Par.map_tasks ~jobs ~tasks:(Array.length cells)
      (fun ~worker:_ ti ->
        let _, cal, model, profile = cells.(ti) in
        (* calm cells carry no weather value at all: the calm forecast
           is constant (no faults, no cold), so skipping the draws is
           observationally identical and keeps the control rows cheap *)
        let weather =
          match profile with
          | W.Calm -> None
          | W.Flaky | W.Storm -> Some (W.make profile ~seed:(1 + ti))
        in
        Imk_fleet.Sim.run
          {
            Imk_fleet.Sim.arrival = model;
            seed = 7 * (ti + 1);
            requests;
            servers;
            pool_capacity;
            queue_capacity;
            cold_ns = cal.f_cold;
            warm_ns = cal.f_warm;
            fault_ns = cal.f_fault;
            weather;
            seams;
          })
  in
  (* sequential aggregation, in cell order *)
  let table =
    Imk_util.Table.create
      ~headers:
        [
          "kernel"; "arrival"; "weather"; "requests"; "served"; "dropped";
          "hit %"; "cold p50 ms"; "cold p99"; "warm p50"; "warm p99";
          "wait p99"; "depth p99"; "layouts";
        ]
  in
  let rows = ref [] in
  let pctl_cell (s : Imk_util.Stats.summary) v =
    if s.Imk_util.Stats.n = 0 then "-" else msn v
  in
  Array.iteri
    (fun ti (preset, _, model, profile) ->
      let r = reports.(ti) in
      let label =
        String.concat "/"
          [ pname preset; A.model_name model; W.profile_name profile ]
      in
      Imk_util.Table.add_row table
        [
          pname preset;
          A.model_name model;
          W.profile_name profile;
          string_of_int r.Imk_fleet.Sim.requests;
          string_of_int r.Imk_fleet.Sim.completed;
          string_of_int r.Imk_fleet.Sim.dropped;
          Printf.sprintf "%.1f" (100. *. r.Imk_fleet.Sim.hit_rate);
          pctl_cell r.Imk_fleet.Sim.cold_service
            r.Imk_fleet.Sim.cold_service.Imk_util.Stats.p50;
          pctl_cell r.Imk_fleet.Sim.cold_service
            r.Imk_fleet.Sim.cold_service.Imk_util.Stats.p99;
          pctl_cell r.Imk_fleet.Sim.warm_service
            r.Imk_fleet.Sim.warm_service.Imk_util.Stats.p50;
          pctl_cell r.Imk_fleet.Sim.warm_service
            r.Imk_fleet.Sim.warm_service.Imk_util.Stats.p99;
          pctl_cell r.Imk_fleet.Sim.queue_wait
            r.Imk_fleet.Sim.queue_wait.Imk_util.Stats.p99;
          (if r.Imk_fleet.Sim.queue_depth.Imk_util.Stats.n = 0 then "-"
           else
             Printf.sprintf "%.0f" r.Imk_fleet.Sim.queue_depth.Imk_util.Stats.p99);
          string_of_int r.Imk_fleet.Sim.distinct_layouts;
        ];
      if r.Imk_fleet.Sim.completed > 0 then
        rows :=
          {
            label;
            total = r.Imk_fleet.Sim.sojourn;
            phases =
              List.filter
                (fun (_, (s : Imk_util.Stats.summary)) -> s.Imk_util.Stats.n > 0)
                [
                  ("cold-start", r.Imk_fleet.Sim.cold_service);
                  ("warm-start", r.Imk_fleet.Sim.warm_service);
                  ("fault-start", r.Imk_fleet.Sim.fault_service);
                  ("queue-wait", r.Imk_fleet.Sim.queue_wait);
                ];
          }
          :: !rows)
    cells;
  let silent_total =
    List.fold_left (fun a (_, c) -> a + c.f_silent) 0 cals
  in
  let fault_runs_total =
    List.fold_left (fun a (_, c) -> a + c.f_fault_runs) 0 cals
  in
  let agg f =
    Array.to_list reports |> List.concat_map f
  in
  let economics_note =
    let colds = agg (fun r -> if r.Imk_fleet.Sim.cold_service.Imk_util.Stats.n = 0 then [] else [ r.Imk_fleet.Sim.cold_service.Imk_util.Stats.p50 ]) in
    let warms = agg (fun r -> if r.Imk_fleet.Sim.warm_service.Imk_util.Stats.n = 0 then [] else [ r.Imk_fleet.Sim.warm_service.Imk_util.Stats.p50 ]) in
    let hits = agg (fun r -> if r.Imk_fleet.Sim.pool_hits + r.Imk_fleet.Sim.pool_misses = 0 then [] else [ r.Imk_fleet.Sim.hit_rate ]) in
    match (colds, warms, hits) with
    | [], _, _ | _, [], _ | _, _, [] -> []
    | _ ->
        [
          (* stated as measured, no baked-in direction: the cold/warm
             gap is what a zygote tier bridges and in-monitor KASLR
             shrinks, but smoke-sized kernels (--functions) can invert
             it — fixed restore costs dominate tiny images *)
          Printf.sprintf
            "pool economics: warm restore p50 %.1f ms vs cold boot p50 %.1f \
             ms (cold/warm %.2fx) at a %.0f%% mean hit rate"
            (Imk_util.Units.ns_float_to_ms (Imk_util.Stats.mean warms))
            (Imk_util.Units.ns_float_to_ms (Imk_util.Stats.mean colds))
            (Imk_util.Stats.mean colds /. Imk_util.Stats.mean warms)
            (100. *. Imk_util.Stats.mean hits);
        ]
  in
  let weather_note =
    let per p f =
      Array.to_list cells
      |> List.mapi (fun ti (_, _, _, profile) ->
             if profile = p then f reports.(ti) else 0)
      |> List.fold_left ( + ) 0
    in
    let drops p = per p (fun r -> r.Imk_fleet.Sim.dropped) in
    let faults p = per p (fun r -> r.Imk_fleet.Sim.fault_starts) in
    [
      Printf.sprintf
        "weather and the queue: drops calm/flaky/storm = %d/%d/%d, \
         fault-laden starts %d/%d/%d — faults hold servers through \
         recovery and forecast-forced cold starts bypass the warm pool, \
         so weather shows in serving SLOs, not boot means"
        (drops W.Calm) (drops W.Flaky) (drops W.Storm) (faults W.Calm)
        (faults W.Flaky) (faults W.Storm);
    ]
  in
  let layout_note =
    let served =
      Array.fold_left (fun a r -> a + r.Imk_fleet.Sim.completed) 0 reports
    in
    let layouts =
      Array.fold_left (fun a r -> a + r.Imk_fleet.Sim.distinct_layouts) 0 reports
    in
    [
      Printf.sprintf
        "layout diversity: %d requests served from %d distinct layouts — \
         warm reuse freezes a layout for its pool lifetime; only (cheap, \
         in-monitor-randomized) cold boots re-diversify the fleet"
        served layouts;
    ]
  in
  {
    title =
      Printf.sprintf
        "Fleet serving: %d requests/cell over warm pools (%d slots, pool %d, \
         queue %d)"
        requests servers pool_capacity queue_capacity;
    table;
    notes = economics_note @ weather_note @ layout_note;
    telemetry = List.rev !rows;
    checks =
      [
        gate ~name:"soundness" ~cases:fault_runs_total ~failures:silent_total
          (Printf.sprintf
             "%d of %d fault-laden calibration boots booted green with no \
              recorded event (every fault-start cost must include a typed, \
              supervised recovery)"
             silent_total fault_runs_total);
      ];
  }

let entries =
  [
    { id = "faults"; run = faults };
    { id = "resilience"; run = resilience };
    { id = "diffcheck"; run = diffcheck };
    { id = "fleet"; run = fleet };
  ]
