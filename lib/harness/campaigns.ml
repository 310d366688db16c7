(* The gated campaigns: fault injection, resilience weather, the
   differential-oracle sweep and fleet serving. Each returns typed
   checks built with [Experiment.gate]. *)
open Imk_kernel
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
  let module I = Imk_fault.Inject in
  let module S = Boot_supervisor in
  let table =
    Imk_util.Table.create
      ~headers:
        [ "path"; "fault"; "runs"; "ok"; "recovered"; "failed"; "retries";
          "silent"; "failure kinds"; "total ms" ]
  in
  let fault_seed run = (131 * run) + 7 in
  let direct = direct_cell ws Config.Aws and bz = bz_cell ws Config.Aws in
  let silent_total = ref 0 and fault_runs = ref 0 in
  let rows = ref [] in
  let add_row ~path ~fault_label ~fault_armed (reports : S.report array) =
    let mean_ns =
      match
        Array.to_list
          (Array.map (fun (r : S.report) -> float_of_int r.S.total_ns) reports)
      with
      | [] -> 0.
      | totals ->
          let total = Imk_util.Stats.summarize totals in
          let label = path ^ "/" ^ fault_label in
          rows := { label; total; phases = [] } :: !rows;
          total.Imk_util.Stats.mean
    in
    let t = tally (Array.map (fun r -> (r, fault_armed)) reports) in
    Imk_util.Table.add_row table
      [
        path;
        fault_label;
        string_of_int (Array.length reports);
        string_of_int t.ok;
        string_of_int t.recovered;
        string_of_int t.failed;
        string_of_int t.retries;
        string_of_int t.silent;
        (match t.kinds with [] -> "-" | l -> String.concat "," l);
        msn mean_ns;
      ];
    silent_total := !silent_total + t.silent;
    fault_runs := !fault_runs + t.armed
  in
  (* one supervised boot per run, fanned over --jobs: run [run]
     (1-based) is seeded [run_seed run] and builds its private context
     on its worker *)
  let per_run boot =
    fan_out ~tasks:runs (fun ~worker:_ i ->
        let run = i + 1 in
        boot ~run ~seed:(Boot_runner.run_seed run))
  in
  let sweep cell kinds =
    List.iter
      (fun kind ->
        (* the cell's files, re-armed per run with a run-pure seed *)
        let reports =
          per_run (fun ~run ~seed ->
              let ctx =
                run_ctx
                  ?fault:(Option.map (fun k -> (k, fault_seed run)) kind)
                  ws cell
              in
              S.supervise ~seed ~ctx (cell.make_vm ~seed))
        in
        let fault_label =
          match kind with None -> "none" | Some k -> I.name k
        in
        add_row ~path:cell.path ~fault_label ~fault_armed:(kind <> None)
          reports)
      kinds
  in
  sweep direct
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
  sweep bz
    [
      None;
      Some I.Flip_image_magic;
      Some I.Truncate_bzimage;
      Some I.Flip_bz_payload_crc;
      Some (I.Transient_init 1);
    ];
  (* snapshot path: one base snapshot per campaign, corrupted per run;
     a failed restore must degrade to a verify-green cold boot *)
  let snap_blob = snapshot_blob ws direct in
  let snap_path = "base.snapshot" in
  List.iter
    (fun (label, corrupt) ->
      let reports =
        per_run (fun ~run ~seed ->
            let ctx =
              run_ctx
                ~extra:[ (snap_path, corrupt ~seed:(fault_seed run) snap_blob) ]
                ws direct
            in
            S.supervise_snapshot ~seed ~ctx ~snapshot_path:snap_path
              ~working_set_pages:2048 (direct.make_vm ~seed))
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
   domain: the kit cell, its injectable seams, and the calibrated
   per-attempt virtual-time budget *)
type resilience_cell = {
  c_label : string;  (* "aws/direct/kaslr" *)
  c_cell : cell;
  c_seams : Imk_fault.Inject.kind list;
  c_snapshot : (string * bytes) option;
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
  let ms = Imk_util.Units.ns_float_to_ms in
  (* a clean warm boot of the cell's config, deterministic (no jitter);
     the attempt budget is 1.5x that — generous against ~1% jitter,
     tight enough that a cold-cache overload overruns it *)
  let calibrated cell =
    total_exn "resilience: calibration boot failed"
      (S.supervise ~jitter:false ~seed:1L ~ctx:(run_ctx ~warm:true ws cell)
         (cell.make_vm ~seed:1L))
    * 3 / 2
  in
  let resilience_cell preset cell seams =
    {
      c_label = pname preset ^ "/" ^ cell.path;
      c_cell = cell;
      c_seams = seams;
      c_snapshot = None;
      c_budget = calibrated cell;
    }
  in
  let direct preset =
    resilience_cell preset (direct_cell ws preset)
      [
        I.Truncate_image; I.Flip_image_magic; I.Flip_entry_magic;
        I.Truncate_relocs; I.Flip_relocs_magic; I.Read_fault_entry_magic;
      ]
  in
  let bz preset =
    resilience_cell preset (bz_cell ws preset)
      [ I.Flip_image_magic; I.Truncate_bzimage; I.Flip_bz_payload_crc ]
  in
  let snapshot preset =
    let d = direct preset in
    (* one base snapshot per campaign; per-run corruption is a seed-pure
       bit flip. The budget stays the cold-boot fallback's: a warm
       restore fits easily under it, a cold one overruns and degrades. *)
    let blob = snapshot_blob ws d.c_cell in
    let snap_path = "base.snapshot" in
    let restore_budget =
      (* a clean warm restore, deterministic; the cell budget must admit
         both it and the cold-boot fallback, so take the max with the
         direct cell's. A cold blob read still overruns it. *)
      let ctx = run_ctx ~warm:true ~extra:[ (snap_path, blob) ] ws d.c_cell in
      total_exn "resilience: calibration restore failed"
        (S.supervise_snapshot ~jitter:false ~seed:1L ~ctx
           ~snapshot_path:snap_path ~working_set_pages:2048
           (d.c_cell.make_vm ~seed:1L))
      * 3 / 2
    in
    {
      d with
      c_label = pname preset ^ "/snapshot/kaslr";
      (* a stand-in seam so the forecast draws corruptions at the normal
         rate; the run loop maps every drawn fault to a blob bit flip *)
      c_seams = [ I.Flip_image_magic ];
      c_snapshot = Some (snap_path, blob);
      c_budget = max d.c_budget restore_budget;
    }
  in
  let cells =
    List.map direct presets @ [ bz Config.Aws; snapshot Config.Aws ]
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
  let per_cell =
    fan_out ~tasks:(Array.length tasks_arr) (fun ~worker:_ ti ->
        let profile, cell = tasks_arr.(ti) in
        let weather = W.make profile ~seed:(1 + ti) in
        let fleet =
          S.fleet ~policy:(policy_for profile ~budget:cell.c_budget) ()
        in
        let out = ref [] in
        for run = 1 to runs do
          let seed = Boot_runner.run_seed run in
          let fc = W.forecast weather ~run ~seams:cell.c_seams in
          let fault_seed = W.fault_seed weather ~run in
          let warm = not fc.W.cold in
          let make_vm = cell.c_cell.make_vm in
          let report =
            match cell.c_snapshot with
            | None ->
                let ctx =
                  run_ctx ~warm
                    ?fault:(Option.map (fun k -> (k, fault_seed)) fc.W.fault)
                    ws cell.c_cell
                in
                S.supervise ~fleet ~seed ~ctx (make_vm ~seed)
            | Some (snap_path, blob) ->
                (* snapshot cells read weather as snapshot-blob
                   corruption: any drawn fault flips one bit of the
                   CRC-framed blob, detectable by construction *)
                let blob =
                  match fc.W.fault with
                  | None -> blob
                  | Some _ -> I.flip_one_bit ~seed:fault_seed blob
                in
                let ctx =
                  run_ctx ~warm ~extra:[ (snap_path, blob) ] ws cell.c_cell
                in
                S.supervise_snapshot ~fleet ~seed ~ctx ~snapshot_path:snap_path
                  ~working_set_pages:2048 (make_vm ~seed)
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
      let t = tally (Array.map (fun (r, fc) -> (r, fc.W.fault <> None)) rf) in
      fault_runs := !fault_runs + t.armed;
      let short = ref 0 and unrec = ref 0 in
      let aborts = ref 0 and fallbacks = ref 0 in
      let mttr_ns = ref [] in
      Array.iter
        (fun ((r : S.report), _) ->
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
              | F.Deadline_aborted _ -> incr aborts
              | F.Fell_back_to_cold_boot _ -> incr fallbacks
              | F.Breaker_short_circuit _ -> incr short
              | _ -> ())
            r.S.events;
          match r.S.outcome with
          | Ok _ ->
              if r.S.events <> [] then
                mttr_ns :=
                  float_of_int
                    (List.fold_left (fun a (_, d) -> a + d) 0 r.S.recovery)
                  :: !mttr_ns
          | Error f ->
              let recoverable_here =
                match f with
                | F.Transient _ | F.Deadline_exceeded _ -> true
                | F.Bad_reloc _ -> cell.c_cell.relocs <> None
                | F.Decode_error _ -> cell.c_snapshot <> None
                | _ -> false
              in
              if recoverable_here && not accounted_degradation then incr unrec)
        rf;
      let s = Imk_util.Stats.summarize totals in
      let prof = W.profile_name profile in
      Imk_util.Table.add_row table
        [
          prof; cell.c_label; string_of_int runs; string_of_int t.ok;
          string_of_int t.recovered; string_of_int t.failed;
          string_of_int !short; string_of_int t.silent; string_of_int !unrec;
          string_of_int t.retries; string_of_int !aborts;
          string_of_int !fallbacks; string_of_int trips;
          (match !mttr_ns with
          | [] -> "-"
          | l -> msv (ms (Imk_util.Stats.mean l)));
          msv (ms s.Imk_util.Stats.p50);
          msv (ms s.Imk_util.Stats.p99);
        ];
      silent_total := !silent_total + t.silent;
      unrecovered_total := !unrecovered_total + !unrec;
      (* telemetry: the cell's total distribution plus per-recovery-label
         per-boot sums as phases (raw ns floats, never re-parsed) *)
      rows :=
        {
          label = prof ^ "/" ^ cell.c_label;
          total = s;
          phases =
            labelled_phases
              (Array.to_list (Array.map (fun (r, _) -> r.S.recovery) rf));
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
  let per_run =
    fan_out ~tasks:runs (fun ~worker:_ i ->
        let tpl, imgs = images.(i mod n_used) in
        let point = { tpl with P.seed = Boot_runner.run_seed (i + 1) } in
        List.map (fun (o : O.t) -> (o.O.id, point, o.O.run imgs point)) oracles)
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
  let diverged (r : O.report) = r.O.outcome <> O.Pass in
  let add_oracle_row id (reports : (P.t * O.report) list) =
    let n = List.length reports in
    let divergent = List.filter (fun (_, r) -> diverged r) reports in
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
  let oracle_reports oid =
    Array.to_list per_run
    |> List.concat_map
         (List.filter_map (fun (id, p, r) ->
              if id = oid then Some (p, r) else None))
  in
  let divergent_total = ref 0 and comparisons = ref 0 in
  List.iter
    (fun (o : O.t) ->
      let reports = oracle_reports o.O.id in
      comparisons := !comparisons + List.length reports;
      divergent_total := !divergent_total + add_oracle_row o.O.id reports)
    oracles;
  (* telemetry: per oracle, the virtual totals of every boot its
     comparisons ran — per-boot-label distributions as phases *)
  let telemetry =
    List.filter_map
      (fun (o : O.t) ->
        let reports = oracle_reports o.O.id in
        let all_ns =
          List.concat_map
            (fun (_, (r : O.report)) ->
              List.map (fun (_, ns) -> float_of_int ns) r.O.boot_ns)
            reports
        in
        if all_ns = [] then None
        else
          Some
            {
              label = o.O.id;
              total = Imk_util.Stats.summarize all_ns;
              phases =
                labelled_phases
                  (List.map (fun (_, (r : O.report)) -> r.O.boot_ns) reports);
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
             let compared = oracle_reports oid in
             let caught = List.filter (fun (_, r) -> diverged r) compared in
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
                     diverged (mutant.O.run (Imk_check.Env.build ~scale q) q)
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
            event-core solo traces, plan-cache traces, snapshot clones \
            and arena recycling must agree bit for bit)"
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
  f_fault : Boot_supervisor.report array;  (* fault-laden supervised boots *)
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
  let module I = Imk_fault.Inject in
  let module W = Imk_fault.Weather in
  let module S = Boot_supervisor in
  let module A = Imk_fleet.Arrival in
  let arena = Workspace.arena ws in
  let cal_runs = max 4 runs in
  let seams = [ I.Transient_init 1; I.Truncate_relocs; I.Flip_relocs_magic ] in
  let calibrate preset =
    (* every calibration run gets a private warmed disk/cache *)
    let cell = direct_cell ws preset in
    let make_vm = cell.make_vm in
    let cold =
      Array.init cal_runs (fun i ->
          let seed = Boot_runner.run_seed (i + 1) in
          let ctx = run_ctx ~warm:true ws cell in
          total_exn "fleet: cold calibration boot failed"
            (S.supervise ~arena ~seed ~ctx (make_vm ~seed)))
    in
    (* the warm tier restores from one snapshot of this preset *)
    let snap_path = "fleet.snapshot" in
    let blob = snapshot_blob ws cell in
    let warm =
      Array.init cal_runs (fun i ->
          let seed = Boot_runner.run_seed (i + 1) in
          let ctx = run_ctx ~warm:true ~extra:[ (snap_path, blob) ] ws cell in
          total_exn "fleet: warm calibration restore failed"
            (S.supervise_snapshot ~arena ~seed ~ctx ~snapshot_path:snap_path
               ~working_set_pages:2048 (make_vm ~seed)))
    in
    let fault =
      Array.init cal_runs (fun i ->
          let run = i + 1 in
          let seed = Boot_runner.run_seed run in
          let kind = List.nth seams (i mod List.length seams) in
          let ctx = run_ctx ~warm:true ~fault:(kind, (131 * run) + 7) ws cell in
          S.supervise ~arena ~seed ~ctx (make_vm ~seed))
    in
    { f_cold = cold; f_warm = warm; f_fault = fault }
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
  let reports =
    fan_out ~tasks:(Array.length cells) (fun ~worker:_ ti ->
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
            fault_ns =
              Array.map (fun (r : S.report) -> r.S.total_ns) cal.f_fault;
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
  (* the soundness line every fault campaign holds: an armed fault must
     surface as a typed failure or a recovery event *)
  let sound =
    tally
      (Array.concat
         (List.map
            (fun (_, c) -> Array.map (fun r -> (r, true)) c.f_fault)
            cals))
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
        gate ~name:"soundness" ~cases:sound.armed ~failures:sound.silent
          (Printf.sprintf
             "%d of %d fault-laden calibration boots booted green with no \
              recorded event (every fault-start cost must include a typed, \
              supervised recovery)"
             sound.silent sound.armed);
      ];
  }

let entries =
  [
    { id = "faults"; run = faults };
    { id = "resilience"; run = resilience };
    { id = "diffcheck"; run = diffcheck };
    { id = "fleet"; run = fleet };
  ]
