type outcome = Pass | Divergence of string

type report = {
  outcome : outcome;
  boot_ns : (string * int) list;
}

type t = {
  id : string;
  doc : string;
  run : Env.images -> Point.t -> report;
}

let boot ?plans ?choices ?mem cache vm =
  let clock = Imk_vclock.Clock.create () in
  let trace = Imk_vclock.Trace.create clock in
  let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
  let r = Imk_monitor.Vmm.boot ?plans ?choices ?mem ch cache vm in
  (trace, r)

(* invariants phrased as "telemetry is bit-identical" are checked at span
   granularity: same labels, same phases, same start/stop instants *)
let span_list_diff la lb =
  if List.length la <> List.length lb then
    Some
      (Printf.sprintf "span count: %d vs %d" (List.length la)
         (List.length lb))
  else
    let pp (s : Imk_vclock.Trace.span) =
      Printf.sprintf "%s/%s[%d,%d]"
        (Imk_vclock.Trace.phase_name s.Imk_vclock.Trace.phase)
        s.Imk_vclock.Trace.label s.Imk_vclock.Trace.start_ns
        s.Imk_vclock.Trace.stop_ns
    in
    List.fold_left2
      (fun acc sa sb ->
        match acc with
        | Some _ -> acc
        | None ->
            if sa = sb then None
            else Some (Printf.sprintf "span %s vs %s" (pp sa) (pp sb)))
      None la lb

let spans_diff ta tb =
  span_list_diff (Imk_vclock.Trace.spans ta) (Imk_vclock.Trace.spans tb)

(* an oracle must report a boot that dies as a divergence of the
   comparison, not kill the campaign: the exception text is the finding.
   [boots] accumulates the virtual totals of the boots that completed,
   so even a divergent comparison contributes deterministic telemetry *)
let of_run f images point =
  let boots = ref [] in
  let note label trace =
    boots := (label, Imk_vclock.Trace.total trace) :: !boots
  in
  let outcome =
    try f images point ~note
    with e -> Divergence ("raised: " ^ Printexc.to_string e)
  in
  { outcome; boot_ns = List.rev !boots }

let layout_outcome ?compare_phys a b =
  match Layout.diff ?compare_phys a b with
  | None -> Pass
  | Some d -> Divergence d

(* --- monitor ≡ bootstrap loader --- *)

let plant_off_by_one (l : Layout.t) =
  let image = Bytes.copy l.Layout.image in
  let off = Bytes.length image / 2 in
  Bytes.set image off
    (Char.chr ((Char.code (Bytes.get image off) + 1) land 0xff));
  { l with Layout.image }

let cross_path ?(mutate = false) () =
  {
    id = "cross-path";
    doc = "monitor and bootstrap loader produce the same layout bytes";
    run =
      of_run (fun images point ~note ->
          let env = Env.instantiate images in
          let choices =
            if Point.rando point = Imk_monitor.Vm_config.Rando_off then None
            else Some (Imk_randomize.Choices.of_seed point.Point.seed)
          in
          let ta, ra = boot ?choices env.Env.cache (Env.direct_config env point) in
          note "direct" ta;
          let a = Layout.of_result ra in
          let tb, rb = boot ?choices env.Env.cache (Env.bz_config env point) in
          note "bz" tb;
          let b = Layout.of_result rb in
          let b = if mutate then plant_off_by_one b else b in
          layout_outcome a b);
  }

(* --- linear clock ≡ solo boot on the event scheduler --- *)

(* the planted sensitivity fault for the event core: one event
   reordering, surfaced as two adjacent spans swapped in the recorded
   trace. Every boot records at least two spans, so the exact span
   comparison below must always report it *)
let swap_adjacent = function a :: b :: rest -> b :: a :: rest | l -> l

let event_core_solo ?(mutate = false) () =
  {
    id = "event-core-solo";
    doc = "a solo boot on the event scheduler charges the linear clock's spans";
    run =
      of_run (fun images point ~note ->
          (* a private env per side (as in [plan_cache]): both boots read
             a cold cache, so read costs cannot skew the comparison. The
             bz path sweeps the point's codec through the decompress
             slot; the direct path would never exercise it *)
          let env_a = Env.instantiate images in
          let ta, ra = boot env_a.Env.cache (Env.bz_config env_a point) in
          note "linear" ta;
          let env_b = Env.instantiate images in
          let sched = Imk_vclock.Sched.create () in
          let tl = Imk_vclock.Sched.timeline sched in
          let trace =
            Imk_vclock.Trace.create (Imk_vclock.Sched.timeline_clock tl)
          in
          let ch =
            Imk_vclock.Charge.create ~sched:tl trace
              Imk_vclock.Cost_model.default
          in
          let result = ref None in
          Imk_vclock.Sched.spawn sched tl (fun () ->
              result :=
                Some
                  (Imk_monitor.Vmm.boot ch env_b.Env.cache
                     (Env.bz_config env_b point)));
          Imk_vclock.Sched.run sched;
          note "event-core" trace;
          let spans_b = Imk_vclock.Trace.spans trace in
          let spans_b = if mutate then swap_adjacent spans_b else spans_b in
          match span_list_diff (Imk_vclock.Trace.spans ta) spans_b with
          | Some d -> Divergence ("trace " ^ d)
          | None -> (
              match !result with
              | None -> Divergence "event-core boot completed without a result"
              | Some rb ->
                  layout_outcome ~compare_phys:true (Layout.of_result ra)
                    (Layout.of_result rb)));
  }

(* --- plan cache on ≡ off --- *)

let plan_cache =
  {
    id = "plan-cache";
    doc = "a plan-cache hit changes no span and no layout byte";
    run =
      of_run (fun images point ~note ->
          let second_boot label plans =
            (* a private env per side: both sides' compared boot is the
               second one, so page-cache warmth matches too *)
            let env = Env.instantiate images in
            let vm = Env.direct_config env point in
            let _ = boot ?plans env.Env.cache vm in
            let trace, r = boot ?plans env.Env.cache vm in
            note label trace;
            (trace, Layout.of_result r)
          in
          let plans = Imk_monitor.Plan_cache.create () in
          let t_cached, l_cached = second_boot "cached" (Some plans) in
          let t_cold, l_cold = second_boot "uncached" None in
          let hits, _ = Imk_monitor.Plan_cache.stats plans in
          if hits = 0 then Divergence "vacuous: the plan cache was never hit"
          else
            match spans_diff t_cached t_cold with
            | Some d -> Divergence ("trace " ^ d)
            | None -> layout_outcome ~compare_phys:true l_cached l_cold);
  }

(* --- snapshot restore ≡ the boot it captured --- *)

let snapshot_cold =
  {
    id = "snapshot-cold";
    doc = "a restored snapshot clone equals the boot it captured";
    run =
      of_run (fun images point ~note ->
          let env = Env.instantiate images in
          let t, r = boot env.Env.cache (Env.direct_config env point) in
          note "cold" t;
          let orig = Layout.of_result r in
          let blob =
            Imk_monitor.Snapshot.serialize (Imk_monitor.Snapshot.capture r)
          in
          let snap =
            Imk_monitor.Snapshot.load ~config:r.Imk_monitor.Vmm.config blob
          in
          let clock = Imk_vclock.Clock.create () in
          let trace = Imk_vclock.Trace.create clock in
          let ch =
            Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default
          in
          let restored =
            Imk_monitor.Snapshot.restore ch snap ~working_set_pages:32
          in
          note "restore" trace;
          layout_outcome ~compare_phys:true orig (Layout.of_result restored));
  }

(* --- arena-recycled ≡ fresh guest memory --- *)

let arena_fresh =
  {
    id = "arena-fresh";
    doc = "a boot into a recycled buffer equals one into fresh memory";
    run =
      of_run (fun images point ~note ->
          let env = Env.instantiate images in
          let arena = Imk_memory.Arena.create () in
          let vm = Env.direct_config env point in
          (* dirty a buffer with an unrelated boot, hand it back, then
             make the point's boot recycle it *)
          let dirty_vm =
            { vm with
              Imk_monitor.Vm_config.seed = Int64.add point.Point.seed 7L }
          in
          let size = vm.Imk_monitor.Vm_config.mem_bytes in
          let dirty = Imk_memory.Arena.borrow arena ~size in
          ignore (boot ~mem:dirty env.Env.cache dirty_vm);
          Imk_memory.Arena.release arena dirty;
          let t_rec, r_rec =
            boot ~mem:(Imk_memory.Arena.borrow arena ~size) env.Env.cache vm
          in
          note "recycled" t_rec;
          let l_rec = Layout.of_result r_rec in
          let t_fresh, r_fresh =
            boot ~mem:(Imk_memory.Guest_mem.create ~size) env.Env.cache vm
          in
          note "fresh" t_fresh;
          let hits, _ = Imk_memory.Arena.stats arena in
          if hits = 0 then
            Divergence "vacuous: the arena never recycled a buffer"
          else
            match spans_diff t_rec t_fresh with
            | Some d -> Divergence ("trace " ^ d)
            | None ->
                layout_outcome ~compare_phys:true l_rec
                  (Layout.of_result r_fresh));
  }

let catalogue ~mutate =
  [
    cross_path ~mutate ();
    event_core_solo ~mutate ();
    plan_cache;
    snapshot_cold;
    arena_fresh;
  ]
