(* The discrete-event scheduler (DESIGN.md §10): resource conservation
   and FIFO grants, deterministic interleaving, deadlines at scheduled
   span boundaries, and the contention sanity envelope — capacity >= n
   fibers must be indistinguishable from solo (vacuity guard), capacity
   1 must serialize exactly. The event heap's own suite is in test_util. *)

open Imk_vclock

let check = Alcotest.check
let int = Alcotest.int

(* --- random fiber scenarios --- *)

type op = Op_wait of int | Op_disk of int | Op_dec of int

let op_gen =
  QCheck.Gen.(
    map2
      (fun kind ns ->
        match kind with 0 -> Op_wait ns | 1 -> Op_disk ns | _ -> Op_dec ns)
      (int_bound 2) (int_bound 1000))

let op_print = function
  | Op_wait ns -> Printf.sprintf "wait %d" ns
  | Op_disk ns -> Printf.sprintf "disk %d" ns
  | Op_dec ns -> Printf.sprintf "dec %d" ns

let fibers_gen = QCheck.Gen.(list_size (1 -- 5) (list_size (0 -- 6) op_gen))

let fibers_print fibers =
  String.concat "; "
    (List.map
       (fun ops -> "[" ^ String.concat ", " (List.map op_print ops) ^ "]")
       fibers)

let scenario_arb =
  QCheck.make
    ~print:(fun (d, s, fibers) ->
      Printf.sprintf "disk=%d decompress=%d %s" d s (fibers_print fibers))
    QCheck.Gen.(triple (1 -- 3) (1 -- 3) fibers_gen)

(* run every fiber's ops on one scheduler, logging (fiber, clock) after
   each op — the observable interleaving *)
let run_scenario ~disk ~decomp fibers =
  let sched = Sched.create ~disk_capacity:disk ~decompress_slots:decomp () in
  let log = ref [] in
  List.iteri
    (fun i ops ->
      let tl = Sched.timeline sched in
      let clk = Sched.timeline_clock tl in
      Sched.spawn sched tl (fun () ->
          List.iter
            (fun op ->
              (match op with
              | Op_wait ns -> Sched.wait ns
              | Op_disk ns -> Sched.busy Sched.Disk ns
              | Op_dec ns -> Sched.busy Sched.Decompress ns);
              log := (i, Clock.now clk) :: !log)
            ops))
      fibers;
  Sched.run sched;
  (sched, List.rev !log)

let qcheck_resource_conservation =
  QCheck.Test.make ~count:300
    ~name:"resources: acquires = releases, FIFO grants, peak <= capacity"
    scenario_arb
    (fun (disk, decomp, fibers) ->
      let sched, _ = run_scenario ~disk ~decomp fibers in
      let count p =
        List.fold_left
          (fun acc ops -> acc + List.length (List.filter p ops))
          0 fibers
      in
      let conserved r expected =
        let st = Sched.resource_stats sched r in
        st.Sched.acquires = expected
        && st.Sched.releases = expected
        && st.Sched.peak_in_use <= st.Sched.capacity
        && st.Sched.grant_order = List.init expected (fun i -> i + 1)
      in
      conserved Sched.Disk (count (function Op_disk _ -> true | _ -> false))
      && conserved Sched.Decompress
           (count (function Op_dec _ -> true | _ -> false)))

let qcheck_determinism =
  QCheck.Test.make ~count:200
    ~name:"same scenario, fresh scheduler: identical interleaving"
    scenario_arb
    (fun (disk, decomp, fibers) ->
      let s1, log1 = run_scenario ~disk ~decomp fibers in
      let s2, log2 = run_scenario ~disk ~decomp fibers in
      log1 = log2 && Sched.now s1 = Sched.now s2)

let test_determinism_across_domains () =
  (* boot_contended gives every run a fresh scheduler, so a run's
     result must not depend on where it executes; the primitive claim
     is that a run reads no ambient state, so a run inside a spawned
     domain matches one here *)
  let fibers =
    [
      [ Op_disk 300; Op_wait 50; Op_dec 200 ];
      [ Op_dec 100; Op_disk 100 ];
      [ Op_wait 10; Op_disk 80; Op_dec 80 ];
    ]
  in
  let here = run_scenario ~disk:1 ~decomp:1 fibers in
  let there =
    Domain.join (Domain.spawn (fun () -> run_scenario ~disk:1 ~decomp:1 fibers))
  in
  check Alcotest.bool "same interleaving in a fresh domain" true
    (snd here = snd there);
  check int "same makespan" (Sched.now (fst here)) (Sched.now (fst there))

(* --- error paths --- *)

let test_rejects_bad_arguments () =
  (match Sched.create ~disk_capacity:0 () with
  | (_ : Sched.t) -> Alcotest.fail "zero disk capacity accepted"
  | exception Invalid_argument _ -> ());
  (match Sched.create ~decompress_slots:0 () with
  | (_ : Sched.t) -> Alcotest.fail "zero decompress slots accepted"
  | exception Invalid_argument _ -> ());
  let sched = Sched.create () in
  let tl = Sched.timeline sched in
  (match Sched.spawn ~at:(-1) sched tl ignore with
  | () -> Alcotest.fail "negative start time accepted"
  | exception Invalid_argument _ -> ());
  (* negative durations mirror Clock.advance: validated before the
     effect is performed, so the fiber dies and run re-raises *)
  Sched.spawn sched tl (fun () -> Sched.wait (-1));
  Alcotest.check_raises "negative wait"
    (Invalid_argument "Sched.wait: negative duration") (fun () ->
      Sched.run sched);
  let sched = Sched.create () in
  let tl = Sched.timeline sched in
  Sched.spawn sched tl (fun () -> Sched.busy Sched.Disk (-1));
  Alcotest.check_raises "negative busy"
    (Invalid_argument "Sched.busy: negative duration") (fun () ->
      Sched.run sched)

let test_charge_checks_timeline_binding () =
  let sched = Sched.create () in
  let tl = Sched.timeline sched in
  let foreign = Trace.create (Clock.create ()) in
  match Charge.create ~sched:tl foreign Cost_model.default with
  | (_ : Charge.t) -> Alcotest.fail "trace on a foreign clock accepted"
  | exception Invalid_argument _ -> ()

let test_fiber_failure_is_first_chronologically () =
  (* run finishes the surviving fibers, then re-raises the failure with
     the earliest event time — deterministic, not spawn-order-dependent *)
  let sched = Sched.create ~disk_capacity:2 () in
  let finished = ref 0 in
  let tl1 = Sched.timeline sched in
  Sched.spawn sched tl1 (fun () ->
      Sched.wait 500;
      failwith "late");
  let tl2 = Sched.timeline sched in
  Sched.spawn sched tl2 (fun () ->
      Sched.wait 100;
      failwith "early");
  let tl3 = Sched.timeline sched in
  Sched.spawn sched tl3 (fun () ->
      Sched.busy Sched.Disk 800;
      incr finished);
  (match Sched.run sched with
  | () -> Alcotest.fail "expected the fiber failure"
  | exception Failure m -> check Alcotest.string "first failure" "early" m);
  check int "survivor still completed" 1 !finished;
  check int "makespan covers the survivor" 800 (Sched.now sched)

(* --- deadlines at scheduled span boundaries (mirrors test_vclock) --- *)

let test_deadline_at_event_boundary () =
  let sched = Sched.create () in
  let tl = Sched.timeline sched in
  let clk = Sched.timeline_clock tl in
  let trace = Trace.create clk in
  let ch = Charge.create ~sched:tl trace Cost_model.default in
  let message = ref "" in
  Sched.spawn sched tl (fun () ->
      let d = Deadline.arm clk ~label:"boot" ~budget_ns:100 in
      Charge.set_deadline ch (Some d);
      Charge.span ch Trace.In_monitor "within" (fun () -> Charge.pay ch 90);
      try
        Charge.span ch Trace.In_monitor "overrun" (fun () -> Charge.pay ch 50);
        Alcotest.fail "expected Deadline.Exceeded"
      with Deadline.Exceeded m -> message := m);
  Sched.run sched;
  check Alcotest.string "typed overrun at span close"
    "boot: budget 100 ns overrun by 40 ns" !message;
  check int "both spans recorded" 2 (List.length (Trace.spans trace));
  check int "clock includes the overrun" 140 (Clock.now clk)

let test_deadline_charges_queue_wait () =
  (* the overrun comes entirely from queueing behind another boot: the
     charged cost alone fits the budget, the stretched span does not *)
  let sched = Sched.create () in
  let hold = Sched.timeline sched in
  Sched.spawn sched hold (fun () -> Sched.busy Sched.Disk 80);
  let tl = Sched.timeline sched in
  let clk = Sched.timeline_clock tl in
  let trace = Trace.create clk in
  let ch = Charge.create ~sched:tl trace Cost_model.default in
  let message = ref "" in
  Sched.spawn sched tl (fun () ->
      let d = Deadline.arm clk ~label:"read" ~budget_ns:100 in
      Charge.set_deadline ch (Some d);
      try
        Charge.span ch Trace.In_monitor "contended" (fun () ->
            Charge.pay_using ch Sched.Disk 80);
        Alcotest.fail "expected Deadline.Exceeded"
      with Deadline.Exceeded m -> message := m);
  Sched.run sched;
  check Alcotest.string "queue wait counts against the budget"
    "read: budget 100 ns overrun by 60 ns" !message;
  match Trace.spans trace with
  | [ s ] ->
      check int "span start" 0 s.Trace.start_ns;
      check int "span stretched by the 80 ns queue wait" 160 s.Trace.stop_ns
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

(* --- contention sanity envelope --- *)

(* one Charge-level span per op, as a boot path would record it *)
let span_workload ch ops =
  List.iteri
    (fun j op ->
      Charge.span ch Trace.In_monitor (Printf.sprintf "op%d" j) (fun () ->
          match op with
          | Op_wait ns -> Charge.pay ch ns
          | Op_disk ns -> Charge.pay_using ch Sched.Disk ns
          | Op_dec ns -> Charge.pay_using ch Sched.Decompress ns))
    ops

let solo_spans ops =
  let trace = Trace.create (Clock.create ()) in
  let ch = Charge.create trace Cost_model.default in
  span_workload ch ops;
  Trace.spans trace

let qcheck_ample_capacity_is_solo =
  QCheck.Test.make ~count:200
    ~name:"capacity >= n fibers: every boot's spans equal its solo run"
    (QCheck.make ~print:fibers_print fibers_gen)
    (fun fibers ->
      let n = List.length fibers in
      let sched = Sched.create ~disk_capacity:n ~decompress_slots:n () in
      let traces =
        List.map
          (fun ops ->
            let tl = Sched.timeline sched in
            let trace = Trace.create (Sched.timeline_clock tl) in
            let ch = Charge.create ~sched:tl trace Cost_model.default in
            Sched.spawn sched tl (fun () -> span_workload ch ops);
            trace)
          fibers
      in
      Sched.run sched;
      List.for_all2
        (fun ops trace -> Trace.spans trace = solo_spans ops)
        fibers traces)

let qcheck_capacity_one_serializes =
  QCheck.Test.make ~count:200
    ~name:"capacity 1, busy-only fibers: makespan = serialized sum"
    QCheck.(
      list_of_size Gen.(1 -- 5) (list_of_size Gen.(0 -- 5) (int_bound 500)))
    (fun fibers ->
      let sched = Sched.create () in
      List.iter
        (fun ops ->
          let tl = Sched.timeline sched in
          Sched.spawn sched tl (fun () ->
              List.iter (fun ns -> Sched.busy Sched.Disk ns) ops))
        fibers;
      Sched.run sched;
      Sched.now sched
      = List.fold_left (List.fold_left ( + )) 0 fibers)

let test_capacity_one_pinned () =
  (* three boots, one disk unit: grants run FIFO and each fiber's clock
     lands exactly at the serialized schedule *)
  let sched = Sched.create () in
  let finish = Array.make 3 0 in
  List.iteri
    (fun i ns ->
      let tl = Sched.timeline sched in
      let clk = Sched.timeline_clock tl in
      Sched.spawn sched tl (fun () ->
          Sched.busy Sched.Disk ns;
          finish.(i) <- Clock.now clk))
    [ 300; 100; 200 ];
  Sched.run sched;
  check int "fiber 0 holds [0,300]" 300 finish.(0);
  check int "fiber 1 served [300,400]" 400 finish.(1);
  check int "fiber 2 served [400,600]" 600 finish.(2);
  check int "makespan = serialized sum" 600 (Sched.now sched);
  let st = Sched.resource_stats sched Sched.Disk in
  check int "never above capacity" 1 st.Sched.peak_in_use;
  check (Alcotest.list int) "FIFO grant order" [ 1; 2; 3 ] st.Sched.grant_order

let test_ample_capacity_pinned () =
  (* the vacuity guard's pinned twin: two fibers, two units each — both
     record exactly their solo spans and the makespan is the slower solo *)
  (* fiber a decompresses over [350,750], fiber b over [300,450]: the
     holds overlap, so one slot would queue — two slots must not *)
  let ops_a = [ Op_disk 250; Op_wait 100; Op_dec 400 ] in
  let ops_b = [ Op_wait 300; Op_dec 150; Op_disk 50 ] in
  let sched = Sched.create ~disk_capacity:2 ~decompress_slots:2 () in
  let boot ops =
    let tl = Sched.timeline sched in
    let trace = Trace.create (Sched.timeline_clock tl) in
    let ch = Charge.create ~sched:tl trace Cost_model.default in
    Sched.spawn sched tl (fun () -> span_workload ch ops);
    trace
  in
  let ta = boot ops_a and tb = boot ops_b in
  Sched.run sched;
  check Alcotest.bool "fiber a = solo" true (Trace.spans ta = solo_spans ops_a);
  check Alcotest.bool "fiber b = solo" true (Trace.spans tb = solo_spans ops_b);
  check int "makespan = slower solo total" 750 (Sched.now sched);
  let st = Sched.resource_stats sched Sched.Decompress in
  check int "both slots actually used" 2 st.Sched.peak_in_use

let () =
  Alcotest.run "sched"
    [
      ( "resources",
        [
          Testkit.to_alcotest qcheck_resource_conservation;
          Alcotest.test_case "capacity-1 serialization (pinned)" `Quick
            test_capacity_one_pinned;
          Testkit.to_alcotest qcheck_capacity_one_serializes;
        ] );
      ( "determinism",
        [
          Testkit.to_alcotest qcheck_determinism;
          Alcotest.test_case "fresh domain, same interleaving" `Quick
            test_determinism_across_domains;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "overrun at span close" `Quick
            test_deadline_at_event_boundary;
          Alcotest.test_case "queue wait counts against budget" `Quick
            test_deadline_charges_queue_wait;
        ] );
      ( "solo-equivalence",
        [
          Testkit.to_alcotest qcheck_ample_capacity_is_solo;
          Alcotest.test_case "ample capacity (pinned)" `Quick
            test_ample_capacity_pinned;
        ] );
      ( "errors",
        [
          Alcotest.test_case "bad arguments" `Quick test_rejects_bad_arguments;
          Alcotest.test_case "charge checks timeline binding" `Quick
            test_charge_checks_timeline_binding;
          Alcotest.test_case "first failure chronologically" `Quick
            test_fiber_failure_is_first_chronologically;
        ] );
    ]
