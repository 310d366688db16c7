(* Self-tests of the benchmark: the digest gate catches a doctored pin,
   the printed metric names are BENCHMARK.json's, and per-layer self
   times are never negative. *)

open Perfbench

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let member k = function
  | Adapter.Obj kv -> (
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> Alcotest.failf "missing key %s" k)
  | _ -> Alcotest.fail "not an object"

let str = function Adapter.Str s -> s | _ -> Alcotest.fail "not a string"
let arr = function Adapter.Arr l -> l | _ -> Alcotest.fail "not an array"

(* --- digest --- *)

let filled () =
  let d = Vdigest.create ~cycle:3 in
  List.iteri (fun slot v -> Vdigest.record d ~slot v) [ "a"; "b"; "c" ];
  d

let pins_for hex =
  Vdigest.parse_pins
    (Printf.sprintf {|{"default_seed": 1, "pins": {"direct": {"1": "%s"}}}|} hex)

let doctor hex =
  let b = Bytes.of_string hex in
  Bytes.set b 0 (if hex.[0] = '0' then '1' else '0');
  Bytes.to_string b

let test_digest_pin () =
  let d = filled () in
  let hex = Option.get (Vdigest.hex d) in
  let check pins seed =
    Vdigest.check pins ~workload:"direct" ~seed (Vdigest.hex d)
  in
  Alcotest.(check bool) "pinned value matches" true (check (pins_for hex) 1 = Vdigest.Match);
  Alcotest.(check bool)
    "doctored pin is caught" true
    (match check (pins_for (doctor hex)) 1 with Vdigest.Mismatch _ -> true | _ -> false);
  Alcotest.(check bool) "other seeds are unpinned" true (check (pins_for hex) 2 = Vdigest.Unpinned)

let test_digest_in_run () =
  let d = filled () in
  Vdigest.record d ~slot:1 "b";
  Alcotest.(check int) "a repeat that agrees" 0 d.Vdigest.mismatches;
  Vdigest.record d ~slot:1 "b'";
  Alcotest.(check int) "a repeat that differs" 1 d.Vdigest.mismatches;
  let partial = Vdigest.create ~cycle:2 in
  Vdigest.record partial ~slot:0 "a";
  Alcotest.(check bool) "incomplete cycle has no digest" true (Vdigest.hex partial = None);
  Alcotest.(check bool)
    "incomplete cycle fails its pin" true
    (match Vdigest.check (pins_for "00") ~workload:"direct" ~seed:1 None with
    | Vdigest.Mismatch _ -> true
    | _ -> false)

let test_pinned_file () =
  let pins = Vdigest.load_pins "pinned.json" in
  List.iter
    (fun (w : Workloads.t) ->
      Alcotest.(check bool)
        (w.name ^ " is pinned on the default seed")
        true
        (Vdigest.pinned pins ~workload:w.name ~seed:pins.Vdigest.default_seed <> None))
    Workloads.all

(* --- metric names --- *)

let bench = lazy (Adapter.parse_json (read_file "../BENCHMARK.json"))

let declared key =
  List.map
    (fun m -> (str (member "name" m), str (member "unit" m)))
    (arr (member key (Lazy.force bench)))

let test_names () =
  Alcotest.(check (list (pair string string)))
    "end-to-end" (declared "end_to_end") Metrics.end_to_end;
  Alcotest.(check (list (pair string string)))
    "per-layer" (declared "per_layer")
    (List.map (fun (n, u, _) -> (n, u)) Metrics.per_layer);
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> str (member "name" w)) (arr (member "workloads" (Lazy.force bench))))
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let printed metrics =
  match
    Adapter.parse_json
      (Metrics.result_json ~correct:true ~attempted:1 ~failed:0
         (List.map (fun (n, u) -> (n, u, 1.5)) metrics))
  with
  | Adapter.Obj kv as o ->
      Alcotest.(check (list string))
        "result keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kv);
      (match member "metrics" o with
      | Adapter.Obj ms -> List.map fst ms
      | _ -> Alcotest.fail "metrics is not an object")
  | _ -> Alcotest.fail "result is not an object"

let test_printed_names () =
  Alcotest.(check (list string))
    "end-to-end" (List.map fst (declared "end_to_end"))
    (printed Metrics.end_to_end);
  Alcotest.(check (list string))
    "per-layer" (List.map fst (declared "per_layer"))
    (printed (List.map (fun (n, u, _) -> (n, u)) Metrics.per_layer))

(* --- self times --- *)

let spin n =
  let r = ref 0 in
  for i = 1 to n do
    r := !r + (i land 7)
  done;
  ignore (Sys.opaque_identity !r)

let check_self sp =
  Array.iteri
    (fun i ns -> if ns < 0 then Alcotest.failf "span %d has self time %d ns" i ns)
    (Spans.self_ns sp);
  Hashtbl.iter
    (fun name (l : Spans.layer) ->
      if l.self_total_ns < 0 then Alcotest.failf "%s: negative self time" name)
    (Spans.by_name sp)

let test_self_synthetic () =
  let sp = Spans.create () in
  Spans.set_enabled sp true;
  Spans.span sp "outer" (fun () ->
      spin 1000;
      Spans.span sp "inner" (fun () -> Spans.span ~replay:true sp "leaf" (fun () -> spin 5000));
      (try Spans.span sp "raises" (fun () -> failwith "x") with Failure _ -> ());
      spin 1000);
  check_self sp;
  Alcotest.(check int) "four spans" 4 (Hashtbl.length (Spans.by_name sp));
  Alcotest.(check bool) "replay time accounted" true (Spans.replay_ns sp > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "digest",
        [
          Alcotest.test_case "doctored pin is caught" `Quick test_digest_pin;
          Alcotest.test_case "in-run repeats are checked" `Quick test_digest_in_run;
          Alcotest.test_case "every workload is pinned" `Quick test_pinned_file;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names equal BENCHMARK.json" `Quick test_names;
          Alcotest.test_case "printed names equal BENCHMARK.json" `Quick test_printed_names;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times are non-negative" `Quick test_self_synthetic;
        ] );
    ]
