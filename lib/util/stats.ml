type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p <= 0. then sorted.(0)
  else if p >= 100. then sorted.(n - 1)
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let summarize_array xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  (* NaN poisons every moment and breaks the sort's total order;
     infinities make mean/stddev meaningless. A non-finite sample is a
     measurement bug upstream — refuse it rather than average it. *)
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg "Stats.summarize: non-finite sample")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let sum = Array.fold_left ( +. ) 0. xs in
  let mean = sum /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
    /. float_of_int n
  in
  {
    n;
    mean;
    min = sorted.(0);
    max = sorted.(n - 1);
    stddev = sqrt var;
    p50 = percentile sorted 50.;
    p90 = percentile sorted 90.;
    p99 = percentile sorted 99.;
  }

let summarize xs = summarize_array (Array.of_list xs)

(* the already-sorted variant exists for hot telemetry paths that sort
   millions of integer-valued samples with a counting/radix pass:
   [summarize_array]'s [Array.sort Float.compare] pays a closure call
   per comparison and dominates entire fleet cells. Order is verified —
   a misordered input would silently corrupt every quantile. *)
let summarize_sorted xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg "Stats.summarize: non-finite sample")
    xs;
  for i = 1 to n - 1 do
    if xs.(i - 1) > xs.(i) then
      invalid_arg "Stats.summarize_sorted: samples not ascending"
  done;
  let sum = Array.fold_left ( +. ) 0. xs in
  let mean = sum /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
    /. float_of_int n
  in
  {
    n;
    mean;
    min = xs.(0);
    max = xs.(n - 1);
    stddev = sqrt var;
    p50 = percentile xs 50.;
    p90 = percentile xs 90.;
    p99 = percentile xs 99.;
  }

let empty =
  { n = 0; mean = 0.; min = 0.; max = 0.; stddev = 0.; p50 = 0.; p90 = 0.; p99 = 0. }

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b =
  if b = 0. then invalid_arg "Stats.ratio: division by zero" else a /. b

let pct_change base v =
  if base = 0. then invalid_arg "Stats.pct_change: zero base"
  else (v -. base) /. base *. 100.
