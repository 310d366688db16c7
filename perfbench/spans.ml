(* Host-time spans and counters the benchmark records around its own
   calls into the program's layers. Spans stay in memory (parallel
   growable arrays) and are written out once, at exit. With recording
   off, [span] is a plain call and [count] a no-op. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable on : bool;
  mutable op : int;  (* operation id stamped on new spans; -1 = set-up *)
  mutable len : int;
  mutable names : string array;
  mutable ops : int array;
  mutable parents : int array;  (* index of the enclosing span, -1 at top *)
  mutable starts : int array;
  mutable stops : int array;
  mutable replays : bool array;
  mutable open_ : int;  (* innermost open span, -1 when none *)
  mutable replay_depth : int;
  mutable replay_ns : int;  (* total time of outermost replay spans *)
  counts : (string, float) Hashtbl.t;
}

let create () =
  {
    on = false;
    op = -1;
    len = 0;
    names = [||];
    ops = [||];
    parents = [||];
    starts = [||];
    stops = [||];
    replays = [||];
    open_ = -1;
    replay_depth = 0;
    replay_ns = 0;
    counts = Hashtbl.create 32;
  }

let enabled t = t.on
let set_enabled t on = t.on <- on
let set_op t op = t.op <- op
let replay_ns t = t.replay_ns

let grow t =
  let cap = max 256 (2 * Array.length t.names) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.ops <- extend t.ops 0;
  t.parents <- extend t.parents 0;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.replays <- extend t.replays false

let span ?(replay = false) t name f =
  if not t.on then f ()
  else begin
    if t.len = Array.length t.names then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.names.(i) <- name;
    t.ops.(i) <- t.op;
    t.parents.(i) <- t.open_;
    t.replays.(i) <- replay;
    t.open_ <- i;
    if replay then t.replay_depth <- t.replay_depth + 1;
    let close () =
      let stop = now_ns () in
      t.stops.(i) <- stop;
      t.open_ <- t.parents.(i);
      if replay then begin
        t.replay_depth <- t.replay_depth - 1;
        if t.replay_depth = 0 then t.replay_ns <- t.replay_ns + stop - t.starts.(i)
      end
    in
    t.starts.(i) <- now_ns ();
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let count t key v =
  if t.on then
    Hashtbl.replace t.counts key
      (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts key))

let counter t key = Option.value ~default:0. (Hashtbl.find_opt t.counts key)

(* a span's self time is its duration minus the time its direct
   children cover; children nest strictly inside their parent *)
let self_ns t =
  let self = Array.init t.len (fun i -> t.stops.(i) - t.starts.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stops.(i) - t.starts.(i))
  done;
  self

type layer = { calls : int; self_total_ns : int }

let by_name t =
  let self = self_ns t in
  let acc = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let l =
      Option.value ~default:{ calls = 0; self_total_ns = 0 }
        (Hashtbl.find_opt acc t.names.(i))
    in
    Hashtbl.replace acc t.names.(i)
      { calls = l.calls + 1; self_total_ns = l.self_total_ns + self.(i) }
  done;
  acc

(* Chrome trace-event JSON ("X" complete events), openable in Perfetto *)
let write t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let t0 = if t.len = 0 then 0 else t.starts.(0) in
  for i = 0 to t.len - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"op\":%d,\"parent\":%d,\"replay\":%b}}"
      t.names.(i)
      (float_of_int (t.starts.(i) - t0) /. 1e3)
      (float_of_int (t.stops.(i) - t.starts.(i)) /. 1e3)
      i t.ops.(i) t.parents.(i) t.replays.(i)
  done;
  output_string oc "]}\n";
  close_out oc
