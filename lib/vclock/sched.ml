type rclass = Disk | Decompress

let rclass_name = function Disk -> "disk" | Decompress -> "decompress"
let rclass_index = function Disk -> 0 | Decompress -> 1

(* Pending events keyed by (time, seq): seq is a global counter stamped
   at push, so ties resolve in schedule order and the interleaving is a
   pure function of the charges. The payloads are the event actions. *)
module Heap = Imk_util.Heap

type timeline = { id : int; clock : Clock.t }

type waiter = {
  w_req : int;
  w_tl : timeline;
  w_ns : int;
  w_k : (unit, unit) Effect.Deep.continuation;
}

type resource = {
  capacity : int;
  mutable in_use : int;
  mutable peak_in_use : int;
  waiters : waiter Queue.t;
  mutable acquires : int;
  mutable releases : int;
  mutable grant_log : int list; (* request ids, most recent grant first *)
}

type t = {
  heap : (unit -> unit) Heap.t;
  mutable seq : int;
  mutable now : int;
  mutable next_tl : int;
  mutable live : int; (* fibers spawned and not yet completed *)
  mutable failures : (int * exn) list; (* (timeline id, exn), latest first *)
  resources : resource array; (* indexed by rclass_index *)
}

type rstats = {
  capacity : int;
  acquires : int;
  releases : int;
  peak_in_use : int;
  grant_order : int list;
}

type _ Effect.t +=
  | Wait : int -> unit Effect.t
  | Busy : rclass * int -> unit Effect.t

let make_resource capacity =
  {
    capacity;
    in_use = 0;
    peak_in_use = 0;
    waiters = Queue.create ();
    acquires = 0;
    releases = 0;
    grant_log = [];
  }

let create ?(disk_capacity = 1) ?(decompress_slots = 1) () =
  if disk_capacity < 1 then invalid_arg "Sched.create: disk capacity < 1";
  if decompress_slots < 1 then invalid_arg "Sched.create: decompress slots < 1";
  {
    heap = Heap.create ~dummy:ignore;
    seq = 0;
    now = 0;
    next_tl = 0;
    live = 0;
    failures = [];
    resources = [| make_resource disk_capacity; make_resource decompress_slots |];
  }

let timeline t =
  let id = t.next_tl in
  t.next_tl <- id + 1;
  { id; clock = Clock.create () }

let timeline_clock tl = tl.clock
let now t = t.now

let push_event t ~time act =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.heap ~key:time ~seq act

(* a fiber only runs at its own clock time, so resume can never need to
   move a clock backward; if it would, scheduling itself is broken *)
let sync_clock t tl =
  let d = t.now - Clock.now tl.clock in
  if d < 0 then invalid_arg "Sched: timeline clock ahead of the scheduler";
  if d > 0 then Clock.advance tl.clock d

(* grant one unit: hold for [ns], then release and hand the freed unit
   to the next queued request (FIFO) before resuming the holder. Grants
   can only ever happen in request order — a request is granted
   immediately only when no one queues ([in_use < capacity] implies an
   empty queue), otherwise from the queue head on release. *)
let rec grant t res ~req ~tl ~ns k =
  res.in_use <- res.in_use + 1;
  if res.in_use > res.peak_in_use then res.peak_in_use <- res.in_use;
  res.grant_log <- req :: res.grant_log;
  push_event t ~time:(t.now + ns) (fun () ->
      res.in_use <- res.in_use - 1;
      res.releases <- res.releases + 1;
      (match Queue.take_opt res.waiters with
      | Some w -> grant t res ~req:w.w_req ~tl:w.w_tl ~ns:w.w_ns w.w_k
      | None -> ());
      sync_clock t tl;
      Effect.Deep.continue k ())

let spawn ?(at = 0) t tl f =
  if at < 0 then invalid_arg "Sched.spawn: negative start time";
  t.live <- t.live + 1;
  push_event t ~time:at (fun () ->
      sync_clock t tl;
      Effect.Deep.match_with f ()
        {
          Effect.Deep.retc = (fun () -> t.live <- t.live - 1);
          exnc =
            (fun e ->
              t.live <- t.live - 1;
              t.failures <- (tl.id, e) :: t.failures);
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, unit) Effect.Deep.continuation -> unit) option ->
              match eff with
              | Wait ns ->
                  Some
                    (fun k ->
                      push_event t ~time:(t.now + ns) (fun () ->
                          sync_clock t tl;
                          Effect.Deep.continue k ()))
              | Busy (r, ns) ->
                  Some
                    (fun k ->
                      let res = t.resources.(rclass_index r) in
                      res.acquires <- res.acquires + 1;
                      let req = res.acquires in
                      if res.in_use < res.capacity then
                        grant t res ~req ~tl ~ns k
                      else
                        Queue.add
                          { w_req = req; w_tl = tl; w_ns = ns; w_k = k }
                          res.waiters)
              | _ -> None);
        })

let run t =
  while Heap.len t.heap > 0 do
    let time = Heap.min_key t.heap in
    let act = Heap.pop t.heap in
    if time < t.now then invalid_arg "Sched.run: event in the past";
    t.now <- time;
    act ()
  done;
  if t.live > 0 then
    invalid_arg "Sched.run: fibers still blocked on an empty heap";
  Array.iteri
    (fun i res ->
      if res.in_use <> 0 || not (Queue.is_empty res.waiters) then
        invalid_arg
          (Printf.sprintf "Sched.run: %s resource not drained"
             (rclass_name (if i = 0 then Disk else Decompress))))
    t.resources;
  match List.rev t.failures with
  | [] -> ()
  | (_, e) :: _ -> raise e

let wait ns =
  if ns < 0 then invalid_arg "Sched.wait: negative duration";
  Effect.perform (Wait ns)

let busy r ns =
  if ns < 0 then invalid_arg "Sched.busy: negative duration";
  Effect.perform (Busy (r, ns))

let resource_stats t r =
  let res = t.resources.(rclass_index r) in
  {
    capacity = res.capacity;
    acquires = res.acquires;
    releases = res.releases;
    peak_in_use = res.peak_in_use;
    grant_order = List.rev res.grant_log;
  }
