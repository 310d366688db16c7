(** Discrete-event virtual-time scheduler (DESIGN.md §10).

    The linear {!Clock} charges one boot's costs in program order; this
    module generalizes it to many interleaved boot timelines advancing
    through a single event heap, with contended resources — shared
    disk-read bandwidth and a bounded pool of decompress slots — modeled
    as FIFO queues whose waits stretch the charged spans of concurrent
    boots.

    Each boot runs as a fiber ([spawn]) against its own {!timeline},
    whose embedded {!Clock.t} is the one its {!Trace.t} records against.
    Charging suspends the fiber ({!wait}/{!busy} perform an effect); the
    scheduler resumes fibers strictly in [(time, seq)] order, advancing
    each timeline's clock to the event time on resume. Real work between
    charges moves no virtual time, so a fiber's clock always equals the
    scheduler's [now] while it runs — deciding resource availability at
    perform time is exact, never a causality violation.

    Solo equivalence (the {e event-core-solo} oracle, DESIGN.md §8): a
    single fiber never queues, so every charge advances its clock by
    exactly the charged amount and the recorded spans are identical —
    labels, order and instants — to the linear clock's. *)

type t
(** One shared event timeline: a heap of pending events plus the
    contended resources. Single-domain; never share across workers. *)

type timeline
(** One boot's virtual timeline: an identity plus a private {!Clock.t}
    the scheduler advances at each resume. *)

type rclass =
  | Disk  (** shared disk-read bandwidth (image/blob reads) *)
  | Decompress  (** bounded pool of per-core decompress slots *)

val create : ?disk_capacity:int -> ?decompress_slots:int -> unit -> t
(** [create ()] is an empty scheduler at time 0. Capacities default to 1
    (full contention); [Invalid_argument] if either is below 1. *)

val timeline : t -> timeline
(** [timeline t] mints a fresh timeline (and clock) at time 0. *)

val timeline_clock : timeline -> Clock.t
(** The clock a {!Trace.t} (and {!Deadline}) for this timeline must
    record against — {!Charge.create} checks the identity. *)

val spawn : ?at:int -> t -> timeline -> (unit -> unit) -> unit
(** [spawn t tl f] schedules fiber [f] to start on [tl] at virtual time
    [at] (default 0). [f]'s charges must go through a scheduled
    {!Charge} bound to [tl] (or {!wait}/{!busy} directly). An exception
    escaping [f] is captured and re-raised by {!run} — the fiber holds
    no resource while running ({!busy} is atomic), so nothing leaks. *)

val run : t -> unit
(** Drain the event heap: process events in [(time, seq)] order until
    every fiber has completed. Re-raises the chronologically first fiber
    exception (deterministic), after the remaining fibers finish.
    [Invalid_argument] if fibers remain blocked on an empty heap or a
    resource is still held — both indicate a scheduler bug, not user
    error. *)

val now : t -> int
(** Current scheduler time; after {!run}, the makespan (the time the
    last event fired). *)

val wait : int -> unit
(** [wait ns] suspends the calling fiber for [ns] virtual nanoseconds
    (an uncontended charge). [Invalid_argument] on negative [ns],
    mirroring {!Clock.advance}. Raises [Effect.Unhandled] outside a
    {!spawn}ed fiber. *)

val busy : rclass -> int -> unit
(** [busy r ns] occupies one unit of [r] for [ns] virtual nanoseconds:
    acquire (queueing FIFO behind earlier requests while [r] is at
    capacity), hold for [ns], release — atomically from the fiber's view,
    so the fiber can never exit while holding a slot. The fiber's clock
    on return includes any queue wait, which is how contention stretches
    the enclosing span. *)

type rstats = {
  capacity : int;
  acquires : int;  (** requests issued (granted or still queued) *)
  releases : int;  (** holds completed; equals [acquires] after {!run} *)
  peak_in_use : int;  (** high-water concurrent holds; never > capacity *)
  grant_order : int list;
      (** 1-based request ids in grant order — FIFO iff ascending *)
}

val resource_stats : t -> rclass -> rstats
(** Conservation/FIFO counters for the test suites (DESIGN.md §10). *)
