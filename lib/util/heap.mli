(** The one event heap: a binary min-heap ordered by [(key, seq)].

    [seq] is the caller's tie-breaker (schedule or start order), so equal
    keys dequeue deterministically and the order is a pure function of
    the pushes: dequeue order equals a stable sort by [(key, seq)].
    Parallel arrays, no per-push allocation. Used by the virtual-time
    scheduler ({!Imk_vclock.Sched}) and the fleet simulator
    ({!Imk_fleet.Sim}). *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty heap. [dummy] backfills popped slots so payloads don't
    leak. *)

val len : 'a t -> int
val push : 'a t -> key:int -> seq:int -> 'a -> unit

val min_key : 'a t -> int
(** Key of the minimum element; [Invalid_argument] when empty. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element; [Invalid_argument] when
    empty. *)

val pop : 'a t -> 'a
(** Remove and return the minimum element's payload; [Invalid_argument]
    when empty. *)
