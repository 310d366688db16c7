(** VM snapshots — the zygote alternative to fresh boots (§7).

    Checkpoint/restore platforms (SAND, Catalyzer-style zygotes, the JVM
    warm-clone lineage the paper surveys) avoid boot cost by restoring a
    memory image instead of booting. The catch the paper highlights:
    every restored instance inherits the snapshot's address-space layout,
    nullifying ASLR — unless a pool of differently-randomized snapshots
    is maintained (Morula), with its own complexity and memory cost.

    This module implements both sides of that trade so the harness can
    quantify it: serialize a booted guest, restore clones of it, and
    model restore cost as the copy-on-write mapping setup plus the
    first-touch faults of the working set — far cheaper than a boot, and
    exactly as randomized as the one snapshot it came from. *)

type t

exception Corrupt of string
(** A serialized snapshot failed validation in {!load}: bad magic or
    version, truncation, or a CRC32 mismatch anywhere in the blob. Typed
    so a supervisor can fall back to a cold boot instead of restoring
    garbage into a guest. *)

val capture : Vmm.boot_result -> t
(** [capture result] snapshots a booted guest: its dirty ranges, framed,
    plus the boot parameters. Everything outside the frames is zero by
    the {!Imk_memory.Guest_mem} invariant, so the frames reconstruct the
    image exactly while the snapshot costs memory proportional to what
    the boot wrote, not to guest size. Capture reads through the
    tracker's read-only accessors: the source VM remains usable and its
    dirty extent — hence its next {!Imk_memory.Arena} scrub cost — is
    exactly what it would have been without the capture. *)

val encoded_bytes : t -> int
(** Serialized size (what a snapshot costs to keep on disk or in a
    zygote pool) — header + dirty-range frames + trailer, far below
    guest size for a typical boot. *)

val layout_seed_of : t -> int
(** A fingerprint of the captured layout (virtual base ⊕ a hash of the
    text pages) — distinct snapshots in a Morula-style pool must differ
    on it. *)

val serialize : t -> bytes
(** [serialize t] is the byte-exact on-disk form (version 2): a fixed
    header with the boot parameters and guest size, a frame count, the
    dirty-range frames as [(pa, len, data)], and a CRC32 trailer over
    everything before it. [load ~config (serialize t)] round-trips. *)

val load : config:Vm_config.t -> bytes -> t
(** [load ~config b] validates and decodes {!serialize}'s output,
    rehydrating against the supplied VM config (configs are host-side
    objects, not serialized state). Raises {!Corrupt} on bad magic or
    version, truncation, length inconsistencies, frames that are
    unsorted, overlapping or outside the guest, or a CRC32 mismatch —
    a single flipped bit anywhere in [b] is caught. Frame lengths are
    validated against the remaining blob before any allocation. *)

val restore :
  Imk_vclock.Charge.t -> t -> working_set_pages:int -> Vmm.boot_result
(** [restore charge t ~working_set_pages] clones the snapshot into a
    fresh guest. Charged work: re-establishing the copy-on-write mapping
    (per-page bookkeeping over the kernel image) and faulting in
    [working_set_pages] pages — the restore path's real costs, orders of
    magnitude below a boot. The restored guest passes the same integrity
    verification as a booted one (the clone is exact — including its
    randomization). *)
