(** Deterministic fault injection at the boot path's input seams.

    An injected corruption is a pure function of [(kind, seed)] and the
    pristine bytes: arming the same kind with the same seed on two disks
    holding the same files produces byte-identical corruption, which is
    what makes the faults campaign reproducible and [--jobs]-invariant.

    Every kind is {e guaranteed detectable}: the corruption is placed
    where an existing validator must trip over it (magic words, CRCs,
    length bounds, the guest's own boot-integrity walk). The campaign
    turns that guarantee into a soundness check — a boot that stays
    green under an armed fault is a bug in the validators, not in the
    injector. *)

type kind =
  | Truncate_image
      (** Cut 1..64 bytes off the kernel image's tail. For an ELF this
          truncates the section-header table (the writer emits it last)
          → parser bounds failure. *)
  | Flip_image_magic
      (** Flip one bit in the leading 4-byte magic. Breaks the ELF
          ident (routing the image to the bzImage decoder) and the
          bzImage magic alike — either decoder fails typed. *)
  | Flip_entry_magic
      (** Flip one of bits 0..47 of the entry function's 8-byte magic
          word inside a vmlinux. Loads fine; the guest's integrity walk
          starts at the entry function and panics on the mismatch. *)
  | Truncate_relocs
      (** Cut 1..8 bytes off the relocation table (exactly [16 + 8n]
          bytes long) → typed [Bad_table], the re-derivation fallback's
          trigger. *)
  | Flip_relocs_magic
      (** Flip one bit in the relocation table's magic → [Bad_table].
          Count-field corruption is deliberately not offered: it is not
          guaranteed detectable (a zero KASLR delta boots green over a
          short table). *)
  | Truncate_bzimage
      (** Cut 1..1024 bytes off a bzImage's tail — the payload escapes
          the image bounds. *)
  | Flip_bz_payload_crc
      (** Flip one bit of the codec frame's stored CRC inside a
          bzImage payload; every codec verifies it after
          decompression. *)
  | Read_fault_entry_magic
      (** Leave the on-disk bytes pristine but corrupt each read of the
          kernel image ({!Imk_storage.Disk.set_fault}) at the entry
          function's magic — the disk/snapshot read-corruption model. *)
  | Transient_init of int
      (** Raise {!Imk_monitor.Vmm.Transient} from the first [n]
          "vmm-init" phases of boots using the armed hook; the [n+1]th
          attempt proceeds. Exercises retry/backoff, not corruption. *)

val name : kind -> string
(** Stable short tag (telemetry row labels, [BENCH_faults.json]). *)

val all : kind list
(** One representative of each kind ([Transient_init 1] for the
    transient family). *)

type armed = { inject : (string -> unit) option }
(** What {!arm} hands back: disk faults need no hook (the corruption
    already sits on / in front of the disk); transient faults return
    the hook to pass to {!Imk_monitor.Vmm.boot}'s [?inject]. *)

val arm :
  kind ->
  seed:int ->
  disk:Imk_storage.Disk.t ->
  kernel_path:string ->
  ?relocs_path:string ->
  unit ->
  armed
(** [arm kind ~seed ~disk ~kernel_path ?relocs_path ()] injects the
    fault into [disk]'s view of the named files (content replaced with
    a corrupted copy, or a read fault installed). The disk should be
    private to one boot run. Raises [Invalid_argument] if [kind] needs
    a relocation table and [relocs_path] is missing — a harness wiring
    error, not a boot failure. *)

val flip_one_bit : seed:int -> bytes -> bytes
(** [flip_one_bit ~seed b] is a fresh copy of [b] with one
    seed-selected bit flipped anywhere in it — for corrupting
    CRC-framed blobs (snapshots) where any single-bit flip is
    detectable by construction. *)
