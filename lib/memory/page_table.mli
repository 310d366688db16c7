(** Early boot page-table construction (simulated x86_64 4-level).

    Both principals build page tables before jumping to 64-bit code: the
    bootstrap loader constructs its own identity map as part of its setup
    (one of the costs the paper attributes to Bootstrap Setup), while in a
    direct boot the monitor establishes the initial map before VM entry.
    The model computes the real table geometry — how many PML4/PDPT/PD/PT
    pages an identity map of a given span needs at a given page size — so
    the byte volume zeroed and written is faithful. *)

type page_size = Four_k | Two_m | One_g

type t = {
  page_size : page_size;
  covered_bytes : int;
  pml4_pages : int;
  pdpt_pages : int;
  pd_pages : int;
  pt_pages : int;
}

val identity_map : covered_bytes:int -> page_size:page_size -> t
(** [identity_map ~covered_bytes ~page_size] computes the table geometry
    for an identity mapping of [0, covered_bytes). Raises
    [Invalid_argument] on a non-positive span. *)

val total_pages : t -> int
(** [total_pages t] is the number of 4 KiB table pages that must be
    allocated and zeroed. *)

val table_bytes : t -> int
(** [table_bytes t] is [total_pages t * 4096] — input to the zeroing
    cost. *)

val entries : t -> int
(** [entries t] is the number of page-table entries written. *)
