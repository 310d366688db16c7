open Imk_memory

exception Reloc_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Reloc_error s)) fmt

let choose_physical rng ~image_memsz ~mem_bytes =
  let lo = Addr.default_phys_load in
  let hi = mem_bytes - image_memsz in
  if hi < lo then lo
  else Imk_entropy.Prng.next_aligned rng ~lo ~hi ~align:Addr.kernel_align

let virtual_bounds ~image_memsz =
  let lo = Addr.kmap_base + Addr.default_phys_load in
  let hi = Addr.kmap_base + Addr.kaslr_max_offset - image_memsz in
  (lo, hi)

let choose_virtual rng ~image_memsz =
  let lo, hi = virtual_bounds ~image_memsz in
  if hi < lo then lo
  else Imk_entropy.Prng.next_aligned rng ~lo ~hi ~align:Addr.kernel_align

let virtual_slots ~image_memsz =
  let lo, hi = virtual_bounds ~image_memsz in
  if hi < lo then 1
  else
    let first = Addr.align_up lo Addr.kernel_align in
    ((hi - first) / Addr.kernel_align) + 1

let delta_new_va ~delta va =
  if not (Addr.is_kernel_va va) then
    fail "relocation target %#x outside the kernel window" va;
  va + delta

(* Relocation application is batched: the site arrays arrive sorted by
   link VA, and [site_pa] is piecewise-affine (constant offset for
   KASLR, per-section offsets under FGKASLR), so consecutive sites map
   to monotone stretches of guest-physical addresses. Each stretch pays
   one Guest_mem bounds check + dirty-tracker update via
   [with_validated_range] and then patches through Imk_util.Byteio on
   the validated run — instead of a checked read, a checked write and a
   tracker walk per site. A run ends at a guest-memory chunk boundary
   (1 MiB). That also caps its span, and so the per-run dirty
   over-approximation when sorted sites straddle a sparse region. Sites
   of a healthy image lie inside its already-dirty placed extent, so the
   tracker outcome does not depend on where runs split. A stretch that
   fails validation (a site outside the loaded image — the corrupt-relocs
   case) or a lone site straddling a chunk boundary is replayed
   site-by-site through the checked accessors, so the error messages are
   exactly those of the unbatched path. *)

let apply ~mem ~relocs ~site_pa ~new_va_of =
  let open Imk_elf.Relocation in
  (* per-site checked path: the reference semantics, and the fallback
     that keeps error reporting identical when a run fails validation *)
  let patch kind site_va =
      let pa = site_pa site_va in
      match kind with
      | Abs64 ->
          let old_va =
            (* a site pointing at garbage can hold a value outside the
               native-int range; that is a corrupt-relocs symptom, not a
               programming error *)
            try Guest_mem.get_addr mem ~pa
            with Invalid_argument _ ->
              fail "abs64 site %#x holds a non-address value" site_va
          in
          Guest_mem.set_addr mem ~pa (new_va_of old_va)
      | Abs32 ->
          let low = Guest_mem.get_u32 mem ~pa in
          let old_va =
            try Addr.va_of_low32 low
            with Invalid_argument _ ->
              fail "abs32 site %#x holds non-kernel value %#x" site_va low
          in
          let nva = new_va_of old_va in
          if not (Addr.is_kernel_va nva) then
            fail "abs32 relocation at %#x overflows 32 bits" site_va;
          Guest_mem.set_u32 mem ~pa (Addr.low32 nva)
      | Inv32 ->
          let stored = Guest_mem.get_u32 mem ~pa in
          let old_va = Addr.inverse_base - stored in
          if not (Addr.is_kernel_va old_va) then
            fail "inv32 site %#x holds non-kernel value %#x" site_va stored;
          let nva = new_va_of old_va in
          let stored' = Addr.inverse_base - nva in
          if stored' < 0 || stored' > 0xffffffff then
            fail "inv32 relocation at %#x underflows" site_va;
          Guest_mem.set_u32 mem ~pa stored'
  in
  (* same transformation and same failure messages as [patch], but on a
     run [with_validated_range] already bounds-checked and dirtied; [pa]
     is the site's offset in the run's chunk *)
  let patch_in kind data pa site_va =
    match kind with
    | Abs64 ->
        let old_va =
          try Imk_util.Byteio.get_addr data pa
          with Invalid_argument _ ->
            fail "abs64 site %#x holds a non-address value" site_va
        in
        Imk_util.Byteio.set_addr data pa (new_va_of old_va)
    | Abs32 ->
        let low = Imk_util.Byteio.get_u32 data pa in
        let old_va =
          try Addr.va_of_low32 low
          with Invalid_argument _ ->
            fail "abs32 site %#x holds non-kernel value %#x" site_va low
        in
        let nva = new_va_of old_va in
        if not (Addr.is_kernel_va nva) then
          fail "abs32 relocation at %#x overflows 32 bits" site_va;
        Imk_util.Byteio.set_u32 data pa (Addr.low32 nva)
    | Inv32 ->
        let stored = Imk_util.Byteio.get_u32 data pa in
        let old_va = Addr.inverse_base - stored in
        if not (Addr.is_kernel_va old_va) then
          fail "inv32 site %#x holds non-kernel value %#x" site_va stored;
        let nva = new_va_of old_va in
        let stored' = Addr.inverse_base - nva in
        if stored' < 0 || stored' > 0xffffffff then
          fail "inv32 relocation at %#x underflows" site_va;
        Imk_util.Byteio.set_u32 data pa stored'
  in
  let apply_kind kind width sites =
    let n = Array.length sites in
    if n > 0 then begin
      let pas = Array.map site_pa sites in
      let i = ref 0 in
      while !i < n do
        let start = !i in
        let lo = pas.(start) in
        let j = ref start in
        let chunk = lo lsr Guest_mem.chunk_bits in
        (* extend while the physical addresses stay strictly forward and
           non-overlapping and the run stays inside [lo]'s chunk *)
        while
          !j + 1 < n
          && pas.(!j + 1) >= pas.(!j) + width
          && (pas.(!j + 1) + width - 1) lsr Guest_mem.chunk_bits = chunk
        do
          incr j
        done;
        let len = pas.(!j) + width - lo in
        if
          Guest_mem.valid mem ~pa:lo ~len
          && (lo + len - 1) lsr Guest_mem.chunk_bits = chunk
        then
          Guest_mem.with_validated_range mem ~pa:lo ~len (fun data base ->
              for k = start to !j do
                patch_in kind data (pas.(k) - base) sites.(k)
              done)
        else
          for k = start to !j do
            try patch kind sites.(k)
            with Guest_mem.Fault m ->
              fail "relocation site %#x outside the loaded image: %s" sites.(k)
                m
          done;
        i := !j + 1
      done
    end
  in
  apply_kind Abs64 8 relocs.abs64;
  apply_kind Abs32 4 relocs.abs32;
  apply_kind Inv32 4 relocs.inv32
