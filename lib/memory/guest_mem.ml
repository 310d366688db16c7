(* Dirty bytes are tracked as a small bounded set of disjoint-ish ranges
   rather than one envelope: a KASLR boot writes bootinfo pages low in the
   guest and the relocated image wherever entropy placed it, and a single
   [lo, hi) extent would span the gap and make recycling re-zero almost the
   whole guest. A handful of ranges keeps [scrub] proportional to bytes
   actually written. *)
let max_ranges = 8

type t = {
  data : bytes;
  range_lo : int array;  (* [max_ranges] slots; first [nranges] are live *)
  range_hi : int array;  (* one past the highest byte of each range *)
  mutable nranges : int;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let create ~size =
  if size <= 0 then invalid_arg "Guest_mem.create: non-positive size";
  {
    data = Bytes.make size '\000';
    range_lo = Array.make max_ranges 0;
    range_hi = Array.make max_ranges 0;
    nranges = 0;
  }

let size t = Bytes.length t.data

let check t pa len what =
  if pa < 0 || len < 0 || pa + len > Bytes.length t.data then
    fault "%s at %#x+%d outside guest memory of %d bytes" what pa len
      (Bytes.length t.data)

(* every mutation lands in some dirty range; scrubbing only has to erase
   the bytes a boot actually touched, not the whole guest *)
let touch t pa len =
  if len > 0 then begin
    let lo = pa and hi = pa + len in
    let n = t.nranges in
    let rec grow j =
      if j >= n then false
      else if lo <= t.range_hi.(j) && hi >= t.range_lo.(j) then begin
        (* overlaps or abuts range [j]: widen it in place. The widened
           range may now overlap a sibling; scrub just fills a few bytes
           twice, which costs less than re-normalizing on every write. *)
        if lo < t.range_lo.(j) then t.range_lo.(j) <- lo;
        if hi > t.range_hi.(j) then t.range_hi.(j) <- hi;
        true
      end
      else grow (j + 1)
    in
    if not (grow 0) then
      if n < max_ranges then begin
        t.range_lo.(n) <- lo;
        t.range_hi.(n) <- hi;
        t.nranges <- n + 1
      end
      else begin
        (* out of slots: fold into the nearest range, over-approximating
           the dirty set (never under — recycled buffers must come back
           all-zero) while bounding tracker size *)
        let best = ref 0 and best_gap = ref max_int in
        for j = 0 to n - 1 do
          let gap =
            if lo > t.range_hi.(j) then lo - t.range_hi.(j)
            else if hi < t.range_lo.(j) then t.range_lo.(j) - hi
            else 0
          in
          if gap < !best_gap then begin
            best_gap := gap;
            best := j
          end
        done;
        let j = !best in
        if lo < t.range_lo.(j) then t.range_lo.(j) <- lo;
        if hi > t.range_hi.(j) then t.range_hi.(j) <- hi
      end
  end

let dirty_extent t =
  if t.nranges = 0 then None
  else begin
    let lo = ref max_int and hi = ref 0 in
    for j = 0 to t.nranges - 1 do
      if t.range_lo.(j) < !lo then lo := t.range_lo.(j);
      if t.range_hi.(j) > !hi then hi := t.range_hi.(j)
    done;
    Some (!lo, !hi)
  end

let scrub t =
  for j = 0 to t.nranges - 1 do
    Bytes.fill t.data t.range_lo.(j) (t.range_hi.(j) - t.range_lo.(j)) '\000'
  done;
  t.nranges <- 0

let write_bytes t ~pa b =
  check t pa (Bytes.length b) "write";
  touch t pa (Bytes.length b);
  Bytes.blit b 0 t.data pa (Bytes.length b)

let read_bytes t ~pa ~len =
  check t pa len "read";
  Bytes.sub t.data pa len

let copy_within t ~src ~dst ~len =
  check t src len "copy source";
  check t dst len "copy destination";
  touch t dst len;
  Bytes.blit t.data src t.data dst len

let zero t ~pa ~len =
  check t pa len "zero";
  touch t pa len;
  Bytes.fill t.data pa len '\000'

let valid t ~pa ~len = pa >= 0 && len >= 0 && pa + len <= Bytes.length t.data

let with_validated_range t ~pa ~len f =
  check t pa len "validated run";
  touch t pa len;
  f t.data

let get_u8 t ~pa =
  check t pa 1 "read u8";
  Imk_util.Byteio.get_u8 t.data pa

let get_u32 t ~pa =
  check t pa 4 "read u32";
  Imk_util.Byteio.get_u32 t.data pa

let set_u32 t ~pa v =
  check t pa 4 "write u32";
  touch t pa 4;
  Imk_util.Byteio.set_u32 t.data pa v

let get_u32_signed t ~pa =
  check t pa 4 "read u32";
  Imk_util.Byteio.get_u32_signed t.data pa

let get_addr t ~pa =
  check t pa 8 "read u64";
  Imk_util.Byteio.get_addr t.data pa

let set_addr t ~pa v =
  check t pa 8 "write u64";
  touch t pa 8;
  Imk_util.Byteio.set_addr t.data pa v

let get_i64 t ~pa =
  check t pa 8 "read i64";
  Imk_util.Byteio.get_i64 t.data pa

let raw t =
  (* the backing store escapes the write-tracking API: assume the whole
     guest is dirty so arena recycling can never leak stale bytes *)
  touch t 0 (Bytes.length t.data);
  t.data

(* --- read-only bulk accessors: none of these touch the dirty tracker,
   which is the point — snapshot capture and page hashing must observe a
   guest without inflating the next arena scrub into a whole-guest
   re-zero (the failure mode of going through [raw]) --- *)

let fold_dirty_ranges t ~init ~f =
  let n = t.nranges in
  if n = 0 then init
  else begin
    (* normalize the tracker's possibly-overlapping slots into sorted,
       merged ranges so callers see each dirty byte exactly once *)
    let rs = Array.init n (fun j -> (t.range_lo.(j), t.range_hi.(j))) in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) rs;
    let acc = ref init in
    let lo = ref (fst rs.(0)) and hi = ref (snd rs.(0)) in
    for j = 1 to n - 1 do
      let l, h = rs.(j) in
      if l <= !hi then begin
        if h > !hi then hi := h
      end
      else begin
        acc := f !acc ~lo:!lo ~hi:!hi;
        lo := l;
        hi := h
      end
    done;
    f !acc ~lo:!lo ~hi:!hi
  end

let blit_to_bytes t ~pa ~dst ~dst_off ~len =
  check t pa len "read blit";
  if dst_off < 0 || len > Bytes.length dst - dst_off then
    invalid_arg "Guest_mem.blit_to_bytes: destination range";
  Bytes.blit t.data pa dst dst_off len

let crc32_range t ~pa ~len =
  check t pa len "crc probe";
  Imk_util.Crc.crc32 t.data pa len
