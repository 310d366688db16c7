(* Guest memory is demand-paged: [chunks] splits the guest into fixed
   1 MiB chunks, and every slot starts as the one shared [zero_chunk]. A
   write allocates its chunk first, so a fresh guest costs a slot array,
   not [size] zeroed bytes, and an idle guest holds only what it wrote —
   the way a VMM's anonymous guest RAM faults in on demand. Reads index
   the chunk directly; an access that straddles a chunk boundary takes a
   short path through a small buffer.

   Dirty bytes are tracked as a small bounded set of disjoint-ish ranges
   rather than one envelope: a KASLR boot writes bootinfo pages low in the
   guest and the relocated image wherever entropy placed it, and a single
   [lo, hi) extent would span the gap and make recycling re-zero almost the
   whole guest. A handful of ranges keeps [scrub] proportional to bytes
   actually written. The ranges stay byte-granular (not "the allocated
   chunks"): snapshot frames are cut from them, and a frame's length is
   what the virtual snapshot-load charge is computed from. *)
let max_ranges = 8

let chunk_bits = 20
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* never written: every unallocated slot of every guest points here, so
   it must stay all-zero — writers go through [writable] *)
let zero_chunk = Bytes.make chunk_size '\000'

type t = {
  size : int;
  chunks : bytes array;  (* [zero_chunk] until the chunk's first write *)
  range_lo : int array;  (* [max_ranges] slots; first [nranges] are live *)
  range_hi : int array;  (* one past the highest byte of each range *)
  mutable nranges : int;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let create ~size =
  if size <= 0 then invalid_arg "Guest_mem.create: non-positive size";
  {
    size;
    chunks = Array.make ((size + chunk_mask) lsr chunk_bits) zero_chunk;
    range_lo = Array.make max_ranges 0;
    range_hi = Array.make max_ranges 0;
    nranges = 0;
  }

let size t = t.size

let check t pa len what =
  if pa < 0 || len < 0 || pa + len > t.size then
    fault "%s at %#x+%d outside guest memory of %d bytes" what pa len t.size

(* chunk [i], allocated on first write; the last chunk is sized to the
   guest, so a guest never holds more than [size] bytes *)
let writable t i =
  let c = t.chunks.(i) in
  if c != zero_chunk then c
  else begin
    let c =
      Bytes.make (min chunk_size (t.size - (i lsl chunk_bits))) '\000'
    in
    t.chunks.(i) <- c;
    c
  end

(* [f i off n at] for each piece of [pa, pa+len) that lies inside one
   chunk, in ascending order: chunk [i], offset [off] in it, [n] bytes,
   [at] bytes past [pa]. The range must already be checked. *)
let iter_pieces pa len f =
  let at = ref 0 in
  while !at < len do
    let p = pa + !at in
    let off = p land chunk_mask in
    let n = min (len - !at) (chunk_size - off) in
    f (p lsr chunk_bits) off n !at;
    at := !at + n
  done

let blit_out t pa dst dst_off len =
  iter_pieces pa len (fun i off n at ->
      Bytes.blit t.chunks.(i) off dst (dst_off + at) n)

let store t pa b =
  iter_pieces pa (Bytes.length b) (fun i off n at ->
      Bytes.blit b at (writable t i) off n)

(* zeroing an unallocated chunk is a no-op: it already reads as zero *)
let fill_zero t pa len =
  iter_pieces pa len (fun i off n _ ->
      let c = t.chunks.(i) in
      if c != zero_chunk then Bytes.fill c off n '\000')

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
  (* allocated chunks stay allocated: a recycled guest is all-zero again
     without paying for its chunks a second time *)
  for j = 0 to t.nranges - 1 do
    fill_zero t t.range_lo.(j) (t.range_hi.(j) - t.range_lo.(j))
  done;
  t.nranges <- 0

let write_bytes t ~pa b =
  check t pa (Bytes.length b) "write";
  touch t pa (Bytes.length b);
  store t pa b

let read_bytes t ~pa ~len =
  check t pa len "read";
  let b = Bytes.make len '\000' in
  blit_out t pa b 0 len;
  b

let copy_within t ~src ~dst ~len =
  check t src len "copy source";
  check t dst len "copy destination";
  touch t dst len;
  (* one piece never crosses a chunk on either side; pieces run in the
     direction that reads every source byte before it is overwritten *)
  let piece s d n =
    let dc = writable t (d lsr chunk_bits) in
    Bytes.blit t.chunks.(s lsr chunk_bits) (s land chunk_mask) dc
      (d land chunk_mask) n
  in
  if dst < src then begin
    let at = ref 0 in
    while !at < len do
      let s = src + !at and d = dst + !at in
      let n =
        min (len - !at)
          (chunk_size - max (s land chunk_mask) (d land chunk_mask))
      in
      piece s d n;
      at := !at + n
    done
  end
  else if dst > src then begin
    let rem = ref len in
    while !rem > 0 do
      let s = src + !rem and d = dst + !rem in
      let n =
        min !rem
          (1 + min ((s - 1) land chunk_mask) ((d - 1) land chunk_mask))
      in
      piece (s - n) (d - n) n;
      rem := !rem - n
    done
  end

let zero t ~pa ~len =
  check t pa len "zero";
  touch t pa len;
  fill_zero t pa len

let valid t ~pa ~len = pa >= 0 && len >= 0 && pa + len <= t.size

let with_validated_range t ~pa ~len f =
  check t pa len "validated run";
  let i = pa lsr chunk_bits in
  if len = 0 || (pa + len - 1) lsr chunk_bits <> i then
    invalid_arg "Guest_mem.with_validated_range: run empty or crosses a chunk";
  touch t pa len;
  f (writable t i) (i lsl chunk_bits)

(* Scalars: the chunk directly when the access fits in it, else a small
   buffer assembled from (or scattered to) the two chunks it straddles. *)

let[@inline] get t pa n read =
  let off = pa land chunk_mask in
  if off <= chunk_size - n then read t.chunks.(pa lsr chunk_bits) off
  else begin
    let b = Bytes.make n '\000' in
    blit_out t pa b 0 n;
    read b 0
  end

let[@inline] set t pa n write v =
  let off = pa land chunk_mask in
  if off <= chunk_size - n then write (writable t (pa lsr chunk_bits)) off v
  else begin
    let b = Bytes.make n '\000' in
    write b 0 v;
    store t pa b
  end

let get_u8 t ~pa =
  check t pa 1 "read u8";
  Imk_util.Byteio.get_u8 t.chunks.(pa lsr chunk_bits) (pa land chunk_mask)

let get_u32 t ~pa =
  check t pa 4 "read u32";
  get t pa 4 Imk_util.Byteio.get_u32

let set_u32 t ~pa v =
  check t pa 4 "write u32";
  touch t pa 4;
  set t pa 4 Imk_util.Byteio.set_u32 v

let get_u32_signed t ~pa =
  check t pa 4 "read u32";
  get t pa 4 Imk_util.Byteio.get_u32_signed

let get_addr t ~pa =
  check t pa 8 "read u64";
  get t pa 8 Imk_util.Byteio.get_addr

let set_addr t ~pa v =
  check t pa 8 "write u64";
  touch t pa 8;
  set t pa 8 Imk_util.Byteio.set_addr v

let get_i64 t ~pa =
  check t pa 8 "read i64";
  get t pa 8 Imk_util.Byteio.get_i64

(* --- read-only bulk accessors: none of these touch the dirty tracker or
   allocate chunks, which is the point — snapshot capture and page
   hashing must observe a guest without inflating the next arena scrub
   or its memory --- *)

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
  blit_out t pa dst dst_off len

let crc32_range t ~pa ~len =
  check t pa len "crc probe";
  let crc = ref 0 in
  iter_pieces pa len (fun i off n _ ->
      crc := Imk_util.Crc.crc32 ~init:!crc t.chunks.(i) off n);
  !crc
