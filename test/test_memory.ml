(* Tests for Imk_memory: address constants and helpers, guest memory
   bounds behaviour, page-table geometry. *)

open Imk_memory

let check = Alcotest.check
let int = Alcotest.int

let test_addr_constants () =
  check int "phys start 16M" 0x1000000 Addr.default_phys_load;
  check int "align 2M" 0x200000 Addr.kernel_align;
  check int "max offset 1G" 0x40000000 Addr.kaslr_max_offset;
  (* the substitution invariant: simulated kmap keeps Linux's low 32
     bits, 0x80000000 *)
  check int "kmap low32" 0x80000000 (Addr.low32 Addr.kmap_base);
  check int "link base" (Addr.kmap_base + Addr.default_phys_load) Addr.link_base

let test_va_low32_roundtrip () =
  let va = Addr.link_base + 0x1234560 in
  check int "roundtrip" va (Addr.va_of_low32 (Addr.low32 va))

let test_va_of_low32_rejects () =
  Alcotest.check_raises "too big"
    (Invalid_argument "Addr.va_of_low32: not a 32-bit value") (fun () ->
      ignore (Addr.va_of_low32 0x100000000));
  check Alcotest.bool "outside window" true
    (try
       ignore (Addr.va_of_low32 0x1000);
       false
     with Invalid_argument _ -> true)

let test_is_kernel_va () =
  check Alcotest.bool "base" true (Addr.is_kernel_va Addr.kmap_base);
  check Alcotest.bool "link" true (Addr.is_kernel_va Addr.link_base);
  check Alcotest.bool "below" false (Addr.is_kernel_va (Addr.kmap_base - 1));
  check Alcotest.bool "way above" false
    (Addr.is_kernel_va (Addr.kmap_base + (4 * Addr.kaslr_max_offset)))

let test_align_helpers () =
  check int "up" 0x400000 (Addr.align_up 0x200001 0x200000);
  check int "down" 0x200000 (Addr.align_down 0x3fffff 0x200000);
  check Alcotest.bool "is_aligned" true (Addr.is_aligned 0x400000 0x200000)

let test_inverse_base_window () =
  (* every kernel VA must yield a 32-bit inverse value *)
  let lo = Addr.kmap_base + Addr.default_phys_load in
  let hi = Addr.kmap_base + Addr.kaslr_max_offset in
  List.iter
    (fun va ->
      let inv = Addr.inverse_base - va in
      check Alcotest.bool "fits u32" true (inv >= 0 && inv <= 0xffffffff))
    [ lo; hi; lo + ((hi - lo) / 2) ]

(* --- guest memory --- *)

let test_guest_mem_rw () =
  let m = Guest_mem.create ~size:4096 in
  Guest_mem.write_bytes m ~pa:100 (Bytes.of_string "hello");
  check Alcotest.string "read back" "hello"
    (Bytes.to_string (Guest_mem.read_bytes m ~pa:100 ~len:5));
  Guest_mem.set_u32 m ~pa:0 0xdeadbeef;
  check int "u32" 0xdeadbeef (Guest_mem.get_u32 m ~pa:0);
  Guest_mem.set_addr m ~pa:8 Addr.link_base;
  check int "addr" Addr.link_base (Guest_mem.get_addr m ~pa:8)

let test_guest_mem_zeroed_at_creation () =
  let m = Guest_mem.create ~size:64 in
  check int "zero" 0 (Guest_mem.get_u32 m ~pa:60)

let test_guest_mem_faults () =
  let m = Guest_mem.create ~size:256 in
  let faults f =
    check Alcotest.bool "faults" true
      (try
         f ();
         false
       with Guest_mem.Fault _ -> true)
  in
  faults (fun () -> ignore (Guest_mem.read_bytes m ~pa:250 ~len:10));
  faults (fun () -> ignore (Guest_mem.get_addr m ~pa:(-1)));
  faults (fun () -> Guest_mem.write_bytes m ~pa:255 (Bytes.of_string "xy"));
  faults (fun () -> Guest_mem.zero m ~pa:0 ~len:1000);
  faults (fun () -> Guest_mem.copy_within m ~src:0 ~dst:250 ~len:10)

let test_copy_within_overlap () =
  let m = Guest_mem.create ~size:64 in
  Guest_mem.write_bytes m ~pa:0 (Bytes.of_string "abcdef");
  Guest_mem.copy_within m ~src:0 ~dst:2 ~len:6;
  check Alcotest.string "blit semantics" "ababcdef"
    (Bytes.to_string (Guest_mem.read_bytes m ~pa:0 ~len:8))

let test_valid_and_validated_range () =
  let m = Guest_mem.create ~size:256 in
  check Alcotest.bool "in bounds" true (Guest_mem.valid m ~pa:0 ~len:256);
  check Alcotest.bool "zero len at end" true (Guest_mem.valid m ~pa:256 ~len:0);
  check Alcotest.bool "past end" false (Guest_mem.valid m ~pa:250 ~len:10);
  check Alcotest.bool "negative pa" false (Guest_mem.valid m ~pa:(-1) ~len:4);
  check Alcotest.bool "negative len" false (Guest_mem.valid m ~pa:0 ~len:(-1));
  (* out-of-bounds run faults before the callback can run *)
  check Alcotest.bool "oob run faults" true
    (try
       Guest_mem.with_validated_range m ~pa:250 ~len:10 (fun _ ->
           Alcotest.fail "callback ran on invalid range")
     with Guest_mem.Fault _ -> true);
  check Alcotest.bool "nothing dirtied by a faulted run" true
    (Guest_mem.dirty_extent m = None);
  (* writes inside a validated run are tracked: scrubbing restores the
     fresh all-zero state, same as for the checked mutators *)
  Guest_mem.with_validated_range m ~pa:16 ~len:8 (fun chunk base ->
      Imk_util.Byteio.set_addr chunk (16 - base) 0x1122334455667788);
  (match Guest_mem.dirty_extent m with
  | Some (lo, hi) ->
      check Alcotest.bool "run covered by dirty extent" true
        (lo <= 16 && hi >= 24)
  | None -> Alcotest.fail "expected a dirty extent");
  check int "write visible to checked reads" 0x1122334455667788
    (Guest_mem.get_addr m ~pa:16);
  Guest_mem.scrub m;
  check Alcotest.bool "scrubbed back to fresh" true
    (Guest_mem.dirty_extent m = None
    && Bytes.equal
         (Guest_mem.read_bytes m ~pa:0 ~len:256)
         (Bytes.make 256 '\000'));
  (* a run hands out one chunk, so it may not cross a chunk boundary *)
  let big = Guest_mem.create ~size:(2 lsl Guest_mem.chunk_bits) in
  let edge = 1 lsl Guest_mem.chunk_bits in
  check int "run ending at the boundary gets its chunk's base" 0
    (Guest_mem.with_validated_range big ~pa:(edge - 8) ~len:8 (fun _ b -> b));
  check int "run starting at the boundary gets the next base" edge
    (Guest_mem.with_validated_range big ~pa:edge ~len:8 (fun _ b -> b));
  check Alcotest.bool "chunk-crossing run refused" true
    (try
       Guest_mem.with_validated_range big ~pa:(edge - 4) ~len:8 (fun _ _ ->
           Alcotest.fail "callback ran on a chunk-crossing range")
     with Invalid_argument _ -> true)

let test_get_i64_raw () =
  let m = Guest_mem.create ~size:16 in
  Guest_mem.write_bytes m ~pa:0 (Bytes.make 8 '\xff');
  check Alcotest.int64 "raw read" (-1L) (Guest_mem.get_i64 m ~pa:0);
  (* get_addr on the same bytes raises, which is why get_i64 exists *)
  check Alcotest.bool "get_addr rejects" true
    (try
       ignore (Guest_mem.get_addr m ~pa:0);
       false
     with Invalid_argument _ -> true)

(* --- page tables --- *)

let test_page_table_2m_1g () =
  let pt =
    Page_table.identity_map ~covered_bytes:(Imk_util.Units.gib 1)
      ~page_size:Page_table.Two_m
  in
  (* 512 2M leaves = 1 PD page; 1 PDPT; 1 PML4 *)
  check int "pd" 1 pt.Page_table.pd_pages;
  check int "pdpt" 1 pt.Page_table.pdpt_pages;
  check int "total" 3 (Page_table.total_pages pt);
  check int "bytes" (3 * 4096) (Page_table.table_bytes pt)

let test_page_table_4k_1g () =
  let pt =
    Page_table.identity_map ~covered_bytes:(Imk_util.Units.gib 1)
      ~page_size:Page_table.Four_k
  in
  (* 262144 4K leaves = 512 PT pages, 1 PD, 1 PDPT, 1 PML4 *)
  check int "pt pages" 512 pt.Page_table.pt_pages;
  check int "total" 515 (Page_table.total_pages pt);
  check Alcotest.bool "entries >= leaves" true
    (Page_table.entries pt >= 262144)

let test_page_table_small () =
  let pt =
    Page_table.identity_map ~covered_bytes:(Imk_util.Units.mib 2)
      ~page_size:Page_table.Two_m
  in
  check int "one leaf still needs tables" 3 (Page_table.total_pages pt)

let test_page_table_invalid () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Page_table.identity_map: non-positive span") (fun () ->
      ignore (Page_table.identity_map ~covered_bytes:0 ~page_size:Page_table.Four_k))

let qcheck_guest_mem_rw =
  QCheck.Test.make ~name:"guest_mem: read back what was written" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (int_bound 200))
    (fun (s, pa) ->
      let m = Guest_mem.create ~size:512 in
      let b = Bytes.of_string s in
      if pa + Bytes.length b > 512 then QCheck.assume_fail ()
      else begin
        Guest_mem.write_bytes m ~pa b;
        Bytes.equal b (Guest_mem.read_bytes m ~pa ~len:(Bytes.length b))
      end)

(* --- the chunked store against a flat model --- *)

(* The reference: one flat [Bytes] plus the byte-range dirty tracker
   (8 ranges, nearest-merge), written out independently of Guest_mem.
   Every mutation records [pa, pa+len) exactly as the chunked store must,
   so the two agree on bytes and on dirty ranges. *)
module Flat = struct
  type t = {
    data : bytes;
    lo : int array;
    hi : int array;
    mutable n : int;
  }

  let create size =
    {
      data = Bytes.make size '\000';
      lo = Array.make 8 0;
      hi = Array.make 8 0;
      n = 0;
    }

  let widen t j lo hi =
    t.lo.(j) <- min t.lo.(j) lo;
    t.hi.(j) <- max t.hi.(j) hi

  let touch t pa len =
    if len > 0 then begin
      let lo = pa and hi = pa + len in
      match
        List.find_opt
          (fun j -> lo <= t.hi.(j) && hi >= t.lo.(j))
          (List.init t.n Fun.id)
      with
      | Some j -> widen t j lo hi
      | None when t.n < 8 ->
          t.lo.(t.n) <- lo;
          t.hi.(t.n) <- hi;
          t.n <- t.n + 1
      | None ->
          let gap j =
            if lo > t.hi.(j) then lo - t.hi.(j)
            else if hi < t.lo.(j) then t.lo.(j) - hi
            else 0
          in
          (* nearest range, first one on a tie *)
          let best = ref 0 in
          for j = 1 to t.n - 1 do
            if gap j < gap !best then best := j
          done;
          widen t !best lo hi
    end

  (* sorted, merged, each dirty byte once *)
  let ranges t =
    let rs =
      List.sort compare (List.init t.n (fun j -> (t.lo.(j), t.hi.(j))))
    in
    List.rev
      (List.fold_left
         (fun acc (l, h) ->
           match acc with
           | (pl, ph) :: rest when l <= ph -> (pl, max ph h) :: rest
           | _ -> (l, h) :: acc)
         [] rs)

  let scrub t =
    for j = 0 to t.n - 1 do
      Bytes.fill t.data t.lo.(j) (t.hi.(j) - t.lo.(j)) '\000'
    done;
    t.n <- 0
end

type op =
  | Write of int * int * char
  | Set_u32 of int * int
  | Set_addr of int * int
  | Zero of int * int
  | Copy of int * int * int
  | Scrub

let chunk = 1 lsl Guest_mem.chunk_bits
let model_size = (3 * chunk) + 5

(* an offset at or a few bytes either side of a chunk boundary (the
   guest's end included), or anywhere *)
let gen_pa =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun b d -> (b * chunk) + d) (int_bound 3) (int_range (-12) 12));
        (1, int_bound model_size);
      ]
    |> map (fun pa -> max 0 (min model_size pa)))

let gen_len =
  QCheck.Gen.(
    frequency
      [
        (4, int_bound 24);
        (1, int_bound (chunk + 64));
        (1, int_bound (2 * chunk));
      ])

(* clamp [pa, pa+len) into the guest *)
let fit pa len =
  let len = min len model_size in
  (min pa (model_size - len), len)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun pa len c ->
              let pa, len = fit pa len in
              Write (pa, len, c))
            gen_pa gen_len printable );
        ( 2,
          map2
            (fun pa v -> Set_u32 (fst (fit pa 4), v))
            gen_pa (int_bound 0xffffff) );
        ( 2,
          map2
            (fun pa v -> Set_addr (fst (fit pa 8), v))
            gen_pa (int_bound max_int) );
        ( 1,
          map2
            (fun pa len ->
              let pa, len = fit pa len in
              Zero (pa, len))
            gen_pa gen_len );
        ( 2,
          map3
            (fun src shift len ->
              (* overlapping more often than not: dst within len of src *)
              let src, len = fit src len in
              let dst = max 0 (min (model_size - len) (src + shift)) in
              Copy (src, dst, len))
            gen_pa (int_range (-40) 40) gen_len );
        (1, return Scrub);
      ])

let show_op = function
  | Write (pa, len, c) -> Printf.sprintf "write %#x+%d %C" pa len c
  | Set_u32 (pa, v) -> Printf.sprintf "set_u32 %#x %#x" pa v
  | Set_addr (pa, v) -> Printf.sprintf "set_addr %#x %#x" pa v
  | Zero (pa, len) -> Printf.sprintf "zero %#x+%d" pa len
  | Copy (s, d, len) -> Printf.sprintf "copy %#x->%#x+%d" s d len
  | Scrub -> "scrub"

let apply_op m f = function
  | Write (pa, len, c) ->
      let b = Bytes.make len c in
      Guest_mem.write_bytes m ~pa b;
      Flat.touch f pa len;
      Bytes.blit b 0 f.Flat.data pa len
  | Set_u32 (pa, v) ->
      Guest_mem.set_u32 m ~pa v;
      Flat.touch f pa 4;
      Imk_util.Byteio.set_u32 f.Flat.data pa v
  | Set_addr (pa, v) ->
      Guest_mem.set_addr m ~pa v;
      Flat.touch f pa 8;
      Imk_util.Byteio.set_addr f.Flat.data pa v
  | Zero (pa, len) ->
      Guest_mem.zero m ~pa ~len;
      Flat.touch f pa len;
      Bytes.fill f.Flat.data pa len '\000'
  | Copy (src, dst, len) ->
      Guest_mem.copy_within m ~src ~dst ~len;
      Flat.touch f dst len;
      Bytes.blit f.Flat.data src f.Flat.data dst len
  | Scrub ->
      Guest_mem.scrub m;
      Flat.scrub f

let qcheck_chunks_match_flat =
  QCheck.Test.make ~count:150
    ~name:"guest_mem: chunked store = flat model at chunk boundaries"
    QCheck.(
      pair
        (make ~print:(Print.list show_op) Gen.(list_size (1 -- 12) gen_op))
        (make
           ~print:Print.(list (pair int int))
           Gen.(list_size (return 6) (pair gen_pa gen_len))))
    (fun (ops, probes) ->
      let m = Guest_mem.create ~size:model_size in
      let f = Flat.create model_size in
      List.iter (apply_op m f) ops;
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%s differs" what
      in
      let outcome g = try Ok (g ()) with Invalid_argument _ -> Error () in
      same "bytes"
        (Guest_mem.read_bytes m ~pa:0 ~len:model_size)
        f.Flat.data;
      List.iter
        (fun (pa, len) ->
          let pa, len = fit pa len in
          let at = Printf.sprintf "at %#x+%d" pa len in
          same ("read_bytes " ^ at)
            (Guest_mem.read_bytes m ~pa ~len)
            (Bytes.sub f.Flat.data pa len);
          same ("crc32_range " ^ at)
            (Guest_mem.crc32_range m ~pa ~len)
            (Imk_util.Crc.crc32 f.Flat.data pa len);
          let dst = Bytes.make (len + 3) '\001' in
          Guest_mem.blit_to_bytes m ~pa ~dst ~dst_off:3 ~len;
          let want = Bytes.make (len + 3) '\001' in
          Bytes.blit f.Flat.data pa want 3 len;
          same ("blit_to_bytes " ^ at) dst want;
          let p = fst (fit pa 8) and d = f.Flat.data in
          same ("get_u8 " ^ at)
            (Guest_mem.get_u8 m ~pa:p)
            (Imk_util.Byteio.get_u8 d p);
          same ("get_u32 " ^ at)
            (Guest_mem.get_u32 m ~pa:p)
            (Imk_util.Byteio.get_u32 d p);
          same ("get_u32_signed " ^ at)
            (Guest_mem.get_u32_signed m ~pa:p)
            (Imk_util.Byteio.get_u32_signed d p);
          same ("get_i64 " ^ at)
            (Guest_mem.get_i64 m ~pa:p)
            (Imk_util.Byteio.get_i64 d p);
          same ("get_addr " ^ at)
            (outcome (fun () -> Guest_mem.get_addr m ~pa:p))
            (outcome (fun () -> Imk_util.Byteio.get_addr d p)))
        probes;
      same "fold_dirty_ranges"
        (List.rev
           (Guest_mem.fold_dirty_ranges m ~init:[] ~f:(fun acc ~lo ~hi ->
                (lo, hi) :: acc)))
        (Flat.ranges f);
      same "dirty_extent" (Guest_mem.dirty_extent m)
        (match Flat.ranges f with
        | [] -> None
        | rs -> Some (fst (List.hd rs), snd (List.nth rs (List.length rs - 1))));
      true)

let test_create_is_lazy () =
  (* demand paging: a fresh guest costs a slot array, not its size *)
  let before = Gc.allocated_bytes () in
  let m = Guest_mem.create ~size:(256 * 1024 * 1024) in
  let allocated = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity m);
  check Alcotest.bool
    (Printf.sprintf "256 MiB create allocated %.0f bytes (< 1 MiB)" allocated)
    true
    (allocated < 1024. *. 1024.)

(* --- arena: recycled guest memory must be indistinguishable from a
   fresh create --- *)

let test_dirty_extent_tracking () =
  let m = Guest_mem.create ~size:4096 in
  check Alcotest.bool "fresh has no extent" true
    (Guest_mem.dirty_extent m = None);
  Guest_mem.write_bytes m ~pa:100 (Bytes.of_string "abc");
  Guest_mem.set_u32 m ~pa:200 0xdeadbeef;
  (match Guest_mem.dirty_extent m with
  | Some (lo, hi) ->
      check int "extent lo" 100 lo;
      check int "extent hi" 204 hi
  | None -> Alcotest.fail "expected a dirty extent");
  Guest_mem.scrub m;
  check Alcotest.bool "extent reset" true (Guest_mem.dirty_extent m = None);
  check Alcotest.bool "all zero again" true
    (Bytes.equal
       (Guest_mem.read_bytes m ~pa:0 ~len:4096)
       (Bytes.make 4096 '\000'))

let test_arena_recycles_same_buffer () =
  let a = Arena.create () in
  let m1 = Arena.borrow a ~size:8192 in
  Guest_mem.write_bytes m1 ~pa:1000 (Bytes.make 100 '\xff');
  Arena.release a m1;
  check int "pooled after release" 8192 (Arena.pooled_bytes a);
  let m2 = Arena.borrow a ~size:8192 in
  check Alcotest.bool "zeroed before reuse" true
    (Bytes.equal
       (Guest_mem.read_bytes m2 ~pa:0 ~len:8192)
       (Bytes.make 8192 '\000'));
  (* physically the same guest, recycled rather than reallocated *)
  check Alcotest.bool "same guest" true (m2 == m1);
  let hits, misses = Arena.stats a in
  check int "one hit" 1 hits;
  check int "one miss" 1 misses;
  (* a different size never recycles the wrong buffer *)
  let m3 = Arena.borrow a ~size:4096 in
  check int "fresh size" 4096 (Guest_mem.size m3)

exception Boom

let test_with_buffer_releases_on_raise () =
  let a = Arena.create () in
  (* normal path: buffer comes back to the pool *)
  let m1 =
    Arena.with_buffer a ~size:8192 (fun m ->
        Guest_mem.write_bytes m ~pa:64 (Bytes.make 32 '\xaa');
        m)
  in
  check int "pooled after return" 8192 (Arena.pooled_bytes a);
  (* raising path: same guarantee *)
  (try
     Arena.with_buffer a ~size:8192 (fun m ->
         check Alcotest.bool "recycled on the raising path" true
           (m == m1);
         Guest_mem.write_bytes m ~pa:4000 (Bytes.make 100 '\xff');
         raise Boom)
   with Boom -> ());
  check int "pooled after raise" 8192 (Arena.pooled_bytes a);
  (* the buffer the raising user dirtied is scrubbed, not poisoned *)
  Arena.with_buffer a ~size:8192 (fun m ->
      check Alcotest.bool "fresh-indistinguishable after raise" true
        (Guest_mem.dirty_extent m = None
        && Bytes.equal
             (Guest_mem.read_bytes m ~pa:0 ~len:8192)
             (Bytes.make 8192 '\000'));
      check Alcotest.bool "still the same guest" true (m == m1))

let qcheck_with_buffer_exception_safe =
  QCheck.Test.make ~count:100
    ~name:"arena: with_buffer releases scrubbed buffer on any exception"
    QCheck.(pair (int_bound 65535) bool)
    (fun (off, should_raise) ->
      let size = 65536 in
      let a = Arena.create () in
      (try
         Arena.with_buffer a ~size (fun m ->
             let len = min 257 (size - off) in
             if len > 0 then
               Guest_mem.write_bytes m ~pa:off (Bytes.make len '\x5a');
             if should_raise then raise Boom)
       with Boom -> ());
      Arena.pooled_bytes a = size
      && Arena.with_buffer a ~size (fun m ->
             Guest_mem.dirty_extent m = None
             && Bytes.equal
                  (Guest_mem.read_bytes m ~pa:0 ~len:size)
                  (Bytes.make size '\000')))

let qcheck_arena_recycled_like_fresh =
  QCheck.Test.make ~count:100
    ~name:"arena: recycled buffer indistinguishable from fresh create"
    QCheck.(small_list (pair (int_bound 65535) (int_bound 255)))
    (fun writes ->
      let size = 65536 in
      let a = Arena.create () in
      let m = Arena.borrow a ~size in
      List.iteri
        (fun i (off, v) ->
          (* mix the mutation paths the boot code uses *)
          match i mod 3 with
          | 0 ->
              let len = min 97 (size - off) in
              if len > 0 then
                Guest_mem.write_bytes m ~pa:off (Bytes.make len (Char.chr v))
          | 1 -> if off + 4 <= size then Guest_mem.set_u32 m ~pa:off v
          | _ ->
              let len = min 33 (size - off) in
              if len > 0 && off + len + len <= size then
                Guest_mem.copy_within m ~src:off ~dst:(off + len) ~len)
        writes;
      Arena.release a m;
      let r = Arena.borrow a ~size in
      let fresh = Guest_mem.create ~size in
      fst (Arena.stats a) = 1
      && Guest_mem.dirty_extent r = None
      && Bytes.equal
           (Guest_mem.read_bytes r ~pa:0 ~len:size)
           (Guest_mem.read_bytes fresh ~pa:0 ~len:size))

let qcheck_arena_fresh_after_supervised_failures =
  (* the fresh-equivalence promise must survive the supervisor's failure
     paths too: a deadline-aborted attempt, a corrupt image, a guest
     panic mid-boot and a transient storm that exhausts its retries all
     release their guest memory through the with_buffer bracket *)
  let module S = Imk_harness.Boot_supervisor in
  let module Inject = Imk_fault.Inject in
  let module Vm_config = Imk_monitor.Vm_config in
  let shared =
    lazy
      (let env = Testkit.make_env ~functions:50 () in
       let vm =
         Vm_config.make ~rando:Vm_config.Rando_kaslr
           ~relocs_path:(Some (Testkit.relocs_path env))
           ~mem_bytes:(64 * 1024 * 1024)
           ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
           ~seed:0L ()
       in
       (env, vm))
  in
  QCheck.Test.make ~count:20
    ~name:"arena: deadline-aborted and storm-failed boots leave it fresh"
    QCheck.(pair (int_bound 3) (int_bound 9_999))
    (fun (scenario, seed) ->
      let env, vm = Lazy.force shared in
      let arena = Arena.create () in
      let armed kind =
        let disk = Testkit.pristine_disk env in
        let a =
          Inject.arm kind ~seed ~disk ~kernel_path:(Testkit.vmlinux_path env)
            ~relocs_path:(Testkit.relocs_path env) ()
        in
        {
          S.cache = Imk_storage.Page_cache.create disk;
          inject = a.Inject.inject;
          plans = None;
        }
      in
      let seed64 = Int64.of_int (seed + 1) in
      let report =
        match scenario with
        | 0 ->
            (* hopeless budget: the attempt and its fallback both abort *)
            let policy =
              { S.default_policy with S.attempt_budget_ns = Some 1 }
            in
            let fleet = S.fleet ~policy () in
            let ctx =
              S.plain_ctx (Imk_storage.Page_cache.create (Testkit.pristine_disk env))
            in
            S.supervise ~arena ~fleet ~seed:seed64 ~ctx vm
        | 1 -> S.supervise ~arena ~seed:seed64 ~ctx:(armed Inject.Flip_image_magic) vm
        | 2 -> S.supervise ~arena ~seed:seed64 ~ctx:(armed Inject.Flip_entry_magic) vm
        | _ ->
            S.supervise ~arena ~max_retries:1 ~seed:seed64
              ~ctx:(armed (Inject.Transient_init 99))
              vm
      in
      (match (scenario, report.S.outcome) with
      | 0, Error (Imk_fault.Failure.Deadline_exceeded _)
      | 1, Error (Imk_fault.Failure.Corrupt_image _)
      | 2, Error (Imk_fault.Failure.Guest_panic _)
      | _, Error (Imk_fault.Failure.Transient _) ->
          ()
      | _, Error f ->
          QCheck.Test.fail_reportf "wrong failure kind: %s"
            (Imk_fault.Failure.describe f)
      | _, Ok _ -> QCheck.Test.fail_report "expected a failed supervised boot");
      let size = vm.Vm_config.mem_bytes in
      Arena.pooled_bytes arena = size
      &&
      let r = Arena.borrow arena ~size in
      Guest_mem.dirty_extent r = None
      && Bytes.equal
           (Guest_mem.read_bytes r ~pa:0 ~len:size)
           (Bytes.make size '\000'))

let qcheck_page_table_monotone =
  QCheck.Test.make ~name:"page tables grow with coverage" ~count:100
    QCheck.(pair (int_range 1 2000) (int_range 1 2000))
    (fun (a, b) ->
      let mib = Imk_util.Units.mib 1 in
      let small = min a b * mib and large = max a b * mib in
      let p s =
        Page_table.entries (Page_table.identity_map ~covered_bytes:s ~page_size:Page_table.Four_k)
      in
      p small <= p large)

let () =
  Alcotest.run "imk_memory"
    [
      ( "addr",
        [
          Alcotest.test_case "constants" `Quick test_addr_constants;
          Alcotest.test_case "low32 roundtrip" `Quick test_va_low32_roundtrip;
          Alcotest.test_case "va_of_low32 rejects" `Quick
            test_va_of_low32_rejects;
          Alcotest.test_case "is_kernel_va" `Quick test_is_kernel_va;
          Alcotest.test_case "align helpers" `Quick test_align_helpers;
          Alcotest.test_case "inverse window" `Quick test_inverse_base_window;
        ] );
      ( "guest_mem",
        [
          Alcotest.test_case "read/write" `Quick test_guest_mem_rw;
          Alcotest.test_case "zeroed" `Quick test_guest_mem_zeroed_at_creation;
          Alcotest.test_case "faults" `Quick test_guest_mem_faults;
          Alcotest.test_case "copy_within" `Quick test_copy_within_overlap;
          Alcotest.test_case "valid + validated range" `Quick
            test_valid_and_validated_range;
          Alcotest.test_case "get_i64 raw" `Quick test_get_i64_raw;
          Testkit.to_alcotest qcheck_guest_mem_rw;
          Alcotest.test_case "create allocates no chunk" `Quick
            test_create_is_lazy;
          Testkit.to_alcotest qcheck_chunks_match_flat;
        ] );
      ( "arena",
        [
          Alcotest.test_case "dirty extent" `Quick test_dirty_extent_tracking;
          Alcotest.test_case "recycles buffer" `Quick
            test_arena_recycles_same_buffer;
          Alcotest.test_case "with_buffer exception-safe" `Quick
            test_with_buffer_releases_on_raise;
          Testkit.to_alcotest qcheck_arena_recycled_like_fresh;
          Testkit.to_alcotest qcheck_with_buffer_exception_safe;
          Testkit.to_alcotest qcheck_arena_fresh_after_supervised_failures;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "2M over 1G" `Quick test_page_table_2m_1g;
          Alcotest.test_case "4K over 1G" `Quick test_page_table_4k_1g;
          Alcotest.test_case "small" `Quick test_page_table_small;
          Alcotest.test_case "invalid" `Quick test_page_table_invalid;
          Testkit.to_alcotest qcheck_page_table_monotone;
        ] );
    ]
