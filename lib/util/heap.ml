(* Binary min-heap keyed (key, seq), stored as parallel arrays: a record
   per push would mint a short-lived block per event, and at fleet scale
   minor-GC pressure is the scaling limit. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  dummy : 'a;
  mutable len : int;
}

let create ~dummy =
  {
    keys = Array.make 64 0;
    seqs = Array.make 64 0;
    payloads = Array.make 64 dummy;
    dummy;
    len = 0;
  }

let len t = t.len

let lt t i j =
  t.keys.(i) < t.keys.(j)
  || (t.keys.(i) = t.keys.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let v = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- v

let push t ~key ~seq payload =
  if t.len = Array.length t.keys then begin
    let grow a fill =
      let b = Array.make (2 * t.len) fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.keys <- grow t.keys 0;
    t.seqs <- grow t.seqs 0;
    t.payloads <- grow t.payloads t.dummy
  end;
  t.keys.(t.len) <- key;
  t.seqs.(t.len) <- seq;
  t.payloads.(t.len) <- payload;
  t.len <- t.len + 1;
  let i = ref (t.len - 1) in
  while !i > 0 && lt t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty";
  t.keys.(0)

let min_seq t =
  if t.len = 0 then invalid_arg "Heap.min_seq: empty";
  t.seqs.(0)

let pop t =
  if t.len = 0 then invalid_arg "Heap.pop: empty";
  let payload = t.payloads.(0) in
  t.len <- t.len - 1;
  t.keys.(0) <- t.keys.(t.len);
  t.seqs.(0) <- t.seqs.(t.len);
  t.payloads.(0) <- t.payloads.(t.len);
  t.payloads.(t.len) <- t.dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < t.len && lt t l !s then s := l;
    if r < t.len && lt t r !s then s := r;
    if !s = !i then continue := false
    else begin
      swap t !s !i;
      i := !s
    end
  done;
  payload
