type 'a t = {
  mutable buf : 'a array;  (* [||] until the first push *)
  mask : int;
  dummy : 'a;  (* written over a consumed slot, unless [owned] *)
  make : unit -> 'a;  (* fills the slots at first use *)
  owned : bool;  (* slots keep their values, which are filled in place *)
  head : int Atomic.t;  (* consumer index: next slot to pop *)
  tail : int Atomic.t;  (* producer index: next slot to fill *)
  mutable staged : int;  (* producer only: filled past [tail], unpublished *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let make_ring ~capacity ~dummy ~make ~owned =
  if capacity < 1 then invalid_arg "Spsc.create: capacity < 1";
  let cap = pow2 capacity 2 in
  {
    buf = [||];
    mask = cap - 1;
    dummy;
    make;
    owned;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    staged = 0;
  }

let create ~capacity ~dummy =
  make_ring ~capacity ~dummy ~make:(fun () -> dummy) ~owned:false

let create_slots ~capacity ~make =
  make_ring ~capacity ~dummy:(make ()) ~make ~owned:true

let capacity t = t.mask + 1

let length t =
  (* Read head first: a concurrent push can only make the result
     conservative (smaller), never negative or beyond capacity. *)
  let h = Atomic.get t.head in
  let tl = Atomic.get t.tail in
  tl - h

let is_empty t = length t = 0

let room t = capacity t - (Atomic.get t.tail + t.staged - Atomic.get t.head)

(* The next free slot, staged; the caller checked [room]. *)
let next t =
  (* Slots are allocated on first use, so building an engine costs no
     ring memory; the tail publication publishes [buf] too. *)
  if Array.length t.buf = 0 then
    t.buf <- Array.init (capacity t) (fun _ -> t.make ());
  let at = (Atomic.get t.tail + t.staged) land t.mask in
  t.staged <- t.staged + 1;
  at

let stage_next t =
  if room t <= 0 then invalid_arg "Spsc.stage_next: ring full";
  t.buf.(next t)

let publish t =
  if t.staged > 0 then begin
    (* The seq_cst set publishes the element writes before it. *)
    Atomic.set t.tail (Atomic.get t.tail + t.staged);
    t.staged <- 0
  end

let push t x =
  room t > 0
  && begin
    t.buf.(next t) <- x;
    publish t;
    true
  end

let pop t =
  let h = Atomic.get t.head in
  if Atomic.get t.tail - h <= 0 then None
  else begin
    let x = t.buf.(h land t.mask) in
    if not t.owned then t.buf.(h land t.mask) <- t.dummy;
    Atomic.set t.head (h + 1);
    Some x
  end

let pop_batch t ~max dst =
  if max > Array.length dst then invalid_arg "Spsc.pop_batch: dst too small";
  let h = Atomic.get t.head in
  let avail = Atomic.get t.tail - h in
  let n = if avail < max then avail else max in
  if n <= 0 then 0
  else begin
    for i = 0 to n - 1 do
      let slot = (h + i) land t.mask in
      dst.(i) <- t.buf.(slot);
      if not t.owned then t.buf.(slot) <- t.dummy
    done;
    Atomic.set t.head (h + n);
    n
  end

let consume t ~max f =
  let h = Atomic.get t.head in
  let avail = Atomic.get t.tail - h in
  let n = if avail < max then avail else max in
  let i = ref 0 in
  match
    while !i < n do
      let slot = (h + !i) land t.mask in
      let x = t.buf.(slot) in
      if not t.owned then t.buf.(slot) <- t.dummy;
      incr i;
      f x
    done
  with
  | () ->
    if n > 0 then Atomic.set t.head (h + n);
    n
  | exception e ->
    (* Past the elements handed over, the raising one included. *)
    Atomic.set t.head (h + !i);
    raise e
