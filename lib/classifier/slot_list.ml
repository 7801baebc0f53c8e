(* Node [l] is list [l]'s sentinel, node [lists + s] is slot [s]; node
   [x]'s next is at [2x] and its prev at [2x + 1], so unlinking a node
   reads one cache line for it and one for each neighbour.  Every list
   is circular through its sentinel, and a node on no list points at
   itself, so [unlink] of such a node changes nothing.  All functions
   are top-level and allocation-free. *)

type t = { lists : int; mutable links : int array }

let create ~lists ~slots =
  { lists; links = Array.init (2 * (lists + slots)) (fun i -> i lsr 1) }

let grow t ~slots =
  let old = Array.length t.links and want = 2 * (t.lists + slots) in
  if want > old then
    t.links <-
      Array.init want (fun i -> if i < old then t.links.(i) else i lsr 1)

let[@inline] next_of t x = Array.unsafe_get t.links (2 * x)
let[@inline] prev_of t x = Array.unsafe_get t.links ((2 * x) + 1)
let[@inline] set_next t x v = Array.unsafe_set t.links (2 * x) v
let[@inline] set_prev t x v = Array.unsafe_set t.links ((2 * x) + 1) v

let unlink t s =
  let x = t.lists + s in
  let p = prev_of t x and n = next_of t x in
  set_next t p n;
  set_prev t n p;
  set_next t x x;
  set_prev t x x

let push_back t l s =
  let x = t.lists + s and tail = prev_of t l in
  set_next t tail x;
  set_prev t x tail;
  set_next t x l;
  set_prev t l x

(* The slot at node [x], or -1 when [x] is a sentinel. *)
let[@inline] slot_at t x = if x < t.lists then -1 else x - t.lists

let first t l = slot_at t (next_of t l)
let last t l = slot_at t (prev_of t l)
let next t s = slot_at t (next_of t (t.lists + s))
let prev t s = slot_at t (prev_of t (t.lists + s))

let append t ~src ~dst =
  if src <> dst && next_of t src <> src then begin
    let a = next_of t src and z = prev_of t src and tail = prev_of t dst in
    set_next t tail a;
    set_prev t a tail;
    set_next t z dst;
    set_prev t dst z;
    set_next t src src;
    set_prev t src src
  end
