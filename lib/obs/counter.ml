(* Striped atomic cells: a domain increments the cell indexed by its
   own id, so concurrent shards almost never contend on a cache line,
   and [get] folds the stripes.  [stripes] is a power of two so the
   domain-id fold is a mask, not a modulo. *)
let stripes = 8

type t = { name : string; cells : int Atomic.t array }

let make name = { name; cells = Array.init stripes (fun _ -> Atomic.make 0) }
let name t = t.name

let[@inline] cell t =
  t.cells.((Domain.self () :> int) land (stripes - 1))

let inc t = Atomic.incr (cell t)
let add t n = ignore (Atomic.fetch_and_add (cell t) n)

let get t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells

(* Read-and-zero each stripe atomically (exchange, not read-then-set):
   an increment racing the swap either lands before the exchange and
   is included in the returned total, or lands after and survives into
   the next epoch — it is never lost, which is what makes a concurrent
   [get]/dump see a consistent (never partially-reset) value. *)
let swap t =
  Array.fold_left (fun acc c -> acc + Atomic.exchange c 0) 0 t.cells

let reset t = ignore (swap t)

(* A plain tally in front of a counter, owned by one domain: events
   [note] into it at the cost of a field bump, and [settle] moves the
   tally into the counter with one striped add. *)
type pending = { target : t; mutable n : int }

let pending target = { target; n = 0 }
let[@inline] note p k = p.n <- p.n + k

let settle p =
  let k = p.n in
  if k <> 0 then begin
    p.n <- 0;
    add p.target k
  end
