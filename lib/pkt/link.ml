(* Fixed-capacity ring carrying packets between pipeline stages on one
   domain — the single-threaded analogue of the engine's SPSC ring,
   after snabb's core.link.  No atomics: a link connects stages of one
   breathe loop (generator → data path → sink), never domains. *)

exception Empty

type t = {
  buf : Mbuf.t array;
  mask : int;
  mutable head : int;  (* next slot to receive *)
  mutable tail : int;  (* next slot to fill *)
  mutable txpackets : int;
  mutable txdrops : int;
  mutable rxpackets : int;
}

(* Largest power of two <= n (n >= 1).  Rounding *down* keeps the
   ring within the caller's stated bound — a capacity is a budget, and
   silently doubling it (the old round-up) masked backpressure bugs by
   absorbing bursts the caller thought would drop. *)
let rec pow2_down n k = if k * 2 > n then k else pow2_down n (k * 2)

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Link.create: capacity < 1";
  let cap = pow2_down capacity 1 in
  {
    buf = Array.make cap Mbuf.dummy;
    mask = cap - 1;
    head = 0;
    tail = 0;
    txpackets = 0;
    txdrops = 0;
    rxpackets = 0;
  }

let capacity t = t.mask + 1
let nreadable t = t.tail - t.head
let nwritable t = capacity t - nreadable t
let is_empty t = nreadable t = 0
let is_full t = nwritable t = 0

let transmit t m =
  if is_full t then begin
    t.txdrops <- t.txdrops + 1;
    Rp_obs.Drop_reason.count Rp_obs.Drop_reason.Link_overflow;
    false
  end
  else begin
    t.buf.(t.tail land t.mask) <- m;
    t.tail <- t.tail + 1;
    t.txpackets <- t.txpackets + 1;
    true
  end

let receive t =
  if is_empty t then raise Empty;
  let slot = t.head land t.mask in
  let m = t.buf.(slot) in
  t.buf.(slot) <- Mbuf.dummy;
  t.head <- t.head + 1;
  t.rxpackets <- t.rxpackets + 1;
  m

let receive_batch t ~max dst =
  if max > Array.length dst then
    invalid_arg "Link.receive_batch: dst too small";
  let avail = nreadable t in
  let n = if avail < max then avail else max in
  for i = 0 to n - 1 do
    let slot = (t.head + i) land t.mask in
    dst.(i) <- t.buf.(slot);
    t.buf.(slot) <- Mbuf.dummy
  done;
  t.head <- t.head + n;
  t.rxpackets <- t.rxpackets + n;
  n

let txpackets t = t.txpackets
let txdrops t = t.txdrops
let rxpackets t = t.rxpackets
