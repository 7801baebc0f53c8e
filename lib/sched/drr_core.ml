open Rp_pkt
open Rp_classifier

module FK = Flow_key.Table

(* How a queue is found, which says when it is freed. *)
type hold =
  | Bound  (* through a flow binding's soft slot: freed by [release] *)
  | Keyed  (* in the key table: freed when it drains *)
  | Released  (* by nothing: freed once off the active ring *)

(* A flow's queue.  The record outlives its flow: a freed record goes
   on its owner's free list, and the owner's next new queue takes it,
   with its ring at the size it grew to and its soft-slot option,
   built once with the record. *)
type queue = {
  mutable key : Flow_key.t;
  q : Mbuf.t Ring.t;  (* bounded by the core's [limit] *)
  mutable deficit : int;
  mutable weight : int;  (* set when the queue joins the active ring *)
  mutable on_ring : bool;
  mutable hold : hold;
  owner : owner;
  soft : Flow_table.soft option;  (* [Some (Drr_flow self)] *)
}

and owner = Unowned | Owned of t

and t = {
  quantum : int;
  limit : int;
  ring : queue Ring.t;  (* the backlogged queues, each once *)
  free : queue Ring.t;  (* freed records, for reuse *)
  keys : queue FK.t;  (* the [Keyed] queues *)
  reservations : int FK.t;  (* flow key -> reserved rate (bps) *)
  mutable min_rate : int;  (* the smallest reservation *)
  mutable backlog : int;
  mutable dropped : int;
  mutable held : int;  (* queues off the free list *)
  mutable self : owner;  (* [Owned] of this core *)
}

type Flow_table.soft += Drr_flow of queue

(* Stands in a free slot of the active ring and the free list. *)
let no_queue =
  {
    key = Mbuf.dummy.Mbuf.key;
    q = Ring.create ~limit:1 ~dummy:Mbuf.dummy ();
    deficit = 0;
    weight = 1;
    on_ring = false;
    hold = Released;
    owner = Unowned;
    soft = None;
  }

let create ~quantum ~limit =
  let t =
    {
      quantum;
      limit;
      ring = Ring.create ~limit:max_int ~dummy:no_queue ();
      free = Ring.create ~limit:max_int ~dummy:no_queue ();
      keys = FK.create 64;
      reservations = FK.create 16;
      min_rate = max_int;
      backlog = 0;
      dropped = 0;
      held = 0;
      self = Unowned;
    }
  in
  t.self <- Owned t;
  t

let quantum t = t.quantum
let backlog t = t.backlog
let dropped t = t.dropped
let held t = t.held
let owns t fq = fq.owner == t.self
let soft fq = fq.soft
let state fq = (Ring.length fq.q, fq.deficit, fq.weight)

(* Reserved weights are relative to the smallest live reservation
   (paper: weights are "dynamically recalculated for reserved flows if
   a new reserved flow is added"); without reservations every flow
   weighs 1, and no key is hashed to say so. *)
let weight_for t k =
  if FK.length t.reservations = 0 then 1
  else
    match FK.find t.reservations k with
    | rate -> max 1 (rate / max 1 t.min_rate)
    | exception Not_found -> 1

(* A queue weighs [weight_for] from the moment it joins the active
   ring, and is re-weighed there when the reservation set changes, so
   every top-up uses the flow's current weight. *)
let reweigh t =
  t.min_rate <- FK.fold (fun _ r acc -> min r acc) t.reservations max_int;
  Ring.fold (fun () fq -> fq.weight <- weight_for t fq.key) () t.ring

let reserve t k rate_bps =
  FK.replace t.reservations k rate_bps;
  reweigh t

let unreserve t k =
  FK.remove t.reservations k;
  reweigh t

(* A queue for [k], found as [hold] says: a recycled record when one
   is free, reset to an empty queue and no deficit. *)
let take t k hold =
  t.held <- t.held + 1;
  if Ring.is_empty t.free then
    let rec fq =
      {
        key = k;
        q = Ring.create ~limit:t.limit ~dummy:Mbuf.dummy ();
        deficit = 0;
        weight = 1;
        on_ring = false;
        hold;
        owner = t.self;
        soft = Some (Drr_flow fq);
      }
    in
    fq
  else begin
    let fq = Ring.pop t.free in
    fq.key <- k;
    fq.deficit <- 0;
    fq.hold <- hold;
    fq
  end

let bind t k = take t k Bound

let find t k =
  match FK.find t.keys k with
  | fq -> fq
  | exception Not_found ->
    let fq = take t k Keyed in
    FK.add t.keys k fq;
    fq

let free fq =
  match fq.owner with
  | Owned t ->
    t.held <- t.held - 1;
    ignore (Ring.push t.free fq)
  | Unowned -> ()

let release fq =
  fq.hold <- Released;
  if not fq.on_ring then free fq

let evict fq =
  (match fq.owner with
   | Owned t ->
     t.dropped <- t.dropped + Ring.length fq.q;
     t.backlog <- t.backlog - Ring.length fq.q
   | Unowned -> ());
  Ring.clear fq.q;
  release fq

let push t fq m =
  if not (Ring.push fq.q m) then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    t.backlog <- t.backlog + 1;
    if not fq.on_ring then begin
      fq.deficit <- 0;
      fq.weight <- weight_for t fq.key;
      fq.on_ring <- true;
      ignore (Ring.push t.ring fq)
    end;
    true
  end

(* Take [fq], drained, off the head of the active ring: a keyed or
   released queue is free from then on. *)
let retire t fq =
  ignore (Ring.pop t.ring);
  fq.on_ring <- false;
  fq.deficit <- 0;
  match fq.hold with
  | Bound -> ()
  | Keyed ->
    FK.remove t.keys fq.key;
    free fq
  | Released -> free fq

let rec pop t =
  if Ring.is_empty t.ring then Mbuf.dummy
  else begin
    let fq = Ring.peek t.ring in
    if Ring.is_empty fq.q then begin
      retire t fq;
      pop t
    end
    else begin
      let head_len = (Ring.peek fq.q).Mbuf.len in
      if fq.deficit >= head_len then begin
        let m = Ring.pop fq.q in
        fq.deficit <- fq.deficit - head_len;
        t.backlog <- t.backlog - 1;
        if Ring.is_empty fq.q then retire t fq;
        m
      end
      else begin
        (* The round-robin pointer visits this flow: top up its
           deficit by one (weighted) quantum and move on. *)
        fq.deficit <- fq.deficit + (t.quantum * fq.weight);
        ignore (Ring.push t.ring (Ring.pop t.ring));
        pop t
      end
    end
  end

let head_len t =
  Ring.fold
    (fun acc fq ->
      if acc > 0 || Ring.is_empty fq.q then acc else (Ring.peek fq.q).Mbuf.len)
    0 t.ring
