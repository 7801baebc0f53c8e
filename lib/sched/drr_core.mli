(** The deficit round robin core (Shreedhar & Varghese, SIGCOMM '95)
    that the DRR qdisc ({!Drr_plugin}) and H-FSC's [`Drr] leaves
    ({!Hfsc_plugin}) both run on: per-flow queues, the active ring of
    backlogged queues, a free list of queue records, the deficit loop,
    and a key table for flows that have no binding.  It charges the
    cost model nothing; its callers charge what they model.

    A queue is found one of two ways, which says how long it lives:

    - {e by key} ({!find}): a flow with no binding.  The queue is in
      the key table only while it holds packets: when the deficit loop
      drains it, it leaves the table and goes back on the free list.
      Key-found state is therefore bounded by the backlog.
    - {e through a binding} ({!bind}): the caller keeps the queue in
      the flow binding's soft slot ({!soft}) and no table holds it.
      It lives until {!release} (or {!evict}); a released queue that
      still holds packets drains on its own ring and is freed there.

    A queue belongs to the core that made it ({!owns}); eviction
    counts its drops there and frees it there.

    Every queue is bounded by the core's [limit] packets.  Weights are
    1 unless the flow's key holds a reservation ({!reserve}); a
    reserved flow weighs its rate over the smallest live reservation's,
    at least 1. *)

open Rp_pkt

type t

(** A flow's queue. *)
type queue

(** The soft-slot value a bound queue travels in. *)
type Rp_classifier.Flow_table.soft += Drr_flow of queue

(** [create ~quantum ~limit] — a core whose queues get [quantum] bytes
    per round per weight unit and hold at most [limit] packets each. *)
val create : quantum:int -> limit:int -> t

val quantum : t -> int

(** Packets queued on the core's own queues. *)
val backlog : t -> int

(** Packets refused by a full queue, plus packets lost to {!evict}. *)
val dropped : t -> int

(** Queues off the free list: one per bound flow, one per backlogged
    key-found flow, and released queues not yet off the active ring. *)
val held : t -> int

(** [find t k] — [k]'s key-found queue, or a new one. *)
val find : t -> Flow_key.t -> queue

(** [bind t k] — a new queue for the bound flow [k]; the caller keeps
    it in the binding's soft slot. *)
val bind : t -> Flow_key.t -> queue

(** Did [t] make this queue? *)
val owns : t -> queue -> bool

(** [Some (Drr_flow q)], built once with the record. *)
val soft : queue -> Rp_classifier.Flow_table.soft option

(** No binding refers to the queue from now on: it is freed at once
    when it is off the active ring, else when the deficit loop takes
    it off. *)
val release : queue -> unit

(** [release], after dropping the queue's packets (counted by its
    owner's {!dropped} and taken off its {!backlog}). *)
val evict : queue -> unit

(** [push t q m] appends [m] to [q], which must be [t]'s; [false] (and
    a drop counted) when [q] is full. *)
val push : t -> queue -> Mbuf.t -> bool

(** The next packet in deficit round robin order, or [Mbuf.dummy] when
    nothing is queued. *)
val pop : t -> Mbuf.t

(** The length of the packet at the head of the first backlogged queue
    on the ring (an estimate of the next {!pop}'s), 0 when none. *)
val head_len : t -> int

(** (packets queued, deficit, weight) of a queue; the weight is the
    one it is served at while backlogged. *)
val state : queue -> int * int * int

(** Reservations: every weight is recalculated relative to the
    smallest live reservation. *)

val reserve : t -> Flow_key.t -> int -> unit
val unreserve : t -> Flow_key.t -> unit

(** The weight flow [k] is served at. *)
val weight_for : t -> Flow_key.t -> int
