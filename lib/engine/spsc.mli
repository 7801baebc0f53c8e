(** Single-producer single-consumer ring buffer.

    The engine's RX rings (main domain → worker) and TX rings (worker
    → main domain) are SPSC by construction, which makes the ring the
    cheapest possible lock-free queue: one atomic index per side, no
    CAS loops, no allocation per element.  Indices grow monotonically
    and are masked into a power-of-two array, so full/empty are
    distinguished without a spare slot.

    The atomics are sequentially consistent, which under the OCaml
    memory model makes the element write in [push] happen-before the
    read in [pop] that observes the advanced tail — elements are
    published safely across domains.

    Either side can batch its index store.  A producer stages a
    frame's elements ({!stage_next}) and {!publish}es them with one
    tail store; a consumer {!consume}s what is queued with one head
    store per call (so does {!pop_batch}).  The engine's result rings
    run this way: one atomic store per frame on each side, not one per
    packet.

    A ring built by {!create_slots} owns one value per slot, built at
    first use: the producer fills the next slot's value in place
    ({!stage_next}) instead of pushing a new one, and consuming leaves
    it in its slot, so such a ring moves mutable records with no
    allocation at all.  Its consumer must be done with a value before
    the call that handed it over returns: the slot is free again from
    then on.

    A full ring makes [push] return [false]; the producer counts the
    packet as a backpressure drop rather than blocking the data path
    (drop-tail, like a NIC RX ring). *)

type 'a t

(** [create ~capacity ~dummy] — [capacity] is rounded up to a power of
    two (minimum 2), its slots allocated by the first {!push}; [dummy]
    fills empty slots so popped elements don't
    pin old values against the GC.  @raise Invalid_argument if
    [capacity < 1]. *)
val create : capacity:int -> dummy:'a -> 'a t

(** [create_slots ~capacity ~make] — a ring whose slots hold values of
    their own, [make ()] each, built by the first {!stage_next}
    (capacity rounded as by {!create}).  Use {!stage_next}, not
    {!push}.  @raise Invalid_argument if [capacity < 1]. *)
val create_slots : capacity:int -> make:(unit -> 'a) -> 'a t

val capacity : 'a t -> int

(** Number of elements currently queued.  Racy by nature (either side
    may be mid-operation); used for depth gauges and idle checks. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** Producer side.  [push t x] is [false] when the ring is full;
    otherwise [x] (and anything staged before it) is published. *)
val push : 'a t -> 'a -> bool

(** Free slots, staged elements counted as taken.  Producer side. *)
val room : 'a t -> int

(** [stage_next t] stages the next free slot of a {!create_slots} ring
    without publishing it, and returns the slot's value for the
    producer to fill in place; the consumer sees nothing until
    {!publish}.  Producer side.
    @raise Invalid_argument if the ring, staged slots included, is
    full ([room t = 0]). *)
val stage_next : 'a t -> 'a

(** [publish t] makes every staged element visible to the consumer
    with one tail store (nothing when none is staged).  Producer
    side. *)
val publish : 'a t -> unit

(** Consumer side. *)
val pop : 'a t -> 'a option

(** [consume t ~max f] hands up to [max] queued elements to [f], oldest
    first, and advances the consumer index once, past them, returning
    the count.  If [f] raises, the index moves past the elements
    already handed to [f] — the raising one included — and the
    exception propagates; the rest stay queued for the next call.
    Consumer side. *)
val consume : 'a t -> max:int -> ('a -> unit) -> int

(** [pop_batch t ~max dst] pops up to [max] elements into [dst.(0..)]
    and returns the count, advancing the consumer index once —
    amortizing the atomic operations over the whole batch.
    @raise Invalid_argument if [max > Array.length dst]. *)
val pop_batch : 'a t -> max:int -> 'a array -> int
