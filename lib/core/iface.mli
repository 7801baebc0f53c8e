(** Network interfaces: an output queue (a plain FIFO, or an attached
    packet-scheduling plugin instance) plus the usual counters.

    The plain FIFO is a {!Rp_pkt.Ring} bounded by [fifo_limit]: its
    array is allocated by the first packet queued and doubles as the
    backlog grows, up to [fifo_limit] slots, so queueing and pulling a
    packet allocate nothing, and a
    transmitted or discarded descriptor is not kept alive by the
    queue.

    Transmission timing (link rate, serialization delay) is driven by
    the simulator; this module only owns the queueing decision. *)

open Rp_pkt

type counters = {
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable drops : int;  (** queue-full or policy drops on this iface *)
}

type t = {
  id : int;
  name : string;
  mtu : int;
  bandwidth_bps : int64;  (** link rate used by the simulator *)
  fifo : Mbuf.t Ring.t;  (** the plain FIFO, bounded by [fifo_limit] *)
  mutable qdisc : Plugin.t option;
      (** attached scheduling instance; [None] = plain FIFO *)
  counters : counters;
  mutable up : bool;
  mutable queued : bool;
      (** a packet was queued since the last {!take_queued} *)
}

(** [create ~id ()] — [fifo_limit] (default 512) bounds the plain FIFO.
    @raise Invalid_argument if [fifo_limit < 1]. *)
val create :
  ?name:string -> ?mtu:int -> ?bandwidth_bps:int64 -> ?fifo_limit:int ->
  id:int -> unit -> t

(** [attach_scheduler t inst] installs a scheduling-gate plugin
    instance as this interface's queueing discipline.
    @raise Invalid_argument if the instance has no scheduler. *)
val attach_scheduler : t -> Plugin.t -> unit

val detach_scheduler : t -> unit

(** [enqueue t ~now ~binding m] queues [m] for output: through the
    attached scheduler when present (passing the flow [binding] whose
    soft slot carries per-flow queue state), else the FIFO with
    tail-drop at [fifo_limit].  Returns [false] when dropped; a queued
    packet marks [t] as {!queued}. *)
val enqueue :
  t -> now:int64 -> binding:Plugin.t Rp_classifier.Flow_table.binding option ->
  Mbuf.t -> bool

(** [pull t ~now] takes the next packet to put on the wire, or
    {!Rp_pkt.Mbuf.dummy} (compare with [==]) when the queue gives up
    nothing at [now]: the [dequeue] contract of {!Plugin.scheduler}.
    It allocates nothing. *)
val pull : t -> now:int64 -> Mbuf.t

(** [dequeue t ~now] is {!pull} with [None] for the dummy: a
    convenience for callers off the data path (it allocates the
    [Some]). *)
val dequeue : t -> now:int64 -> Mbuf.t option

(** [drop_queued t ~now] takes every packet the output queue gives up
    at [now] and discards it, as repeated {!pull}s until the dummy
    would; the default FIFO is emptied at once. *)
val drop_queued : t -> now:int64 -> unit

(** [take_queued t] — was a packet queued on [t] since the last call?
    Clears the mark.  An engine serves exactly the interfaces this
    names after each packet. *)
val take_queued : t -> bool

(** Packets waiting for transmission. *)
val backlog : t -> int

(** Record a completed transmission (called by the simulator's link
    model). *)
val count_tx : t -> Mbuf.t -> unit

(** Record one received packet: the interface's own [counters] and the
    process-wide [iface.rx_packets] / [iface.rx_bytes]. *)
val count_rx : t -> Mbuf.t -> unit

(** [count_rx] in two halves, for a caller that receives a batch:
    [note_rx] counts one packet in the interface's own [counters]
    only, and [add_rx] adds a batch's totals to the process-wide
    counters, one add each.  [Ip_core] and [Engine] count each batch
    this way. *)
val note_rx : t -> Mbuf.t -> unit

val add_rx : packets:int -> bytes:int -> unit
val pp : Format.formatter -> t -> unit
