(** The weighted Deficit Round Robin scheduling plugin (paper,
    section 6.1; DRR is Shreedhar & Varghese, SIGCOMM '95).

    Per-flow queues live in flow-record soft state ("it was
    straightforward to add a queue per flow which guarantees perfectly
    fair queuing for all flows").  Weights are 1 for best-effort flows
    and are recalculated from the reserved rates whenever a
    reservation is added or removed, reproducing the paper's weighted
    variant.

    When a packet arrives with no flow binding (the monolithic/ALTQ
    comparison mode of Table 3), the plugin classifies internally by
    hashing the flow key — and charges
    {!Rp_core.Cost.monolithic_classifier} for it.

    Config keys: [quantum] (bytes per round per weight unit, default
    512), [flow-limit] (packets per flow queue, default 128),
    [iface] (informational).  [quantum] and [flow-limit] must be
    positive integers, or [create_instance] fails.  A flow's queue is a
    {!Rp_pkt.Ring} of at most [flow-limit] packets, allocated by its
    first packet.

    Queue records are recycled: an evicted flow's record goes on its
    instance's free list once it is off the active ring (at once, or
    when the round-robin pointer next reaches it), and the next new
    flow takes it with an empty queue, no deficit, its own weight and
    its ring at the size it grew to.  The free list starts empty and
    grows only at eviction.

    A flow's queue belongs to the qdisc that enqueues it.  When a
    flow's packets reach another DRR qdisc than the one whose queue its
    binding holds (a route change moved it to another interface), the
    new qdisc gives it a new queue; the old one keeps its packets,
    drains on its own qdisc, and is freed there once empty. *)

open Rp_pkt
open Rp_core

val name : string
val gate : Gate.t
val description : string

val create_instance :
  instance_id:int -> code:int -> config:(string * string) list ->
  (Plugin.t, string) result

val message : string -> string -> (string, string) result

(** Control interface used by daemons (SSP) and tests. *)

(** [reserve ~instance_id ~key ~rate_bps] gives the flow [key] a
    bandwidth reservation; all reserved weights are recalculated
    relative to the smallest live reservation. *)
val reserve : instance_id:int -> key:Flow_key.t -> rate_bps:int -> (unit, string) result

val unreserve : instance_id:int -> key:Flow_key.t -> (unit, string) result

(** [weight_of ~instance_id ~key] — current weight (1 = best effort). *)
val weight_of : instance_id:int -> key:Flow_key.t -> int option

(** The flow queue held by a binding's soft slot, as (packets queued,
    deficit, weight); [None] when the slot holds none. *)
val queue_state :
  Plugin.t Rp_classifier.Flow_table.binding -> (int * int * int) option

(** Packets dropped because a per-flow queue overflowed, plus packets
    lost to flow-record eviction, counted by the instance that owns
    the queue (a binding may name another instance than the qdisc its
    packets reach). *)
val drop_count : instance_id:int -> int
