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

    The scheduling itself is {!Drr_core}, which H-FSC's [`Drr] leaves
    run on too; this plugin adds the binding, the reservations'
    control interface and the cost-model charges.

    Config keys: [quantum] (bytes per round per weight unit, default
    512), [flow-limit] (packets per flow queue, default 128),
    [iface] (informational).  [quantum] and [flow-limit] must be
    positive integers, or [create_instance] fails.  A flow's queue is a
    {!Rp_pkt.Ring} of at most [flow-limit] packets.

    A queue lives only while its flow is bound or backlogged:
    - a bound flow's queue is found only through the binding's soft
      slot; it goes back on the instance's free list when the flow
      record is evicted (at once when it is off the active ring, else
      when the round-robin pointer next reaches it);
    - an unbound flow's queue (the monolithic row, best-effort mode) is
      found by its key, and is freed the moment it drains, so the key
      table never holds more queues than packets are queued.

    Queue records are recycled: a new queue takes a freed record with
    an empty queue, no deficit, and its ring at the size it grew to.
    The free list starts empty.  The [flows] stat counts the queues the
    instance holds off its free list: one per bound flow, one per
    backlogged unbound flow, and released queues not yet off the
    active ring (an evicted flow's queue leaves it at the next
    dequeue).

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

(** The [flows] stat: queues the instance holds off its free list. *)
val flow_count : instance_id:int -> int

(** Packets queued on the instance. *)
val backlog : instance_id:int -> int
