(** Hierarchical Fair Service Curve scheduling plugin — the port of
    CMU's H-FSC the paper describes in section 6 ("we believe that
    H-FSC represents the state-of-the-art in packet scheduling").

    The implementation follows the two-criteria structure of the
    algorithm (Stoica, Zhang & Ng, SIGCOMM '97):

    - the {e real-time} criterion guarantees leaf service curves:
      every backlogged leaf with an RSC has an eligible time and a
      deadline derived from its anchored curve; eligible leaves are
      served earliest-deadline-first;
    - the {e link-sharing} criterion distributes remaining capacity
      hierarchically by virtual time: the scheduler descends from the
      root picking the backlogged child with the smallest virtual
      time, which it advances by [bytes / fsc-share] after service.

    Compared to the full algorithm, the deadline curve is re-anchored
    at each new backlogged period rather than merged with the history
    curve — the standard simplification, which preserves the property
    the paper demonstrates: delay (m1, d) decoupled from long-term
    bandwidth share (m2).

    Flows map to leaf classes via {!assign} (or the flow binding's
    soft state); unassigned flows use the ["default"] leaf.

    Config: [class-limit] (packets a class queues unless {!add_class}
    gives its own [limit], default 256), a positive integer or
    [create_instance] fails.  Each leaf queue is a {!Rp_pkt.Ring}
    bounded by its class limit. *)

open Rp_pkt
open Rp_core

val name : string
val gate : Gate.t
val description : string

val create_instance :
  instance_id:int -> code:int -> config:(string * string) list ->
  (Plugin.t, string) result

val message : string -> string -> (string, string) result

(** Hierarchy construction.  [parent] defaults to the root.  [rsc]
    (real-time) is only meaningful on leaves; [fsc] defaults to a
    linear curve of slope 1.

    [limit] must be positive, or the class is refused.

    [leaf] selects the intra-leaf queueing discipline — the paper's
    Hierarchical Scheduling Framework (section 6 future work): [`Fifo]
    (plain H-FSC, default) or [`Drr quantum], which runs deficit round
    robin across the flows sharing the leaf so they divide the class's
    service fairly.  A DRR leaf runs on the DRR qdisc's core
    ({!Drr_core}): each flow's queue is found by its key and is freed
    the moment it drains, so a leaf holds at most one queue per queued
    packet, and the class limit bounds both.

    [usc] is the upper-limit service curve: a hard cap on the class's
    service (H-FSC's third curve).  The cap applies to the
    link-sharing criterion; real-time guarantees are expected to stay
    below it (configure rsc <= usc).  Shaping is approximate between
    dequeue opportunities — the scheduler is only consulted when the
    link asks for a packet. *)
val add_class :
  instance_id:int -> cname:string -> ?parent:string ->
  ?rsc:Service_curve.t -> ?fsc:Service_curve.t -> ?usc:Service_curve.t ->
  ?limit:int -> ?leaf:[ `Fifo | `Drr of int ] -> unit ->
  (unit, string) result

(** [assign ~instance_id ~key ~cname] maps flow [key] to leaf class
    [cname]. *)
val assign :
  instance_id:int -> key:Flow_key.t -> cname:string -> (unit, string) result

val drop_count : instance_id:int -> int

(** The per-flow queues a [`Drr] leaf holds (at most its queued
    packets); [None] for a FIFO leaf or an unknown class. *)
val leaf_queues : instance_id:int -> cname:string -> int option
