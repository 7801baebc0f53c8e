(** One worker shard: a domain-private data-path context.

    A shard owns everything its packets touch on its domain — a
    private AIU (compiled from the published {!Snapshot}), a private
    route table and a private flow cache — so two shards never share
    mutable per-flow state.  Its packets count in the same
    process-wide [gate.*] and [ip_core.*] meters as the router's own;
    only its sync counters ([flow_flushes], [delta_applies],
    [deltas_replayed]) carry the [engine.shard<i>.] prefix.  RSS-style distribution by
    [Flow_key.hash mod shards] guarantees every packet of a flow lands
    on the same shard, keeping per-flow soft state coherent without
    locks.

    The shard has no data path of its own: its worker runs the
    router's pipeline, {!Rp_core.Ip_core.run}, on the shard's context.
    That context has no router, so the stages touching the router's
    mutable state (punts, local delivery and echo, ICMP origination,
    output queues, PCU fault accounting) come back on the result ring
    as the packet's {!result.handoff}, for the engine's drain to finish
    on the control domain. *)

open Rp_pkt
open Rp_core

(** The packet's outcome at the engine boundary.  Local delivery is
    [Absorbed]. *)
type outcome =
  | Forwarded of int  (** queued on interface [i] *)
  | Absorbed  (** a plugin or the router itself consumed the packet *)
  | Dropped of string

(** One packet's result, as a result ring slot holds it: the ring owns
    one record per slot and rewrites it in place for each packet, so a
    result is valid only while the call that handed it over runs.  The
    fields are mutable for the engine; callers read them. *)
type result = {
  mutable m : Mbuf.t;
  mutable outcome : outcome;
      (** provisional until [handoff] is [Settled] *)
  mutable faults : Fault.event list;
      (** the shard's fault events since its previous result, oldest
          first, for the PCU; empty in the common case *)
  mutable handoff : Ip_core.handoff;
}

type t

val create : index:int -> Snapshot.t -> t

(** The shard's data-path context (shard domain only). *)
val ctx : t -> Ip_core.ctx

(** Allocates nothing for a verdict on one of the first 256
    interfaces: their [Forwarded i] values are built once. *)
val outcome_of : Ip_core.verdict -> outcome

(** A result slot holding no packet ({!Rp_pkt.Mbuf.dummy}). *)
val blank : unit -> result

(** [fill r ctx m verdict handoff] writes one packet of an
    {!Ip_core.run} on [ctx] into the result slot [r], moving the fault
    events [ctx] queued since the previous result onto it.  [r] must
    hold no faults and a [Settled] hand-off, as {!blank} and a
    finished result do.  Allocates nothing unless there are such
    events. *)
val fill :
  result -> Ip_core.ctx -> Mbuf.t -> Ip_core.verdict -> Ip_core.handoff -> unit

(** Snapshot generation this shard last compiled. *)
val seen_gen : t -> int

(** [sync t snap] brings the shard's private state up to [snap]'s
    generation.  When the snapshot's delta log covers every generation
    the shard missed, the mutations are replayed incrementally on the
    private AIU (selective flow invalidation only — unrelated flows
    keep their cache entries); otherwise the AIU is recompiled from
    scratch, which also flushes the shard's flow cache.  Either way
    the private route table is rebuilt only when the snapshot's
    [route_stamp] differs from the one it was built from.  Runs on the
    shard's own domain. *)
val sync : t -> Snapshot.t -> unit

(** Model cycles charged by this shard's batches so far (readable
    from any domain). *)
val cycles : t -> int

(** [add_cycles t n] accumulates into {!cycles} (worker side). *)
val add_cycles : t -> int -> unit
