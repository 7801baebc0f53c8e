(** Immutable classifier snapshot, published to worker domains.

    Workers never read the router's live AIU or routing table — the
    DAG filter tables and BMP tries build lookup structures lazily, so
    sharing them across domains would race.  Instead the control plane
    captures the {e contents} (filter bindings per gate, routes, the
    fault policy and budget, the enabled-gate set, and what a shard
    needs to recognise packets it must hand back) into a plain
    immutable value, and each shard compiles its own private AIU and
    route table from it.

    Alongside the full state the snapshot carries an ordered {e delta
    log}: the tail of control-plane mutations, each stamped with the
    generation it produced.  A shard whose compiled state is only a
    few generations behind replays just the outstanding deltas on its
    private AIU — keeping its flow cache (minus selectively
    invalidated records) — and only falls back to a full recompile
    when the log no longer reaches back to its generation (backlog
    overflow, or a publication that intentionally broke the chain).

    The engine publishes a snapshot through one [Atomic.t] pointer;
    the monotonically increasing [gen] tells a shard whether its
    compiled state is current. *)

open Rp_core

(** One control-plane mutation.  [Refresh] carries no AIU change — it
    re-publishes routes/gates/policy/budget (which shards re-read on
    every delta application anyway). *)
type delta =
  | Bind of int * Rp_classifier.Filter.t * Plugin.t
  | Unbind of int * Rp_classifier.Filter.t
  | Flush  (** whole-flow-cache flush (e.g. routing change) *)
  | Refresh

type t = {
  gen : int;
  gates : Gate.t list;  (** enabled gates, data-path order *)
  bindings : (int * Rp_classifier.Filter.t * Plugin.t) list;
      (** (gate index, filter, bound instance) — quarantined instances
          are naturally absent (their filters are torn out of the AIU) *)
  routes : Route_table.route list;
  policy : Fault.policy;
  budget : int option;
  punts : int list;  (** protocols with a punt handler *)
  locals : Rp_pkt.Ipaddr.t list;  (** the router's own addresses *)
  mtus : int array;  (** per interface, for the fragment decision *)
  classifier : Rp_classifier.Aiu.mode;
      (** cold-start resolution strategy the control AIU runs; shards
          apply it on every sync (delta replay or recompile) *)
  deltas : (int * delta) list;
      (** (generation, mutation), oldest first; generations are
          consecutive and the last one equals [gen].  Bounded by the
          engine's backlog limit — a shard further behind than the
          oldest entry must recompile. *)
}

(** [capture ~gen ?deltas router] reads the router's current control
    state.  Runs on the control domain; cost is proportional to the
    installed filters and routes, never charged to the packet cost
    model. *)
val capture : gen:int -> ?deltas:(int * delta) list -> Router.t -> t

val pp : Format.formatter -> t -> unit
