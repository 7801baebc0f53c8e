(** Immutable classifier snapshot, published to worker domains.

    Workers never read the router's live AIU or routing table — the
    DAG filter tables and BMP tries build lookup structures lazily, so
    sharing them across domains would race.  Instead the control plane
    captures the {e contents} (filter bindings per gate and routes) into
    a plain immutable value, and each shard compiles its own private
    AIU and route table from it.  The router's other control state —
    enabled gates, fault policy and budget, and what a shard needs to
    recognise packets it must hand back — is already an immutable
    {!Rp_core.Domain_ctx.control} record, which the snapshot shares
    as is.

    Alongside the full state the snapshot carries an ordered {e delta
    log}: the tail of control-plane mutations, each stamped with the
    generation it produced.  A shard whose compiled state is only a
    few generations behind replays just the outstanding deltas on its
    private AIU — keeping its flow cache (minus selectively
    invalidated records) — and only falls back to a full recompile
    when the log no longer reaches back to its generation (more
    mutations between two publications than the log holds, or a
    snapshot captured with no log).

    Snapshots are published through one [Atomic.t] pointer;
    the monotonically increasing [gen] tells a shard whether its
    compiled state is current. *)

open Rp_core

(** One control-plane mutation.  [Refresh] carries no AIU change — it
    re-publishes the routes, the control record and the classifier
    mode (which shards re-read on every delta application anyway). *)
type delta =
  | Bind of int * Rp_classifier.Filter.t * Plugin.t
  | Unbind of int * Rp_classifier.Filter.t
  | Flush  (** whole-flow-cache flush (e.g. routing change) *)
  | Refresh

type t = {
  gen : int;
  bindings : (int * Rp_classifier.Filter.t * Plugin.t) list;
      (** (gate index, filter, bound instance) — quarantined instances
          are naturally absent (their filters are torn out of the AIU) *)
  routes : Route_table.route list;
  route_stamp : int;
      (** the router table's {!Rp_core.Route_table.stamp} when [routes]
          was read: a shard rebuilds its private table only when this
          differs from the one it built from, so its flow records keep
          their cached routes through filter churn *)
  control : Domain_ctx.control;  (** the router's control record *)
  classifier : Rp_classifier.Aiu.mode;
      (** cold-start resolution strategy the control AIU runs; shards
          apply it on every sync (delta replay or recompile) *)
  flow_max : int;
      (** the bound of the router's flow table ([max_int] when
          unbounded), which every shard's flow table takes too *)
  deltas : (int * delta) list;
      (** (generation, mutation), oldest first; generations are
          consecutive and the last one equals [gen].  Bounded — a shard
          further behind than the oldest entry must recompile. *)
}

(** [capture ~gen ?deltas router] reads the router's current control
    state.  Runs on the control domain; cost is proportional to the
    installed filters and routes, never charged to the packet cost
    model.  With no [deltas], every shard that syncs to it recompiles. *)
val capture : gen:int -> ?deltas:(int * delta) list -> Router.t -> t

(** [current t router] — do [t]'s routes, control record and classifier
    mode match the router's now?  (Pending AIU mutations are the
    engine's to track.) *)
val current : t -> Router.t -> bool

val pp : Format.formatter -> t -> unit
