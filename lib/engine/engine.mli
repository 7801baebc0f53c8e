(** The packet engine: single-domain inline execution or RSS-style
    sharding across OCaml 5 worker domains.

    Both modes run the one data path, {!Rp_core.Ip_core.run}, in
    batches of up to 32.  [Inline] runs it on the router's own context,
    synchronously in {!submit}.  [Sharded n] spawns [n] worker domains:
    the control (main) domain distributes packets to per-shard SPSC RX
    rings by [Flow_key.hash mod n], so every packet of a flow lands on
    the same shard and per-flow soft state stays domain-private, and
    each worker runs the path on its shard's context against a
    read-only classifier {!Snapshot} published through one atomic
    pointer with a generation counter.

    Publication is automatic: a sharded engine's {!submit} and
    {!submit_batch}, and {!synced} and {!snapshot} on either engine,
    first publish whatever the router changed since the last
    publication — AIU mutations (bind/unbind, quarantine/restore), the
    route table, the router's control record (gates, fault policy and
    budget, punts, local addresses), the classifier mode — and a worker
    syncs after it pops a batch, so a packet submitted after a control
    call returned always runs with that change.  The engine records
    every AIU mutation as a {!Snapshot.delta}, so a shard observing a
    new generation normally {e replays} just the outstanding deltas on
    its private classifier — evicting only the flows the changed
    filters could match — and recompiles from scratch (flushing its
    flow cache) only when more than 64 mutations piled up between two
    publications, or it fell further behind than the 64-entry delta
    log reaches.  The hot path takes no locks.

    Results return on bounded TX rings (one per shard; [Inline] has
    one too), whose slots hold preallocated result records written in
    place, with the shard's fault events and whatever router-owned
    stage it handed back; {!drain} finishes those on the control domain
    — PCU fault attribution, punts and local delivery, ICMP errors, the
    output queue.  After each packet the engine serves every interface
    the data path queued onto (its egress, and any ICMP error or echo
    reply the router originated) through that interface's transmitter
    ({!set_transmitter}).  A frame's results are published on its ring
    with one store, and a {!drain} call takes each ring's results with
    one.  On the inline engine nothing between {!submit_batch} and the
    end of {!drain} allocates for a cached flow queued on the default
    FIFO: the handler context, the output queue's slot and the result
    record are all reused.

    Full rings drop rather than block ({!submit} returns [false] and
    the engine counts a backpressure drop), like a NIC RX ring. *)

open Rp_pkt
open Rp_core

type mode =
  | Inline
  | Sharded of int  (** number of worker domains (>= 1) *)

val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string

type t

(** [create mode router] — for [Sharded n] this captures the first
    snapshot, registers the engine's metrics and spawns the worker
    domains.  [rx_capacity] / [tx_capacity] size the per-shard rings,
    [tx_capacity] the inline result ring too (rounded up to powers of
    two; defaults 1024 / 2048).
    @raise Invalid_argument on [Sharded n] with [n < 1]. *)
val create : ?rx_capacity:int -> ?tx_capacity:int -> mode -> Router.t -> t

val mode : t -> mode
val router : t -> Router.t

(** Number of shards (1 for [Inline]). *)
val shards : t -> int

(** The shard [key] hashes to. *)
val shard_of_key : t -> Flow_key.t -> int

(** [set_rss t f] replaces the shard-selection hash (default
    {!Rp_pkt.Flow_key.hash}).  The session layer installs
    {!Rp_pkt.Flow_key.canonical_hash} so both directions of a
    conversation RSS to the same shard.  Only call while no traffic is
    in flight: one flow hashed by two functions would split its cached
    state across shards. *)
val set_rss : t -> (Flow_key.t -> int) -> unit

(** The current shard-selection hash applied to [key]. *)
val rss : t -> Flow_key.t -> int

(** [set_transmitter t ~iface f] — [f ~now] serves interface [iface]
    after a packet queued onto it: it takes what the output queue gives
    up ({!Rp_core.Iface.pull}) and puts it on a link.  The default,
    for an interface without a link, discards what was queued
    ({!Rp_core.Iface.drop_queued}).  The simulator installs its link
    model here ([Rp_sim.Net.connect]). *)
val set_transmitter : t -> iface:int -> (now:int64 -> unit) -> unit

(** Flow keys cached by shard [i] (test introspection). *)
val shard_flow_keys : t -> int -> Flow_key.t list

(** [submit t ~now m] hands one packet to the engine.  [Inline]: runs
    the packet synchronously and queues its result for {!drain}.
    [Sharded]: publishes any control change, counts the packet on its
    receiving interface and pushes it to the owning shard's RX ring.
    [false] means the
    ring (the result ring, inline) was full and the packet was dropped
    (counted as backpressure). *)
val submit : t -> now:int64 -> Mbuf.t -> bool

(** [submit_batch t ~now batch ~n] hands [batch.(0 .. n-1)] to the
    engine at once, returning how many were accepted.  [Inline]: one
    gate-major sweep over the first packets that fit the result ring.
    [Sharded]: per-packet RX-ring pushes (packets of one batch hash to
    different shards), with [engine.submitted] and the receiving
    interfaces' [iface.rx_*] totals added once per call.  Rejected
    packets are counted as backpressure drops, exactly as {!submit}. *)
val submit_batch : t -> now:int64 -> Mbuf.t array -> n:int -> int

(** [drain t ~f] pulls completed results from every ring, applies
    contained-fault events to the PCU/router (auto-quarantine, the
    [Unbind] policy — published before the next packet like any other
    change), finishes handed-back stages, and calls [f] on each settled
    result, at most [max] of them, each ring's in the order its packets
    were submitted.  A result is valid only during [f]: its record is
    the result ring's slot, written in place for the next packet, and
    its [m] reads {!Rp_pkt.Mbuf.dummy} once [f] returns, so a caller
    that keeps anything copies the fields it needs.  Each ring's head
    advances once per call.  If [f]
    raises, the results it was already handed (the raising one
    included) are consumed and the rest stay queued, in order, for the
    next call.  Returns the number of results drained, which is added
    to [engine.drained] once per call (also when [f] raises).  Control
    domain only. *)
val drain : ?max:int -> t -> f:(Shard.result -> unit) -> int

(** Current snapshot generation. *)
val generation : t -> int

(** The current snapshot, publishing any pending change first
    (bench/test introspection — e.g. driving {!Shard.sync}
    synchronously without worker domains). *)
val snapshot : t -> Snapshot.t

(** Have all shards compiled the current generation?  Publishes any
    pending change first. *)
val synced : t -> bool

(** True when no packets are in flight (all RX rings empty and every
    worker idle); results may still await {!drain}. *)
val idle : t -> bool

(** [flush t ~f] waits for in-flight packets to complete, draining
    results to [f] as it spins.  Returns the number drained. *)
val flush : t -> f:(Shard.result -> unit) -> int

(** Model cycles charged by shard [i] since creation. *)
val shard_cycles : t -> int -> int

(** Human-readable stats block (the [pmgr engine stats] payload): one
    row per shard with the packets its worker popped ([rx]), so shard
    balance stays visible; verdict totals are the process-wide
    [ip_core.*] counters. *)
val stats_string : t -> string

(** Flush every flow cache the engine owns (the router's table plus
    each shard's private one), exporting the records to the
    {!Rp_core.Flow_export} ring.  Shard flow tables are domain-private:
    only call this while the workers are idle ({!flush} returned with
    no backlog) or after {!stop}. *)
val flush_flows : t -> unit

(** Expire idle records from every flow cache the engine owns (router
    table plus each shard's), exporting them with reason ["expired"];
    returns the total evicted.  Same idle-only contract as
    {!flush_flows} — the long-haul soaks call this during drained
    pauses to keep continuous arrival/expiry churn going. *)
val expire_flows : t -> now:int64 -> idle_ns:int64 -> int

(** Live flow records cached by shard [i] (inline: the router table).
    Idle-only, like {!flush_flows}. *)
val shard_flow_count : t -> int -> int

(** Flow-table stats of shard [i] (inline: the router table) — the
    soak reads [chain_max] from here to bound probe lengths.
    Idle-only, like {!flush_flows}. *)
val shard_flow_stats : t -> int -> Rp_classifier.Flow_table.stats

(** Stop the workers (joining their domains) and deregister the
    engine.  Idempotent.  Packets still in RX rings are dispatched
    before workers exit; call {!drain} afterwards to collect them. *)
val stop : t -> unit

(** {2 Engine registry}

    The control plane ([pmgr]) finds the engine attached to the router
    it operates on, for [engine stats] and [top]. *)

val find : Router.t -> t option
