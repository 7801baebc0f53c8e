(** The IPv4/IPv6 core — the "small part of the network subsystem code
    that remains relatively stable" (paper, section 2): header/TTL
    handling, demultiplexing packets to plugin instances through the
    gates, route lookup, and handoff to the output queue.

    The path (paper, Figure 3): receive → IPv6 option gate →
    security-in gate → firewall gate → local punt check → routing
    (gate, else table) → congestion gate → security-out gate → stats
    gate → scheduling gate → fragment/DF decision → enqueue.

    Each gate is a classification point: the first gate of a packet
    pays the flow-table hash (or, for the first packet of a flow, the
    full filter-table lookups for {e all} gates); subsequent gates
    dereference the FIX cached in the mbuf.  Cycle costs are charged to
    {!Cost} as described there.

    There is one implementation of the path: a gate-major batch
    pipeline run on a per-domain context ({!Domain_ctx}).  On the
    router's own context ([Router.ctx]) every stage runs at once; that
    is the inline engine, and {!process} is a batch of one.  An engine
    shard runs it on its private context and hands the stages that
    touch the router's mutable state (punts, local delivery and echo,
    ICMP origination, output queues, PCU fault accounting) back to the
    control domain, which finishes them with {!resume} and
    {!icmp_error}.

    Every context writes the same process-wide meters: the
    [gate.<name>.*] counters ({!Gate.dispatch} and its siblings) and
    the verdict counters [ip_core.packets] / [.forwarded] /
    [.delivered_local] / [.absorbed] / [.dropped].  A packet counts
    once in [packets] where it enters and once under its verdict where
    it settles, so inline and sharded runs give the same names and the
    same totals.

    Metering is per frame (up to {!Domain_ctx.batch} packets on one
    domain).  A frame looks up its domain's {!Cost.meter} and
    [Rp_lpm.Access.meter] cells once and charges and reads them
    directly.  The counters above, and the per-packet counters of the
    context's AIU, flow table and route table and of the receiving
    interfaces, are added once per frame (see [Aiu.hold] and
    {!Route_table.hold}), and so are the SLO latency histograms (the
    context's {!Rp_obs.Slo.pending}), so each is exact whenever no
    frame is in flight.  A verdict allocates nothing: [Enqueued i] for
    the first 256 interfaces is built once. *)

open Rp_pkt

type verdict =
  | Enqueued of int  (** queued on output interface *)
  | Delivered_local  (** consumed by a punt handler / local address *)
  | Absorbed  (** a plugin consumed the packet (e.g. reassembly) *)
  | Dropped of string

val pp_verdict : Format.formatter -> verdict -> unit

(** The router-owned remainder of a packet's path (always [Settled] on
    the router's own context). *)
type handoff =
  | Settled
  | Icmp_error of Icmp.message  (** dropped; its ICMP error is owed *)
  | Local  (** for a punt handler or a local address *)
  | Egress of int * Plugin.t Rp_classifier.Flow_table.binding option
      (** for this interface's queue, with the scheduling binding *)

(** A data-path context; see {!Domain_ctx}. *)
type ctx = Router.t Domain_ctx.t

(** [process router ~now m] runs one packet through the router's data
    path, returning what happened to it.  [m.key.iface] must identify
    the receiving interface. *)
val process : Router.t -> now:int64 -> Mbuf.t -> verdict

(** [process_batch router ~now batch ~n] runs [batch.(0 .. n-1)]
    through the router's data path in one gate-major sweep: each stage
    walks the whole batch before the next begins, so the gate-enabled
    checks and counter updates are amortised across the batch.
    Per-packet verdicts, cost-model charges and metric totals are
    identical to calling {!process} on each packet in batch order —
    only the interleaving of gate invocations differs.  (SLO latency
    {e distributions} are the one observable consequence: a batched
    packet's ingress→verdict span genuinely includes its batchmates'
    gate-major processing.)  [emit] is called once per packet, in
    input order, with the packet's verdict. *)
val process_batch :
  Router.t ->
  ?emit:(Mbuf.t -> verdict -> unit) ->
  now:int64 ->
  Mbuf.t array ->
  n:int ->
  unit

(** [run ctx ~now batch ~n ~emit] — {!process_batch} on any context;
    [emit] also gets the {!handoff}, and a handed-back packet's verdict
    is provisional.  A shard's context clocks packets by [birth_ns]. *)
val run :
  ctx ->
  now:int64 ->
  Mbuf.t array ->
  n:int ->
  emit:(Mbuf.t -> verdict -> handoff -> unit) ->
  unit

(** [resume router ~now m h] finishes a handed-back [Local] or
    [Egress] packet on the router's context, counting its verdict. *)
val resume : Router.t -> now:int64 -> Mbuf.t -> handoff -> verdict

(** [icmp_error router ~now orig message] originates an ICMP error
    about [orig] toward its source through the router's own path. *)
val icmp_error : Router.t -> now:int64 -> Mbuf.t -> Icmp.message -> unit

(** Apply one fault event to the router's PCU (auto-quarantine, the
    [Unbind] policy).  A quarantine's unbinds are ordinary AIU
    mutations, published to an engine's shards before its next
    packet. *)
val apply_event : Router.t -> Fault.event -> unit

(** [classify aiu ~now ~gate m] — the one classify-and-charge path,
    here on the calling domain's meters (a frame charges its own, looked
    up once): {!Cost.flow_hash} on the packet's first AIU consult, the
    measured memory accesses, {!Cost.gate_invoke}.  Returns the flow's
    record; the instance bound at [gate] is its
    [Flow_table.binding]. *)
val classify :
  Plugin.t Rp_classifier.Aiu.t ->
  now:int64 ->
  gate:Gate.t ->
  Mbuf.t ->
  Plugin.t Rp_classifier.Flow_table.record

(** [invoke_gate router ~now ~gate m] — classification + indirect call
    for one gate, exposed for tests and micro-benchmarks.  Returns the
    handler's action ([Continue] when no instance is bound). *)
val invoke_gate : Router.t -> now:int64 -> gate:Gate.t -> Mbuf.t -> Plugin.action

(** The handler gates before (ip-options, security-in, firewall) and
    after (congestion, security-out, stats) the routing decision, in
    the order of Figure 3. *)

val inline_gates_pre : Gate.t list
val inline_gates_post : Gate.t list
