(** The network model: routers as simulation nodes, links between
    interfaces, packet injection, and per-node accounting.

    Each router runs behind its own {!Rp_engine.Engine}, inline or
    sharded: a packet arriving at a node is submitted to the engine,
    and the engine is the only way the simulator reaches the data path.
    Per-node figures come from the router's interfaces and the
    process-wide [ip_core.*] and [drops.by_reason.*] counters; a node
    keeps only the packets it received and the cycles it charged.

    Transmission follows the usual store-and-forward model: a linked
    interface is the engine's transmitter for that interface
    ({!Rp_engine.Engine.set_transmitter}).  When it has backlog and the
    link is idle, the next packet is dequeued (through the interface's
    qdisc), occupies the link for [len * 8 / bandwidth], then arrives
    at the peer after the propagation delay.  An interface without a
    link discards what is queued on it.  All control-domain cycle
    charges (the IP core's and the schedulers') are attributed to the
    processing node.

    An inline node finishes each packet as it arrives.  A sharded node
    finishes the packets arriving at one simulated instant together,
    after the last of them (or every 256 packets): it waits for the
    workers, then drains their results in shard order, so a run is
    deterministic for a given seed.  Its worker domains run until
    [Engine.stop (engine node)]. *)

open Rp_pkt
open Rp_core

type node

type endpoint =
  | To_node of node * int  (** peer node, ingress interface id *)
  | To_sink of Sink.t

(** [add_router ?engine sim router] — a node driving [router] through
    an engine of mode [engine] (default [Inline]). *)
val add_router : ?engine:Rp_engine.Engine.mode -> Sim.t -> Router.t -> node

val router : node -> Router.t
val engine : node -> Rp_engine.Engine.t

(** Packets delivered to the node's data path. *)
val received : node -> int

(** [connect node ~iface endpoint ~prop_ns] attaches the link leaving
    [iface].  Bandwidth comes from the interface. *)
val connect : node -> iface:int -> endpoint -> prop_ns:int64 -> unit

(** [inject node m ~at] delivers [m] to the node's data path at [at];
    [m.key.iface] names the receiving interface.  Each router's engine
    stamps [birth_ns] with the packet's arrival, so a sink's latency
    runs from the last router's ingress. *)
val inject : node -> Mbuf.t -> at:int64 -> unit

(** Mean data-path cycles per received packet: the control domain's
    charges for this node (the IP core's and the schedulers'), plus,
    on a sharded engine, every cycle its shards charged. *)
val cycles_per_packet : node -> float
