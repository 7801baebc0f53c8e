(** Bidirectional session table — the unified NAT / connection-tracking
    / QoS / next-hop state layered on the flow table.

    A session pairs the forward and reverse five-tuples of one
    conversation.  Both directions are indexed by their
    direction-normalized ({!Rp_pkt.Flow_key.canonical}) ingress tuples
    — for a NAT'd session the reply tuple differs from the forward
    one, so the session carries two index keys.  The record holds
    everything the per-packet path needs: the SNAT/DNAT rewrite, the
    conntrack state machine, the QoS class and the cached per-direction
    next-hop, so the steady-state data path does one session hit (via a
    pointer cached in the flow record's soft slot) and zero further
    lookups.

    Sharding: the two directions of a NAT'd session canonicalize to
    {e different} keys and can therefore RSS to different shards, so
    tables are shared across domains — stripe mutexes guard the index
    structure, per-session mutable state is atomics.  Canonical-key RSS
    ({!shard_key}, installed via [Engine.set_rss]) additionally pins
    both directions of every un-NAT'd conversation to one shard. *)

open Rp_pkt

type tcp_state = Tcp_syn | Tcp_est | Tcp_fin | Tcp_closed
type state = Tcp of tcp_state | Udp | Other

type t = private {
  id : int;  (** unique, process-wide *)
  proto : int;
  iface : int;  (** forward-direction ingress interface *)
  (* Pre-rewrite forward tuple. *)
  orig_src : Ipaddr.t;
  orig_sport : int;
  orig_dst : Ipaddr.t;
  orig_dport : int;
  (* Post-rewrite forward tuple (equal to orig when not NAT'd). *)
  xlat_src : Ipaddr.t;
  xlat_sport : int;
  xlat_dst : Ipaddr.t;
  xlat_dport : int;
  nat : bool;
  exported_xlate : Rp_core.Flow_export.xlate option;
      (** the post-rewrite tuple a flow export carries: [Some] exactly
          when [nat], built with the session *)
  qos : int option;  (** TOS/class stamped on every packet *)
  fwd_lookup : Flow_key.t;  (** canonical of the forward ingress tuple *)
  fwd_dir : Flow_key.direction;
  rev_lookup : Flow_key.t;  (** canonical of the reply ingress tuple *)
  rev_dir : Flow_key.direction;
  created_ns : int64;
  (* Per-session atomics: the two directions may be updated from two
     different shard domains concurrently. *)
  state_a : int Atomic.t;
  fwd_pkts : int Atomic.t;
  fwd_bytes : int Atomic.t;
  rev_pkts : int Atomic.t;
  rev_bytes : int Atomic.t;
  drops : int Atomic.t;
  last_ns : int64 Atomic.t;
  fwd_route : (int * Ipaddr.t option) option Atomic.t;
  rev_route : (int * Ipaddr.t option) option Atomic.t;
  alive_a : bool Atomic.t;
}

val alive : t -> bool
val state : t -> state
val state_name : t -> string

(** Cached next-hop for one direction: [(out_iface, next_hop)]. *)
val route : t -> Flow_key.direction -> (int * Ipaddr.t option) option

(** Record the routing decision for one direction (first writer wins). *)
val learn_route : t -> Flow_key.direction -> int * Ipaddr.t option -> unit

(** Account one packet on one direction and refresh the idle clock. *)
val touch : t -> now:int64 -> dir:Flow_key.direction -> len:int -> unit

(** Advance the conntrack state machine for one packet.  TCP: SYN/EST/
    FIN/RST transitions, with packets on a closed session (other than a
    reopening SYN or a RST) dropped; UDP and other protocols always
    pass (they expire by idle timeout). *)
val conntrack_step :
  t -> dir:Flow_key.direction -> tcp_flags:int -> [ `Pass | `Drop of string ]

(** Apply the session's rewrite to [m] for the given direction,
    in place: the parsed key, and — when wire bytes are present — the
    IPv4 addresses/ports with RFC 1624 incremental fixup of the IP and
    TCP/UDP checksums ({!Rp_pkt.Checksum.adjust}); IPv6 rewrites the
    addresses and adjusts the L4 checksum.  Returns [true] when the
    packet was actually translated ([false] for un-NAT'd sessions). *)
val apply_rewrite : t -> Flow_key.direction -> Mbuf.t -> bool

(** [route_learnable s dir k] — whether a routing decision made for
    key [k] may be cached as [dir]'s next-hop: true exactly when [k]
    is the direction's post-rewrite tuple.  False means the NAT
    rewrite was bypassed (plugin quarantined or unbound), and caching
    the decision would poison the session's route for when the
    rewrite comes back. *)
val route_learnable : t -> Flow_key.direction -> Flow_key.t -> bool

(** The session pointer plugins cache in their flow-record soft slot:
    steady state dereferences this instead of touching the table. *)
type Rp_classifier.Flow_table.soft += Cached of t * Flow_key.direction

(** Canonical-key RSS ({!Rp_pkt.Flow_key.canonical_hash}) — install
    with [Engine.set_rss] to pin both directions of un-NAT'd
    conversations to one shard. *)
val shard_key : Flow_key.t -> int

(** Post-rewrite tuple of the NAT'd session (if any) referenced by a
    flow record's soft slots — the [Flow_export] translated-tuple
    extractor.  Installed into [Flow_export.set_translated_of] when
    this library is linked.  Allocates nothing. *)
val xlate_of_record :
  Rp_core.Plugin.t Rp_classifier.Flow_table.record ->
  Rp_core.Flow_export.xlate option

module Table : sig
  type session = t
  type t

  type timeout_class = [ `Tcp_syn | `Tcp_est | `Tcp_fin | `Udp | `Other ]

  type nat_rule = {
    kind : [ `Snat | `Dnat ];
    filter : Rp_classifier.Filter.t;
    addr : Ipaddr.t;
    port : int option;
    tos : int option;
  }

  type stats = {
    live : int;
    created : int;
    expired : int;
    lookups : int;
    hits : int;
    misses : int;
    cached_hits : int;
    rewrites : int;
    ct_drops : int;
    key_conflicts : int;
  }

  (** [get name] — the process-wide table registry (create on first
      use).  Plugin instances and [pmgr] address tables by name;
      the default is ["default"]. *)
  val get : string -> t

  val names : unit -> string list
  val name : t -> string

  (** A fresh unregistered table (tests). *)
  val create : ?stripes:int -> string -> t

  (** [resolve t key ~now ~tcp_flags] — the session-table hit: find
      the session either ingress tuple (pre- or post-rewrite)
      canonicalizes to, together with the packet's direction, creating
      it (NAT rules and QoS applied) when [create] (default [true]) and
      no session exists.  Charges the memory-access meter for the
      lookup (and insert). *)
  val resolve :
    t -> ?create:bool -> Flow_key.t -> now:int64 -> tcp_flags:int ->
    (session * Flow_key.direction) option

  (** Count one steady-state soft-pointer hit; [charge] additionally
      charges its single memory access (exactly one plugin on the
      packet's path charges — the record is cache-hot for the rest). *)
  val cached_hit : t -> charge:bool -> unit

  val note_rewrite : t -> unit
  val note_ct_drop : t -> unit

  (** NAT rules, consulted at session creation (first match of each
      kind wins; insertion order). *)
  val add_rule : t -> nat_rule -> unit

  (** Remove rule by index into {!rules}; [Error] when out of range. *)
  val del_rule : t -> int -> (unit, string) result

  val rules : t -> nat_rule list

  val set_timeout : t -> timeout_class -> int64 -> unit
  val timeout : t -> timeout_class -> int64

  (** Evict every session idle past its state's timeout, emitting one
      export record each ({!Rp_obs.Flowlog}).  Returns the count.
      Control path (any domain; stripe locks taken). *)
  val expire : t -> now:int64 -> int

  (** Evict everything (reason ["session-flushed"]). *)
  val flush : t -> int

  (** Live sessions, each exactly once. *)
  val iter : (session -> unit) -> t -> unit

  val length : t -> int
  val stats : t -> stats
end

(** [cached_resolve table ~cache ~charge ctx m] — the per-packet entry
    point shared by the session plugins.  With [cache] on and a flow
    binding present, steady state dereferences the {!Cached} pointer
    in the binding's soft slot ([charge] selects whether its single
    memory access is charged); otherwise (or on a cold/invalidated
    slot) it falls back to {!Table.resolve} and repopulates the
    cache.  [cache:false] is the naive per-feature-lookup mode the
    benchmarks contrast against. *)
val cached_resolve :
  Table.t -> ?create:bool -> cache:bool -> charge:bool ->
  Rp_core.Plugin.ctx -> Mbuf.t -> (t * Flow_key.direction) option
