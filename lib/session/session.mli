(** Bidirectional session table — the unified NAT / connection-tracking
    / QoS state layered on the flow table.

    A session pairs the forward and reverse five-tuples of one
    conversation.  It is one row of immediates in flat int storage —
    the forward and translated tuples, protocol, interface, QoS class,
    conntrack state, per-direction packet/byte/drop counters and
    last-touch times, and created time — so the steady-state data path
    does one session hit (through a handle cached in the flow record's
    soft slot) and zero further lookups, and allocates nothing doing
    it.  A session caches no route: its packets ride the route cached
    in their flow records.

    Both directions are found through one open-addressed index: the
    forward tuple and, for a NAT'd session, the translated tuple each
    have an entry pointing at the session's slot, and a tuple resolves
    whichever way round it is seen.  The table is bounded: it grows by
    doubling from 1024 rows up to its capacity and then refuses new
    sessions (counted; the plugins drop the packet as
    ["session table full"]).  Expiry runs on the timer wheel the flow
    table shares ({!Rp_classifier.Wheel}) and visits only the sessions
    whose deadline passed; every slot is on a wheel bucket or on a list
    of freed slots, so rescheduling leaves no stale entry behind.

    Sharding: the two directions of a NAT'd session can RSS to
    different shards, so tables are shared across domains.  One mutex
    guards the index; each direction's counters have a single writer
    (the domain that processes that direction's ingress tuple).
    Canonical-key RSS ({!shard_key}, installed via [Engine.set_rss])
    additionally pins both directions of every un-NAT'd conversation
    to one shard. *)

open Rp_pkt

type tcp_state = Tcp_syn | Tcp_est | Tcp_fin | Tcp_closed
type state = Tcp of tcp_state | Udp | Other

(** A handle on one session: its table slot and the slot's generation
    when it was resolved.  The accessors read the live row. *)
type t

val equal : t -> t -> bool

(** Unique, process-wide. *)
val id : t -> int

val proto : t -> int

(** The forward direction's ingress interface. *)
val iface : t -> int

(** Pre-rewrite forward tuple. *)

val orig_src : t -> Ipaddr.t
val orig_sport : t -> int
val orig_dst : t -> Ipaddr.t
val orig_dport : t -> int

(** Post-rewrite forward tuple (equal to the original when not
    NAT'd). *)

val xlat_src : t -> Ipaddr.t
val xlat_sport : t -> int
val xlat_dst : t -> Ipaddr.t
val xlat_dport : t -> int
val nat : t -> bool

(** Index entries pointing at the session: 2 when its translated
    tuple has one of its own, else 1 (un-NAT'd, or the reply tuple was
    already another session's: a key conflict). *)
val index_keys : t -> int

(** TOS/class stamped on every packet. *)
val qos : t -> int option

val state : t -> state
val state_name : t -> string

(** Per-direction accounting. *)

val packets : t -> Flow_key.direction -> int
val bytes : t -> Flow_key.direction -> int
val drops : t -> Flow_key.direction -> int
val created_ns : t -> int64

(** The later of the two directions' last-touch times. *)
val last_ns : t -> int64

(** Account one packet on one direction and refresh its idle clock. *)
val touch : t -> now:int64 -> dir:Flow_key.direction -> len:int -> unit

(** Advance the conntrack state machine for one packet.  TCP: SYN/EST/
    FIN/RST transitions, with packets on a closed session (other than a
    reopening SYN or a RST) dropped; UDP and other protocols always
    pass (they expire by idle timeout). *)
val conntrack_step :
  t -> dir:Flow_key.direction -> tcp_flags:int -> [ `Pass | `Drop of string ]

(** Apply the session's rewrite to [m] for the given direction, in
    place: the parsed key, and — when wire bytes are present — the
    addresses and TCP/UDP ports, with one RFC 1624 incremental fixup
    of the IPv4 header checksum and of the L4 checksum.  The L4 header
    is found from the wire (IHL, or past an IPv6 hop-by-hop header).
    The packet's new key is the one the direction's view keeps,
    shared with the direction's other packets ({!Flow_key.t} is
    immutable).  Returns [true] when the packet was actually
    translated ([false] for un-NAT'd sessions). *)
val apply_rewrite : t -> Flow_key.direction -> Mbuf.t -> bool

(** The view of [s] in direction [dir] that {!cached_resolve} stores
    in flow bindings' soft slots. *)
val cached : t -> Flow_key.direction -> Rp_classifier.Flow_table.soft

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
    capacity : int;
    created : int;
    expired : int;
    lookups : int;
    hits : int;
    misses : int;
    cached_hits : int;
    rewrites : int;
    ct_drops : int;
    key_conflicts : int;
    refused : int;  (** creations refused at capacity *)
    visited : int;
        (** sessions expiry passes have looked at: live ones only, each
            once per pass whose elapsed ticks held its deadline *)
  }

  (** [get name] — the process-wide table registry (create on first
      use).  Plugin instances and [pmgr] address tables by name;
      the default is ["default"].  Storage is allocated by the first
      session. *)
  val get : string -> t

  val names : unit -> string list
  val name : t -> string

  (** A fresh unregistered table (tests), holding at most [capacity]
      sessions (rounded up to a power of two; default 2{^18}). *)
  val create : ?capacity:int -> string -> t

  (** [resolve t key ~now ~tcp_flags] — the session-table hit: find
      the session either ingress tuple (pre- or post-rewrite)
      resolves to, together with the packet's direction, creating it
      (NAT rules and QoS applied) when [create] (default [true]) and
      no session exists.  [None] also when the table is full.  Charges
      the memory-access meter for the lookup (and insert). *)
  val resolve :
    t -> ?create:bool -> Flow_key.t -> now:int64 -> tcp_flags:int ->
    (session * Flow_key.direction) option

  (** Count one steady-state soft-slot hit; [charge] additionally
      charges its single memory access (exactly one plugin on the
      packet's path charges — the row is cache-hot for the rest). *)
  val cached_hit : t -> charge:bool -> unit

  val note_rewrite : t -> unit
  val note_ct_drop : t -> unit

  (** NAT rules, consulted at session creation (first match of each
      kind wins; insertion order). *)
  val add_rule : t -> nat_rule -> unit

  (** Remove rule by index into {!rules}; [Error] when out of range. *)
  val del_rule : t -> int -> (unit, string) result

  val rules : t -> nat_rule list

  (** A new timeout reschedules every live session once. *)
  val set_timeout : t -> timeout_class -> int64 -> unit

  val timeout : t -> timeout_class -> int64

  (** Evict every session idle past its state's timeout, emitting one
      export record each ({!Rp_core.Flow_export}).  Returns the count.
      Visits only the sessions whose wheel deadline passed (counted in
      [visited]); each is re-checked against its current state and
      last touch, and exported or rescheduled.  Control path (any
      domain), run between frames: the slots a pass frees are reused
      only after the next pass. *)
  val expire : t -> now:int64 -> int

  (** Evict everything (reason ["session-flushed"]). *)
  val flush : t -> int

  (** Live sessions, each exactly once. *)
  val iter : (session -> unit) -> t -> unit

  val length : t -> int
  val stats : t -> stats
end

(** {2 Data path}

    The plugins' per-packet operations, on the session view a flow
    binding's soft slot caches: one per session and direction, built
    with the session and shared by every binding that caches it.  None
    allocates, except a view's first rewrite for a protocol and
    interface: it builds the post-rewrite key the view then keeps and
    hands every later packet it rewrites (the forward view starts with
    the creating packet's). *)
module Hit : sig
  type t = Rp_classifier.Flow_table.soft

  (** No session for the packet (and none created). *)
  val none : t

  (** The table is full: the packet's session could not be created. *)
  val full : t

  (** {!apply_rewrite} in the view's direction. *)
  val rewrite : t -> Mbuf.t -> bool

  (** Stamp the session's QoS class into the packet's TOS. *)
  val stamp : t -> Mbuf.t -> unit

  (** {!touch}; [now] in ns. *)
  val touch : t -> now:int -> len:int -> unit

  (** {!conntrack_step}: [false] = drop. *)
  val step : t -> tcp_flags:int -> bool

  val id : t -> int
end

(** [cached_resolve table ~cache ~charge ctx m] — the per-packet entry
    point shared by the session plugins.  With [cache] on and a flow
    binding present, steady state reads the view in the binding's soft
    slot ([charge] selects whether its single memory access is
    charged); otherwise (or on a cold or stale slot) it falls back to
    {!Table.resolve} and points the slot at the view.  Returns
    {!Hit.none} or {!Hit.full} when there is no session.
    [cache:false] is the naive per-feature-lookup mode the benchmarks
    contrast against. *)
val cached_resolve :
  Table.t -> ?create:bool -> cache:bool -> charge:bool ->
  Rp_core.Plugin.ctx -> Mbuf.t -> Hit.t

(** The drop reason of a packet refused a session
    (["session table full"]). *)
val full_why : string
