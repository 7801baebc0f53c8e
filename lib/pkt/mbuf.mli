(** The packet descriptor carried through the router — the analogue of
    the BSD [mbuf] of the paper.

    An mbuf carries the parsed six-tuple (the classification key), a
    few mutable per-hop fields (TTL, output interface, next hop), the
    raw wire datagram when one exists, and the {e flow index} (FIX):
    after the first gate of a cached flow, the AIU stores a pointer to
    the packet's flow-table row here so subsequent gates avoid any
    lookup (paper, section 3.2). *)

type version = V4 | V6

(** Flow index: slot in the flow table plus a generation stamp so a
    recycled row is never mistaken for the original flow, packed into
    one immediate int ({!make_fix}); {!no_fix} ([-1]) is none, and a
    packed FIX is never negative. *)
type fix = int

val no_fix : fix

(** [make_fix ~slot ~gen] packs a slot below [2{^31}] with the low 31
    bits of [gen]; {!fix_slot} and {!fix_gen} read them back. *)
val make_fix : slot:int -> gen:int -> fix

val fix_slot : fix -> int
val fix_gen : fix -> int

(** The [next_hop] of a packet not yet routed: a physically unique
    address, so [m.next_hop == no_hop] is the test and no real address
    is mistaken for it. *)
val no_hop : Ipaddr.t

(** Fragment position of this mbuf within its original datagram
    ([offset] in bytes of upper-layer payload; [more] = more fragments
    follow).  [None] = unfragmented. *)
type frag_info = {
  offset : int;
  more : bool;
}

type t = {
  mutable key : Flow_key.t;
  mutable version : version;
      (** mutable so a pooled descriptor can be recycled across
          address families (see {!Pool}); everything else treats it as
          set-once *)
  mutable len : int;  (** total datagram length on the wire, bytes *)
  mutable ttl : int;
  mutable tos : int;  (** TOS / IPv6 traffic class *)
  mutable flow_label : int;  (** IPv6 only; 0 otherwise *)
  mutable options : Ipv6_header.Option_tlv.t list;
      (** hop-by-hop options awaiting option plugins *)
  mutable raw : Bytes.t option;
      (** [None], or the whole datagram, its first [len] bytes from the
          IP header on: never a bare transport message *)
  mutable fix : fix;  (** {!no_fix} until the AIU classifies the packet *)
  mutable out_iface : int option;
  mutable next_hop : Ipaddr.t;
      (** the route's gateway, or the destination itself when directly
          connected; {!no_hop} until routed *)
  mutable birth_ns : int64;  (** arrival timestamp, set by the driver *)
  mutable seq : int;  (** generator sequence number (testing aid) *)
  mutable tags : string list;  (** free-form annotations, e.g. "esp" *)
  mutable ident : int;  (** IPv4 identification, for fragmentation *)
  mutable dont_fragment : bool;
  mutable frag : frag_info option;
  mutable tseq : int;
      (** telemetry trace id: 0 = unsampled, else the positive packet
          id stamped by the IP core when tracing samples this packet *)
  mutable pool_id : int;
      (** owning {!Pool} uid, 0 = not pool-managed; maintained by the
          pool, opaque to everything else *)
  mutable pool_slot : int;
      (** slot in the owning pool's backing arrays, -1 = none *)
  mutable tcp_flags : int;
      (** TCP flag byte ({!Tcp_header.byte_of_flags}); 0 for non-TCP
          packets.  Parsed from the wire by {!of_bytes}, settable on
          synthetic packets so connection tracking sees SYN/FIN/RST on
          generator traffic too. *)
  mutable ingress_cycles : int;
      (** SLO stamp: the processing domain's {!Cost} clock at ingress.
          Read-only for the latency histograms — never charged — so
          Table-3 cycles are identical with stamping on or off. *)
  mutable gate_cycles : int array;
      (** per-gate cycle attribution for SLO exemplars, indexed by
          gate id; [[||]] until exemplar capture is armed, after which
          the array is lazily sized once per descriptor and zeroed at
          ingress (pooled descriptors keep it, so the steady state
          stays allocation-free) *)
}

(** [synth ~key ~len ()] builds a descriptor without wire bytes — the
    fast path used by workload generators; [version] follows the
    address family of [key.src]. *)
val synth : ?ttl:int -> ?tos:int -> ?flow_label:int -> ?tcp_flags:int ->
  key:Flow_key.t -> len:int -> unit -> t

(** A descriptor that carries no packet: rings and scratch arrays write
    it over a slot they free, so the packet that left is not kept
    alive.  Never processed or written. *)
val dummy : t

type error =
  | V4_error of Ipv4_header.error
  | V6_error of Ipv6_header.error
  | Udp_error of Udp_header.error
  | Tcp_error of Tcp_header.error
  | Empty

val pp_error : Format.formatter -> error -> unit

(** [of_bytes ~iface buf] parses a wire datagram: the IP header
    (v4 or v6 by version nibble), an optional IPv6 hop-by-hop header,
    and UDP/TCP ports when applicable (ports are 0 for other
    protocols).  Only an IPv4 fragment at offset 0 carries a transport
    header (RFC 791): a non-initial fragment's ports and TCP flags are
    0 and its payload is not checked as one.

    It is the one wire parser, and a direct one: it runs the header
    modules' allocation-free validators ({!Ipv4_header.validate},
    {!Ipv6_header.validate}, {!Udp_header.validate},
    {!Tcp_header.validate}) and reads every field at its fixed offset
    straight into the descriptor, so a valid IPv4/UDP datagram costs
    the descriptor, its key and addresses, [Some buf] and the [Ok] —
    no header records.  Errors are the header parsers' own, plus one
    datagram-level check the header parsers do not make: a datagram
    claiming more bytes than [buf] holds (IPv4 [total_length], IPv6
    40 + [payload_length]) is [V4_error (Bad_length n)] or
    [V6_error Truncated].  Never raises. *)
val of_bytes : iface:int -> Bytes.t -> (t, error) result

(** [datagram ~src ~dst ~proto ~iface msg] writes an IP header of
    [src]'s family (IPv6 with a hop-by-hop header when there are
    [options]) before the transport message [msg] and returns
    {!of_bytes}'s descriptor of the bytes.  [ttl] defaults to 64, the
    rest to 0.  @raise Invalid_argument when {!of_bytes} refuses them
    (options on IPv4, over 65,535 bytes, a bad UDP or TCP header). *)
val datagram :
  ?ttl:int -> ?tos:int -> ?flow_label:int ->
  ?options:Ipv6_header.Option_tlv.t list -> src:Ipaddr.t -> dst:Ipaddr.t ->
  proto:int -> iface:int -> Bytes.t -> t

(** [l4_offset m] is where the transport header starts in [m.raw], past
    the IP header and any hop-by-hop header; [-1] without bytes, for a
    non-initial IPv4 fragment, or past [len].  The one place that knows
    the layout: {!of_bytes} reads the ports at the same offset, from
    the same function.  Allocation-free. *)
val l4_offset : t -> int

(** [set_ttl m ttl] sets the descriptor's TTL (IPv6: hop limit) and
    writes it into [m.raw] too, adjusting the IPv4 header checksum
    incrementally (RFC 1624), so the forwarded bytes reparse with it.
    Allocation-free. *)
val set_ttl : t -> int -> unit

(** [l4_message m] copies the bytes from {!l4_offset} to [len], if any. *)
val l4_message : t -> Bytes.t option

(** [udp_v4 ...] and [udp_v6 ...] build a UDP datagram through
    {!datagram}, with the UDP checksum filled in. *)
val udp_v4 :
  ?ttl:int -> ?tos:int -> src:Ipaddr.t -> dst:Ipaddr.t -> sport:int ->
  dport:int -> iface:int -> payload:string -> unit -> t

val udp_v6 :
  ?hop_limit:int -> ?traffic_class:int -> ?flow_label:int ->
  ?options:Ipv6_header.Option_tlv.t list -> src:Ipaddr.t -> dst:Ipaddr.t ->
  sport:int -> dport:int -> iface:int -> payload:string -> unit -> t

val has_tag : t -> string -> bool
val add_tag : t -> string -> unit
val pp : Format.formatter -> t -> unit
