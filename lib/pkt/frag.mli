(** IPv4 fragmentation and reassembly.

    Routers fragment IPv4 datagrams that exceed the egress MTU (unless
    DF is set); IPv6 routers never fragment — the source must.  The
    reassembler is the endpoint-side counterpart, keyed by
    (source, destination, protocol, identification), bounded in
    datagrams and in fragments per datagram, with a timeout. *)

open! Ipaddr

(** [fragment m ~mtu] splits [m] into fragments that fit [mtu].
    Fragment payload sizes are multiples of 8 bytes except the last.
    Fails when the datagram cannot be fragmented (IPv6, or DF set).
    The input must itself be unfragmented or a fragment — offsets
    compose.  When [m.raw] is present, each fragment's [raw] is its
    own whole wire datagram (IPv4 header and payload slice). *)
val fragment :
  Mbuf.t -> mtu:int -> (Mbuf.t list, [ `Dont_fragment | `V6_never_fragments ]) result

(** [needs_fragmentation m ~mtu]. *)
val needs_fragmentation : Mbuf.t -> mtu:int -> bool

module Reassembly : sig
  type t

  (** [create ()] — [timeout_ns] defaults to 30 s (the classic
      reassembly timer).  Every buffered fragment that dies
      unreassembled counts once under the [frag_evicted] drop reason:
      those of a datagram that times out, is evicted or refused, or
      whose bytes reassemble into no datagram {!Mbuf.of_bytes}
      accepts, and a fragment a duplicate replaces.  So every fragment
      offered ends in a reassembled datagram, in [frag_evicted], or
      still buffered. *)
  val create : ?timeout_ns:int64 -> unit -> t

  (** The bounds: incomplete datagrams held (1024), and distinct
      fragments of one datagram (64). *)
  val max_pending : int

  val max_frags : int

  (** [offer t ~now m] accepts a packet.  Unfragmented packets are
      returned immediately; fragments are buffered, and the completed
      datagram is returned when the last hole closes: parsed from its
      rebuilt bytes when every fragment had bytes, so its key carries
      the transport header's ports.  The timeout applies first; a new
      datagram at [max_pending] evicts the one first seen earliest
      ([frag.reasm_evicted]), and one offered more than [max_frags]
      fragments is dropped ([frag.reasm_refused]). *)
  val offer : t -> now:int64 -> Mbuf.t -> Mbuf.t option

  (** Datagrams currently incomplete; never more than [max_pending]. *)
  val pending : t -> int

  (** Fragments currently buffered, across the pending datagrams. *)
  val buffered : t -> int

  (** Drop incomplete datagrams older than the timeout; returns how
      many were discarded (counted in [frag.reasm_expired]). *)
  val expire : t -> now:int64 -> int
end
