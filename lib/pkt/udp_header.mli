(** UDP header (RFC 768).  Checksum handling uses the IPv4/IPv6
    pseudo-header. *)

type t = {
  sport : int;
  dport : int;
  length : int;  (** header + payload, bytes *)
  checksum : int;
}

val size : int

type error = Truncated | Bad_length of int

val pp_error : Format.formatter -> error -> unit

(** [validate buf off] validates the header at [off] (length, UDP length
    ≥ {!size}) without allocating on the valid path: [None] when it is
    valid. *)
val validate : Bytes.t -> int -> error option

(** [parse buf off] is {!validate} followed by reading the header into a
    record. *)
val parse : Bytes.t -> int -> (t, error) result

(** [serialize t buf off] writes the header with [t.checksum] as-is.
    Use {!compute_checksum} first when a valid checksum is wanted. *)
val serialize : t -> Bytes.t -> int -> unit

(** [pseudo_header_sum ~src ~dst ~proto ~len] is the raw
    one's-complement sum ({!Checksum.sum}) of the pseudo-header that
    UDP, TCP and ICMPv6 checksums cover: both addresses, the protocol
    and the upper-layer length. *)
val pseudo_header_sum : src:Ipaddr.t -> dst:Ipaddr.t -> proto:int -> len:int -> int

(** [compute_checksum ~src ~dst buf off len] computes the UDP checksum
    over the pseudo-header plus the datagram ([len] bytes at [off],
    with the checksum field zeroed by the caller or present — the field
    at [off+6] is treated as zero). *)
val compute_checksum :
  src:Ipaddr.t -> dst:Ipaddr.t -> Bytes.t -> int -> int -> int

val pp : Format.formatter -> t -> unit
