(** IPv4 header (RFC 791), without options (IHL = 5). *)

type t = {
  tos : int;
  total_length : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;  (** in 8-byte units *)
  ttl : int;
  proto : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

val size : int
(** Header size in bytes (20). *)

type error =
  | Truncated
  | Bad_version of int
  | Bad_ihl of int
  | Bad_checksum
  | Bad_length of int

val pp_error : Format.formatter -> error -> unit

(** [validate buf off] validates the header at [off] — length, version,
    IHL, checksum, total length ≥ {!size} — without allocating on the
    valid path: [None] when the header is valid.  The datagram parser
    ({!Mbuf.of_bytes}) runs this and then reads the fields itself. *)
val validate : Bytes.t -> int -> error option

(** [parse buf off] is {!validate} followed by reading the header into a
    record. *)
val parse : Bytes.t -> int -> (t, error) result

(** [serialize t buf off] writes the header, computing the checksum.
    [buf] must have at least {!size} bytes at [off]. *)
val serialize : t -> Bytes.t -> int -> unit

val default :
  ?tos:int -> ?ident:int -> ?ttl:int -> total_length:int -> proto:int ->
  src:Ipaddr.t -> dst:Ipaddr.t -> unit -> t

val pp : Format.formatter -> t -> unit
