(** TCP header (RFC 793), without options (data offset = 5). *)

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

val no_flags : flags

(** Wire encoding of the flag byte (FIN=0x01 .. URG=0x20), shared with
    {!Mbuf.t.tcp_flags} and the conntrack state machine. *)
val byte_of_flags : flags -> int

val flags_of_byte : int -> flags

type t = {
  sport : int;
  dport : int;
  seq : int32;
  ack_seq : int32;
  flags : flags;
  window : int;
  checksum : int;
  urgent : int;
}

val size : int

type error = Truncated | Bad_offset of int

val pp_error : Format.formatter -> error -> unit

(** [validate buf off] validates the header at [off] (length, data
    offset = 5) without allocating on the valid path: [None] when it
    is valid. *)
val validate : Bytes.t -> int -> error option

(** [parse buf off] is {!validate} followed by reading the header into a
    record. *)
val parse : Bytes.t -> int -> (t, error) result

val serialize : t -> Bytes.t -> int -> unit
val pp : Format.formatter -> t -> unit
