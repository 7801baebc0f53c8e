(** IPv6 header (RFC 1883 — the version the paper deployed) and
    hop-by-hop options.

    The paper's "IPv6 option plugins" process options from the
    hop-by-hop extension header; {!Option_tlv} models the option TLVs
    that such plugins consume. *)

type t = {
  traffic_class : int;
  flow_label : int;
  payload_length : int;  (** bytes following this header *)
  next_header : int;
  hop_limit : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

val size : int
(** Fixed header size in bytes (40). *)

type error =
  | Truncated
  | Bad_version of int
  | Bad_option_length

val pp_error : Format.formatter -> error -> unit

(** [validate buf off] validates the fixed header at [off] (length,
    version) without allocating on the valid path: [None] when it is
    valid. *)
val validate : Bytes.t -> int -> error option

(** [parse buf off] is {!validate} followed by reading the header into a
    record. *)
val parse : Bytes.t -> int -> (t, error) result

val serialize : t -> Bytes.t -> int -> unit

val default :
  ?traffic_class:int -> ?flow_label:int -> ?hop_limit:int ->
  payload_length:int -> next_header:int -> src:Ipaddr.t -> dst:Ipaddr.t ->
  unit -> t

val pp : Format.formatter -> t -> unit

(** Hop-by-hop option TLVs (RFC 1883 section 4.2). *)
module Option_tlv : sig
  type t =
    | Pad1
    | Padn of int          (** total option size in bytes, >= 2 *)
    | Router_alert of int  (** RFC 2113-style alert value *)
    | Jumbo_payload of int
    | Unknown of int * string  (** type, body *)

  (** [parse_all buf off len] decodes the option area of a hop-by-hop
      header (after its 2-byte preamble). *)
  val parse_all : Bytes.t -> int -> int -> (t list, error) result

  val serialized_length : t -> int
  val serialize_all : t list -> Bytes.t

  val pp : Format.formatter -> t -> unit
end

(** A complete hop-by-hop extension header. *)
module Hop_by_hop : sig
  type t = {
    next_header : int;
    options : Option_tlv.t list;
  }

  (** Total wire length, always a multiple of 8 (padding is the
      caller's responsibility; [serialize] pads with PadN). *)
  val wire_length : t -> int

  val parse : Bytes.t -> int -> (t * int, error) result
  (** Returns the header and its wire length. *)

  val serialize : t -> Bytes.t -> int -> int
  (** Writes the header (adding trailing padding to an 8-byte multiple)
      and returns the number of bytes written. *)
end
