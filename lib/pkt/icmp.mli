(** ICMP / ICMPv6 error and echo messages (RFC 792 / RFC 1885) — the
    control messages a router generates when it drops traffic (TTL
    exceeded, no route, administratively prohibited, fragmentation
    needed). *)

type message =
  | Echo_request of { ident : int; seq : int }
  | Echo_reply of { ident : int; seq : int }
  | Dest_unreachable of unreachable_code
  | Time_exceeded
  | Packet_too_big of int  (** next-hop MTU *)
  | Param_problem of int  (** pointer/offset into the offending packet *)

and unreachable_code =
  | Net_unreachable
  | Host_unreachable
  | Proto_unreachable
  | Port_unreachable
  | Admin_prohibited

(** Wire type/code for the given family. *)
val type_code : family:[ `V4 | `V6 ] -> message -> int * int

val of_type_code : family:[ `V4 | `V6 ] -> int -> int -> ident:int -> seq:int -> mtu:int -> pointer:int -> message option

type t = {
  message : message;
  (* First bytes of the packet that triggered the error (errors only;
     empty for echo). *)
  payload : string;
}

type error = Truncated | Bad_checksum | Unknown_type of int * int

val pp_error : Format.formatter -> error -> unit

(** [serialize ~src ~dst t] is the message from [src] to [dst]: ICMP
    when they are IPv4 addresses, ICMPv6 when they are IPv6.  The
    checksum covers the whole message and, for ICMPv6, the IPv6
    pseudo-header too (RFC 4443 section 2.3). *)
val serialize : src:Ipaddr.t -> dst:Ipaddr.t -> t -> Bytes.t

(** [parse ~src ~dst buf] reads the whole of [buf] as the message its
    datagram carried from [src] to [dst], with {!serialize}'s
    checksum rule. *)
val parse : src:Ipaddr.t -> dst:Ipaddr.t -> Bytes.t -> (t, error) result

val pp : Format.formatter -> t -> unit
