(** Address prefixes ([addr/len]) with partial-wildcard semantics.

    A prefix of length 0 matches every address of its family and plays
    the role of the fully wildcarded address field in a filter
    specification (paper, section 3). *)

type t = private {
  addr : Ipaddr.t;  (** normalized: bits beyond [len] are zero *)
  len : int;
}

(** [make addr len] normalizes [addr] to [len] bits.
    @raise Invalid_argument if [len] is out of range for the family. *)
val make : Ipaddr.t -> int -> t

(** Host prefix: full length of the family (32 or 128). *)
val host : Ipaddr.t -> t

(** Family wildcard ([0.0.0.0/0] resp. [::/0]). *)
val any_v4 : t
val any_v6 : t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** [matches p a] is true iff the first [p.len] bits of [a] equal
    [p.addr].  Addresses of the other family never match. *)
val matches : t -> Ipaddr.t -> bool

(** [matches_words p ~v6 w0 w1 w2 w3] is [matches p a] for the address
    [a] of family [v6] whose {!Ipaddr.word}s are [w0]..[w3] (an IPv4
    address's [w1]..[w3] are ignored): the test for a caller that
    stores addresses as words.  {!matches} is this on [a]'s words.
    Allocates nothing. *)
val matches_words : t -> v6:bool -> int -> int -> int -> int -> bool

(** [subsumes p q] is true iff every address matched by [q] is matched
    by [p] (i.e. [p] is a — not necessarily proper — prefix of [q]). *)
val subsumes : t -> t -> bool

(** [is_wildcard p] is true iff [p.len = 0]. *)
val is_wildcard : t -> bool

(** Parse ["129.0.0.0/8"], ["192.94.233.10"] (host), ["*"] is not
    accepted here — filter syntax handles wildcards. *)
val of_string : string -> t

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit
