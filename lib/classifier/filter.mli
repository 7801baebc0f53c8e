(** Filter specifications — the six-tuple patterns that select sets of
    flows (paper, section 3):

    [<source address, destination address, protocol, source port,
    destination port, incoming interface>]

    Address fields are prefixes (partial wildcards); ports are exact,
    ranges, or wildcard; protocol and interface are exact or wildcard. *)

open Rp_pkt

type port_match =
  | Any_port
  | Port of int
  | Port_range of int * int  (** inclusive bounds *)

type num_match =
  | Any_num
  | Num of int

type t = private {
  src : Prefix.t;
  dst : Prefix.t;
  proto : num_match;
  sport : port_match;
  dport : port_match;
  iface : num_match;
  priority : int;
      (** explicit tie-break between otherwise equally specific
          (ambiguous) filters; higher wins *)
}

(** [v4 ()] / [v6 ()] build filters with every field wildcarded except
    those given.  @raise Invalid_argument if [src]/[dst] families don't
    match the constructor, or a port/range is out of [0, 65535]. *)
val v4 :
  ?src:Prefix.t -> ?dst:Prefix.t -> ?proto:int -> ?sport:port_match ->
  ?dport:port_match -> ?iface:int -> ?priority:int -> unit -> t

val v6 :
  ?src:Prefix.t -> ?dst:Prefix.t -> ?proto:int -> ?sport:port_match ->
  ?dport:port_match -> ?iface:int -> ?priority:int -> unit -> t

(** [exact_of_key k] is the fully specified filter matching exactly the
    flow [k] (used to install per-application-flow filters). *)
val exact_of_key : Flow_key.t -> t

val is_v4 : t -> bool

(** [matches f k] — does flow [k] match filter [f]?  Keys of the other
    address family never match. *)
val matches : t -> Flow_key.t -> bool

(** [matches_numbers f ~proto ~sport ~dport ~iface] is [matches]'s
    test of the four fields beside the addresses; with
    {!Prefix.matches_words} it tests a key stored as words. *)
val matches_numbers : t -> proto:int -> sport:int -> dport:int -> iface:int -> bool

(** Specificity order used to resolve which of several matching filters
    wins: lexicographic over the six fields in DAG level order (source
    prefix length, destination prefix length, protocol, source port
    narrowness, destination port narrowness, interface), with
    [priority] as the final tie-break.  [compare_specificity f g > 0]
    means [f] is more specific (wins).  This is a total preorder; ties
    are broken structurally so sorting is deterministic. *)
val compare_specificity : t -> t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Textual form, paper style:
    ["<129.0.0.0/8, 192.94.233.10, TCP, *, *, *>"].
    [of_string] also accepts dotted-star addresses like ["129.*.*.*"],
    protocol names or numbers, port ranges ["1024-2048"], and an
    optional trailing ["prio=N"]. *)
val to_string : t -> string

val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit

(** Port-match helpers shared with the DAG's range machinery. *)

val port_match_matches : port_match -> int -> bool
val port_match_width : port_match -> int
val num_match_matches : num_match -> int -> bool

(** Field projections by classifier level, in the order of
    {!compare_specificity}, which {!Dag} and {!Compiled} both walk:
    0 source address, 1 destination address, 2 protocol, 3 source
    port, 4 destination port, 5 interface.  A [_label] reads a
    filter's field, a [_value] the flow key's; the address pair serves
    levels 0-1, the port pair 3-4 and the exact pair 2 and 5. *)

val addr_label : t -> int -> Prefix.t
val addr_value : Flow_key.t -> int -> Ipaddr.t
val port_label : t -> int -> port_match
val port_value : Flow_key.t -> int -> int
val exact_label : t -> int -> num_match
val exact_value : Flow_key.t -> int -> int
