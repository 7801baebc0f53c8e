(** The fully specified six-tuple identifying an end-to-end flow:
    [<source address, destination address, protocol, source port,
    destination port, incoming interface>] (paper, section 3).

    Flow-table entries are keyed by this tuple with no wildcards. *)

type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  proto : int;
  sport : int;
  dport : int;
  iface : int;
}

val make :
  src:Ipaddr.t -> dst:Ipaddr.t -> proto:int -> sport:int -> dport:int ->
  iface:int -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** Deliberately cheap hash over all six tuple fields (the paper's
    flow-table hash runs in 17 cycles on a Pentium; see section 5.2).
    The incoming interface participates: {!equal} distinguishes it, so
    keys differing only by interface must not systematically collide
    into the same bucket. *)
val hash : t -> int

(** Hash tables keyed by flow, with {!equal} and {!hash}. *)
module Table : Hashtbl.S with type key = t

(** Which side of a bidirectional conversation a tuple is, relative to
    its canonical form (see {!canonical}). *)
type direction = Fwd | Rev

(** [reverse k] swaps source and destination (addresses and ports).
    The interface is kept unless [iface] overrides it — a reply
    arrives on a different interface than the request left from, and
    callers that know which one say so. *)
val reverse : ?iface:int -> t -> t

(** [canonical k] is the direction-normalized form of [k] plus the
    direction bit: endpoints are ordered (address, then port as the
    tie-break) and the interface zeroed, so [k] and [reverse k]
    canonicalize to the same key with opposite direction bits.  The
    session table keys on this, and canonical-hash RSS pins both
    directions of a conversation to the same shard. *)
val canonical : t -> t * direction

(** [hash (fst (canonical k))] — the RSS rehash used for session
    affinity. *)
val canonical_hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
