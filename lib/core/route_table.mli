(** The routing table: longest-prefix match over destination prefixes,
    on the PATRICIA BMP plugin (the paper's BMP plugins serve both the
    classifier and routing — "Routing ... is packet classification
    with only one field", section 5.1). *)

open Rp_pkt

type route = {
  prefix : Prefix.t;
  next_hop : Ipaddr.t option;  (** [None] = directly connected *)
  iface : int;
  metric : int;
}

type t

val create : unit -> t

(** [add t route] installs [route], replacing an existing route for the
    same prefix only if the new metric is not worse. *)
val add : t -> route -> unit

val remove : t -> Prefix.t -> unit

(** [lookup t dst] is the best (longest-prefix) route for [dst]: one
    PATRICIA walk, counted in [route_table.lookups] (and
    [route_table.misses] when nothing matches).  The result is the
    [Some r] that {!add} built, so a lookup allocates nothing. *)
val lookup : t -> Ipaddr.t -> route option

(** [resolve t flows m] routes [m] on the data path: it sets
    [m.out_iface] and [m.next_hop] (the route's gateway, or [m]'s own
    destination when directly connected) and returns the egress
    interface, or [-1] when no route matches.

    Route once per flow: the route of a packet whose FIX names a valid
    record of [flows] is cached with that record, and later packets of
    the flow reuse it — without a walk or an allocation, counted in
    [route_table.cache_hits] — while [t] is unchanged and the packet
    carries the destination the route was cached for: a NAT'd flow
    caches its rewritten destination, and a packet that skipped the
    rewrite walks.  The table's contents are identified by a stamp, unique
    across the process: every {!add} and {!remove} takes a fresh one,
    and so does every table {!create} builds.  A packet without a FIX
    (best-effort mode) always walks. *)
val resolve : t -> 'a Rp_classifier.Flow_table.t -> Mbuf.t -> int

(** [hold t] batches [route_table.cache_hits], the one counter
    {!resolve} bumps per packet: until [release t] hits accumulate in
    the table, and [release] adds them with one striped add.  A table
    nobody holds moves the counter before [resolve] returns.  [Ip_core]
    holds its context's table for the length of a frame, so the counter
    is exact whenever no frame is in flight.  Owning domain only. *)
val hold : t -> unit

val release : t -> unit

(** The stamp of [t]'s current contents (see {!resolve}): equal stamps
    mean equal routes. *)
val stamp : t -> int

val length : t -> int
val iter : (route -> unit) -> t -> unit
val pp_route : Format.formatter -> route -> unit
