(** The unified drop-reason taxonomy.

    Every site that loses a packet — a data-path [Dropped] verdict,
    a full inter-stage link ring, an exhausted packet pool, engine
    backpressure at submit time — counts the loss here under exactly
    one enumerated reason.  [count] bumps both the per-reason counter
    ([drops.by_reason.<name>]) and the family total ([drops.total]),
    so Σ per-reason == total holds by construction; the fault soak and
    the qcheck tests then only need to prove the wiring: each drop is
    counted once, under one reason, on both engines. *)

type t =
  | Ttl_expired
  | No_route
  | Fault  (** contained plugin fault under the drop policy *)
  | Queue_overflow  (** output queue / qdisc rejected the packet *)
  | Frag_loss  (** partial fragment loss at egress *)
  | Needs_frag  (** fragmentation needed but forbidden (DF / IPv6) *)
  | Frag_evicted
      (** a fragment a reassembler buffered (its verdict was to be
          absorbed) whose datagram then timed out, was evicted or
          refused, or a duplicate replaced *)
  | Conntrack  (** out-of-state drop by connection tracking *)
  | Session_table_full
      (** a session plugin could not open a session: the table is at
          capacity *)
  | Policy  (** a plugin's deliberate deny (firewall, ipsec, ...) *)
  | Link_overflow  (** full inter-stage {!Link} ring *)
  | Pool_exhausted  (** packet {!Pool} had no free descriptor *)
  | Backpressure  (** full engine rx ring at submit time *)
  | Tx_ring_overflow
      (** a shard's result, parked for a router-owned stage, lost to a
          full engine tx ring *)

val all : t list
val name : t -> string

(** The reasons produced as data-path verdicts: their counters sum to
    exactly the engines' dropped-verdict counters. *)
val verdict_reasons : t list

(** Classify a [Dropped why] verdict string.  Unrecognized strings are
    a plugin's deliberate deny and classify as [Policy]. *)
val of_why : string -> t

val count : t -> unit
val count_why : string -> unit
val add : t -> int -> unit
val get : t -> int
val total : unit -> int

(** [(reason, count)] for every reason, in [all] order. *)
val table : unit -> (t * int) list

(** Human-readable summary (nonzero reasons only). *)
val to_string : unit -> string
