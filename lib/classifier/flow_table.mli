(** The flow table — the AIU's cache of per-flow state (paper,
    section 5.2).

    Each entry corresponds to one fully specified flow and stores, for
    every gate, the bound plugin instance plus a slot of per-flow
    plugin-private "soft" state (e.g. the DRR plugin keeps its per-flow
    packet queue there).

    Storage is flat.  Every fixed-size per-record field lives in one
    native-int Bigarray indexed by slot, three cache lines a slot.  The
    first line is all a probe and a FIX check read: the key's packed
    meta word (address families, protocol, ports, interface), word 0
    of each address, the generation and a state word (in use, and one
    bit per live gate binding), with the last-use time, the route stamp
    and the key hash.  The second line holds an IPv6 key's other six
    address words and the creation time, the third the accounting.
    Keys are stored as these words, never as boxed [Flow_key.t]s: a
    hit compares ints, and {!key} rebuilds a key only for control-path
    callers.

    The key index ({!Index}, shared with the session table) is kept at
    no more than half load, so probe runs stay short at any scale.  Each
    entry packs 31 bits of its key's hash beside its slot, so a probe
    reads a record line only when that fingerprint matches.  Every slot
    is on one of two {!Slot_list}s: the live slots in insertion order,
    or the free slots.  Recycling takes the first live slot, and
    {!flush}, {!invalidate} and {!iter} walk the live list newest
    first.  From its first {!expire} on, the table also keeps every
    live record on the session table's timer wheel ({!Wheel}), so a
    pass visits only the records that came due.

    Each (slot, gate) pair owns one {!binding} block, its [Some]
    included, made the first time that pair is bound and refilled in
    place for each later flow in the slot (a {!lend}ed block is
    replaced instead).  Once every pair a workload binds has its
    block, {!find}, insert, bind, evict, recycle and account allocate
    nothing on the OCaml heap, and an {!expire} pass a few words.

    Records come from a pool that grows exponentially (1024, 2048,
    4096, …) up to a configurable maximum, after which the oldest
    records (the earliest inserted of those still live) are
    recycled.  Records are addressed by a {e flow index}
    (slot + generation, packed in one int); the generation guards
    against a recycled slot being mistaken for the original flow. *)

open Rp_pkt

(** Plugin-private per-flow soft state.  Plugins extend this type with
    their own constructors (e.g. [type Flow_table.soft += Drr_queue of
    ...]). *)
type soft = ..

(** A gate binding.  The block belongs to its (slot, gate) pair and is
    refilled for each flow that binds the pair, so a holder that may
    outlive the flow — a later packet of the frame may recycle the
    slot — checks it with {!still_bound} before it touches [soft].  A
    block handed to another domain is {!lend}ed first: the table never
    writes it again, and the pair's next bind makes a fresh block. *)
type 'a binding = {
  mutable instance : 'a;
  mutable filter : Filter.t;  (** filter this binding came from *)
  mutable soft : soft option;
  mutable owner : Mbuf.fix;
      (** FIX of the flow the block is bound for; [Mbuf.no_fix] once
          that flow leaves or the binding is cleared, unless lent *)
  mutable lent : bool;  (** set by {!lend}; never cleared *)
}

(** A handle onto one table slot.  Handles are preallocated (one per
    slot) and reused across the flows that occupy the slot, so holding
    one across an eviction is only meaningful together with its
    generation (see {!fix_of_record} / {!fix_slot}).  Field access
    goes through the accessors below, and none of them allocate. *)
type 'a record

type 'a t

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  recycled : int;
  chain_max : int;
      (** most slots inspected by any single lookup — the open-addressing
          analogue of the longest bucket chain.  Counted uniformly on
          both paths as {e occupied slots inspected}: a hit at probe
          depth d (d slots skipped) records d+1 (the match is
          inspected too); a miss that skipped d occupied slots before
          hitting an empty one records d.  This matches the number of
          per-slot memory accesses charged (see {!find}). *)
  maint_visited : int;
      (** cumulative slots visited by {!expire} (the due records it
          re-checks) and by {!flush} and {!invalidate} (every live
          record), never grown-but-dead capacity *)
}

(** [create ~gates ()] — [gates] is the number of gates whose bindings
    each record holds.  Defaults follow the paper: [buckets = 32768]
    (now the initial size hint for the probe index, which additionally
    never holds more than half its capacity in records),
    [initial_records = 1024], unbounded unless [max_records] given;
    [gates] is at most 61.
    [on_evict] is called for each populated gate binding whenever a
    record is evicted, recycled, or flushed, so plugins can release
    per-flow soft state. *)
val create :
  ?buckets:int -> ?initial_records:int -> ?max_records:int ->
  ?on_evict:(gate:int -> 'a binding -> unit) -> gates:int -> unit -> 'a t

(** [find t key ~now] is the slot of [key]'s record, or [-1], and
    refreshes the record's last-use time.  Charges one memory access
    for the home-bucket read plus one per occupied index entry
    inspected along the probe run (the probe run plays the role of the
    old bucket chain; the empty entry that terminates a miss is covered
    by the upfront charge).  A collision-free hit therefore costs 2
    accesses and a miss on an empty home bucket costs 1 — identical to
    the chained table.  Counts [flow_table.lookups] and [.hits] or
    [.misses]; see {!hold} for when.  Allocates nothing.

    A key's protocol, ports and interface are stored in 8, 16, 16 and
    20 bits: keys that differ only above those widths are one flow. *)
val find : 'a t -> Flow_key.t -> now:int64 -> int

(** [record_at t slot] is the handle of [slot] (from {!find} or
    {!fix_slot}). *)
val record_at : 'a t -> int -> 'a record

(** [lookup t key ~now] is {!find} as an option: a hit allocates its
    [Some], so the data path calls {!find}. *)
val lookup : 'a t -> Flow_key.t -> now:int64 -> 'a record option

(** [hold t] batches the registry counters {!find} and {!account}
    write ([flow_table.lookups], [.hits], [.misses],
    [.accounted_packets], [.accounted_bytes]): until [release t] they
    accumulate in the table, and [release] adds each with one striped
    add.  A table nobody holds moves them before each call returns.
    [Ip_core] holds its context's table for the length of a frame, so
    the counters are exact whenever no frame is in flight.  Only the
    table's owning domain may hold or release it. *)
val hold : 'a t -> unit

val release : 'a t -> unit

(** [fix_slot t fix] dereferences a flow index, validating the
    generation: the slot [fix] names while its flow still occupies it,
    else [-1] (also for [Mbuf.no_fix]).  Allocates nothing. *)
val fix_slot : 'a t -> Mbuf.fix -> int

(** The FIX of the flow now in [r]'s slot, an immediate int. *)
val fix_of_record : 'a record -> Mbuf.fix

(** [insert t key ~now] allocates (or recycles) a record for [key].
    Any previous record for the same key is replaced. *)
val insert : 'a t -> Flow_key.t -> now:int64 -> 'a record

val remove : 'a t -> 'a record -> unit

(** [expire t ~now ~idle_ns] evicts every record idle strictly longer
    than [idle_ns], in no promised order.  It visits only the records
    the wheel hands back, evicting those still idle and rescheduling
    the rest at their last use; the first call, or one with another
    [idle_ns], first schedules every live record once (not counted in
    [maint_visited]).  Records must be used at non-decreasing times. *)
val expire : 'a t -> now:int64 -> idle_ns:int64 -> int

(** [flush t] evicts everything, newest first (used when filter
    tables change, so no stale binding survives).  O(live records). *)
val flush : 'a t -> unit

(** [set_exporter t f] registers the NetFlow-style emission hook:
    [f ~reason r] is called {e exactly once} whenever an in-use record
    leaves the table — [reason] is one of ["replaced"], ["recycled"],
    ["removed"], ["expired"], ["flushed"], ["invalidated"] — while the
    record's key, accounting fields and bindings are still intact. *)
val set_exporter : 'a t -> (reason:string -> 'a record -> unit) -> unit

(** [account t m ~verdict] attributes one packet (and [m.len] bytes)
    to the record referenced by [m]'s flow index, bumping the verdict
    count; a packet without a (still-valid) flow index is not
    attributed.  Also bumps the process-wide
    [flow_table.accounted_packets] / [flow_table.accounted_bytes]
    counters (batched while the table is held, see {!hold}), against
    which exported flow records reconcile. *)
val account :
  'a t -> Mbuf.t -> verdict:[ `Fwd | `Drop | `Absorb ] -> unit

(** Per-flow route cache.  A record caches one route: a route-table
    stamp in its hot line, and, kept on the slot's handle, the
    [out_iface] option and the gateway it set and the destination it
    was routed for, the flow's own destination standing for itself.  Inserting a flow clears it, so it
    leaves with the flow (evicted, recycled, invalidated or flushed)
    and a fresh table never sees a predecessor's.  Both functions only
    touch the record [m]'s FIX names, when that FIX is still valid.

    [cached_route t m ~stamp] is the egress interface cached at
    [stamp] for [m]'s current destination, with [m.out_iface] and
    [m.next_hop] set from the cache; [-1] (and [m] untouched) when
    nothing is cached at [stamp] or the route was cached for another
    destination — a packet whose NAT rewrite was skipped, or that a
    plugin rewrote differently, walks.  Allocates nothing.

    [cache_route t m ~stamp] caches [m]'s current [out_iface] and
    [next_hop] as the route of [m]'s destination at [stamp]. *)
val cached_route : 'a t -> Mbuf.t -> stamp:int -> int
val cache_route : 'a t -> Mbuf.t -> stamp:int -> unit

(** [set_binding t r ~gate ~filter v] binds [v] at [gate] for [r]'s
    flow, refilling the pair's block (its soft state cleared, its
    owner [r]'s FIX); only the pair's first bind, and a bind after the
    block was lent, allocate. *)
val set_binding : 'a t -> 'a record -> gate:int -> filter:Filter.t -> 'a -> unit

(** [still_bound b fix] is [b] when its block is still bound for the
    flow [fix] names, else [None]: a holder that may have outlived its
    flow checks here before it touches the soft state.  Allocates
    nothing. *)
val still_bound : 'a binding option -> Mbuf.fix -> 'a binding option

(** [lend b] marks [b]'s block as handed to another domain, which may
    read and write its soft state from then on.  The table's domain
    calls it before the hand-off.  The table then writes nothing into
    the block: when its flow leaves or the binding is cleared the table
    drops the block, and the pair's next bind makes a fresh one.  The
    block's owner stays the lent flow's FIX, so the other domain's
    {!still_bound} keeps passing for that flow's packets. *)
val lend : 'a binding option -> unit

(** [binding r ~gate] is [r]'s binding at [gate]; [None] also for a
    gate beyond the table's [gates]. *)
val binding : 'a record -> gate:int -> 'a binding option

(** [iter_bindings r f] calls [f ~gate b] for each populated gate
    binding of [r], in gate order. *)
val iter_bindings : 'a record -> (gate:int -> 'a binding -> unit) -> unit

(** Selective invalidation (control-plane churn support).

    [invalidate t f] evicts every in-use record whose key the filter
    [f] matches (reason ["invalidated"]), newest first, and returns
    the count.  It matches the records' words in place, so it
    allocates nothing per record.  Each record is exported exactly
    once.  O(live records).

    [bump_gate t ~gate] advances the table-wide generation for [gate]
    — used when a wildcard filter change makes every cached binding at
    that gate suspect without naming the affected flows.
    [gate_stale t r ~gate] tests whether [r]'s binding at [gate]
    predates the last bump; [revalidated t r ~gate] re-stamps it after
    the caller re-resolved the binding.  [clear_binding t r ~gate]
    drops one gate's binding (firing [on_evict] for its soft state)
    without touching the rest of the record. *)
val invalidate : 'a t -> Filter.t -> int

val bump_gate : 'a t -> gate:int -> unit
val gate_stale : 'a t -> 'a record -> gate:int -> bool
val revalidated : 'a t -> 'a record -> gate:int -> unit
val clear_binding : 'a t -> 'a record -> gate:int -> unit

(** Record field accessors. *)

(** [key r] rebuilds [r]'s key from its words, allocating it: for
    control-path callers, and for the rare data-path caller whose
    packet no longer carries the record's key (see {!has_key}). *)
val key : 'a record -> Flow_key.t

(** [has_key r k] is [true] when [r]'s record is [k]'s, compared word
    by word.  Allocates nothing. *)
val has_key : 'a record -> Flow_key.t -> bool

(** The key's fields without rebuilding it: [src_word r j] is word [j]
    (0-3, as {!Ipaddr.word}) of the source address, [src_v6 r] its
    family; likewise for the destination. *)
val src_word : 'a record -> int -> int
val dst_word : 'a record -> int -> int
val src_v6 : 'a record -> bool
val dst_v6 : 'a record -> bool
val proto : 'a record -> int
val sport : 'a record -> int
val dport : 'a record -> int
val iface : 'a record -> int
val slot : 'a record -> int
val gen : 'a record -> int
val packets : 'a record -> int
val bytes : 'a record -> int
val fwd : 'a record -> int
val dropped : 'a record -> int
val absorbed : 'a record -> int
val created_ns : 'a record -> int
val last_use_ns : 'a record -> int

val length : 'a t -> int
val capacity : 'a t -> int

(** The bound [create] was given ([max_int] when unbounded). *)
val max_records : 'a t -> int

val stats : 'a t -> stats

(** [iter f t] calls [f] on every live record, newest first.  [f] may
    evict the record it is given, but no other. *)
val iter : ('a record -> unit) -> 'a t -> unit
