(** The Association Identification Unit (paper, sections 3.2 and 5):
    packet classifier, flow cache, and the binding between filters and
    plugin instances.

    There is one filter table (a {!Dag.t}) per gate and a single shared
    flow table.  The data path is exactly the paper's:

    - a gate asks for the instance bound to the packet's flow;
    - if the packet carries a valid flow index (FIX), the record is
      dereferenced directly — an indirect call's worth of work;
    - else the flow table is probed by the five/six-tuple;
    - on a miss, {e every} gate's filter table is consulted once and a
      fresh flow record caching all the instance pointers is installed
      ("the processing of the first packet of a new flow with n gates
      involves n filter table lookups", section 3.2).

    Mutating a filter table invalidates {e selectively}: only flow
    records the changed filter could match are evicted (or, when the
    filter wildcards both addresses, the gate's generation is bumped
    and cached bindings revalidate lazily on next use), so unrelated
    flows keep their FIX fast path across control-plane churn. *)

open Rp_pkt

type 'a t

(** Control-path mutation event, reported to the optional listener —
    the multicore engine uses this to build snapshot delta logs. *)
type 'a event =
  | Bound of int * Filter.t * 'a  (** gate, filter, instance *)
  | Unbound of int * Filter.t
  | Flushed  (** whole flow cache flushed (e.g. routing change) *)

(** How a flow-cache miss resolves the per-gate instance vector.  Both
    representations are maintained on every bind/unbind; the mode only
    selects which one the cold-start path consults, so switching is
    O(1) (plus one lazy compile on first compiled-mode use) and always
    yields the same bindings (most specific filter per gate). *)
type mode =
  [ `Per_gate  (** one DAG walk per gate — the paper's cold start *)
  | `Compiled  (** one {!Compiled} traversal resolves every gate *) ]

val mode : 'a t -> mode

(** [set_mode t m] switches the cold-start resolution strategy.
    Cached flow records are untouched: both modes agree on bindings,
    so no invalidation is needed. *)
val set_mode : 'a t -> mode -> unit

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

(** The compiled cross-gate structure (introspection/benchmarks). *)
val compiled : 'a t -> 'a Compiled.t

(** [create ~gates ()] builds an AIU with [gates] filter tables, whose
    address levels use PATRICIA; [max_records] and [on_evict] pass
    through to {!Flow_table.create}. *)
val create :
  ?max_records:int ->
  ?on_evict:(gate:int -> 'a Flow_table.binding -> unit) -> gates:int -> unit -> 'a t

val gates : 'a t -> int

(** Control path: bind / unbind a filter to an instance at a gate. *)

val bind : 'a t -> gate:int -> Filter.t -> 'a -> unit
val unbind : 'a t -> gate:int -> Filter.t -> unit
val filter_table : 'a t -> gate:int -> 'a Dag.t
val flow_table : 'a t -> 'a Flow_table.t

(** [hold t] batches the per-packet registry counters of {!classify}
    ([aiu.fix_hits]) and of the flow table (see {!Flow_table.hold})
    until [release t], which settles them with one add each.  A data
    path frame holds its context's AIU; a call on an AIU nobody holds
    moves its counters before it returns.  Owning domain only. *)
val hold : 'a t -> unit

val release : 'a t -> unit

(** [set_listener t fn] registers [fn] to observe every bind/unbind
    and flow-cache flush on this AIU (at most one listener). *)
val set_listener : 'a t -> ('a event -> unit) -> unit

val clear_listener : 'a t -> unit

(** Data path.  [classify t mbuf ~gate ~now] returns the flow record of
    this packet's flow, found through the packet's FIX, by a flow-table
    lookup, or inserted by a miss; the instance bound at [gate] is
    [Flow_table.binding record ~gate] ([None] if no filter at that gate
    matches the flow), a stored option.  A classification allocates
    nothing, a miss included once the slot's binding blocks exist and
    none was lent (see {!Flow_table}), unless the filter tables do.  Side effects: on a
    flow miss the flow record is created and populated for {e all}
    gates; the packet's FIX, an immediate int, is set.
    Counts [aiu.fix_hits] (see {!hold} for when). *)
val classify :
  'a t -> Mbuf.t -> gate:int -> now:int64 -> 'a Flow_table.record

(** [classify_key] classifies a bare key, for callers that have no mbuf
    (control plane, tests), and returns the instance bound at [gate]
    with the record; no FIX caching happens. *)
val classify_key :
  'a t -> Flow_key.t -> gate:int -> now:int64 ->
  ('a * 'a Flow_table.record) option

(** [flush_flows t] empties the flow cache (e.g. after a routing
    change). *)
val flush_flows : 'a t -> unit

(** Periodic housekeeping: evict flows idle longer than [idle_ns]. *)
val expire_flows : 'a t -> now:int64 -> idle_ns:int64 -> int
