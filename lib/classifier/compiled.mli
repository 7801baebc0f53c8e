(** Cross-gate compiled classifier: one decision structure for the
    union of {e all} gates' filter tables.

    The per-gate {!Dag} tables charge a cold-start packet one full
    walk per gate — n filter-table lookups for n gates (paper, section
    3.2).  This module compiles the union of every gate's bindings
    into a single FDD-style decision structure (in the mold of the
    NetKAT compiler's forwarding decision diagrams): nodes test the
    six flow-key fields in the same fixed order as the DAG levels,
    equal residual filter sets share one hash-consed subtree, and each
    leaf carries the {e full per-gate winner vector}.  A cold-start
    lookup then resolves every gate in one traversal, so its memory
    accesses are independent of the gate count.

    The structure is recompiled lazily: {!bind}/{!unbind} only update
    an index of the bindings and mark it dirty, and the next {!lookup}
    (or {!prepare}) recompiles — so a burst of control-plane deltas is
    coalesced into one compile.  A compile costs what changed, not
    what is installed: a subtree is keyed by its level and the uids of
    the bindings that reach it, and keys the last compile built are
    reused rather than rebuilt, so a bind re-makes only the paths its
    filter reaches.  Compile-time memory accesses are
    never charged to the {!Rp_lpm.Access} meter; lookups charge
    exactly like one {!Dag.lookup} (2 for the function pointers, 1 per
    edge, 1 per port-level probe, plus the BMP engine's own charges),
    so compiled and per-gate cold starts are directly comparable. *)

open Rp_pkt

type 'a t

(** Per-gate resolution: [winners.(g)] is the most specific filter
    bound at gate [g] matching the looked-up key, with its value. *)
type 'a winners = (Filter.t * 'a) option array

(** [create ~gates ()] — [engine] selects the BMP plugin used by the
    address levels (default PATRICIA, as in {!Dag.create}). *)
val create : ?engine:Rp_lpm.Engines.t -> gates:int -> unit -> 'a t

val gates : 'a t -> int

(** [bind t ~gate f v] adds [f -> v] to gate [gate]'s slice of the
    union, replacing a structurally equal filter at that gate.  O(1):
    one hash-table update, and the compiled structure is marked
    dirty. *)
val bind : 'a t -> gate:int -> Filter.t -> 'a -> unit

(** [unbind t ~gate f] removes the filter structurally equal to [f]
    from gate [gate]'s slice.  O(1), like {!bind}. *)
val unbind : 'a t -> gate:int -> Filter.t -> unit

(** [clear t] removes every binding and drops the reusable nodes. *)
val clear : 'a t -> unit

(** [lookup t k] resolves every gate's most specific match for [k] in
    one traversal; [None] when no gate has a matching filter.  The
    returned vector is owned by the structure — read it before the
    next mutation, don't stash it. *)
val lookup : 'a t -> Flow_key.t -> 'a winners option

(** [prepare t] forces the lazy recompile now (e.g. before a
    measurement window), so the next lookup pays no compile. *)
val prepare : 'a t -> unit

(** Number of installed (gate, filter) bindings. *)
val length : 'a t -> int

(** Nodes the last compile constructed; nodes it reused from the
    compile before are not counted.  A first compile counts every
    distinct node. *)
val node_count : 'a t -> int
