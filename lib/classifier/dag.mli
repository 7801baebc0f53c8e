(** The DAG-based filter table (paper, section 5.1).

    One filter table exists per gate.  It stores bindings from filters
    to values (plugin instances) and finds, for a packet's six-tuple,
    the {e most specific} matching filter in O(number of fields) —
    independent of the number of installed filters.

    The structure is a {e set-pruning trie}: at insertion time a filter
    is replicated beneath every more specific edge it subsumes, so a
    lookup follows a single best-matching edge per level with no
    backtracking.  Memory can grow combinatorially with many ambiguous
    filters — the trade-off the paper accepts (section 5.1.2).

    Levels, in order: source address (longest-prefix match, via a
    pluggable BMP engine), destination address (same), protocol (exact
    or wildcard), source port (exact/range/wildcard; ranges are
    maintained as disjoint elementary intervals), destination port
    (same), incoming interface (exact or wildcard).

    Memory-access accounting (see {!Rp_lpm.Access}) mirrors Table 2 of
    the paper: 2 accesses per lookup for the BMP/hash function
    pointers, 1 per edge traversal (6 per full walk), 1 per port-level
    probe, and whatever the configured BMP engine charges per address
    level. *)

open Rp_pkt

type 'a t

(** [create ()] uses the PATRICIA engine for address levels; pass
    [~engine] (e.g. [Rp_lpm.Engines.bspl]) to select another BMP
    plugin. *)
val create : ?engine:Rp_lpm.Engines.t -> unit -> 'a t

(** [insert t f v] installs filter [f] bound to [v], replacing the
    binding of a structurally equal filter if present. *)
val insert : 'a t -> Filter.t -> 'a -> unit

(** [remove t f] uninstalls the filter structurally equal to [f],
    incrementally: the filter is deleted from every node it was
    inserted or seeded into, emptied port intervals and exact edges
    are pruned, and memoized wildcard-chain jumps along the path are
    cleared, leaving the trie equivalent to one built without [f]. *)
val remove : 'a t -> Filter.t -> unit

(** [lookup t k] is the most specific installed filter matching [k]
    (see {!Filter.compare_specificity}), with its bound value. *)
val lookup : 'a t -> Flow_key.t -> (Filter.t * 'a) option

(** [find t f] is the value currently bound to the filter structurally
    equal to [f], if installed. *)
val find : 'a t -> Filter.t -> 'a option

val length : 'a t -> int
val iter : (Filter.t -> 'a -> unit) -> 'a t -> unit
val clear : 'a t -> unit

(** Number of trie nodes currently allocated (memory diagnostics). *)
val node_count : 'a t -> int

(** [pristine t] — no filter was inserted since [t] was created or
    cleared: the root is the only node and has never held an edge, so
    {!lookup} would return [None] having charged only its 2
    function-pointer accesses.  A table emptied by {!remove} is not
    pristine (its address level may still charge a visit). *)
val pristine : 'a t -> bool

(** [optimize t] applies the paper's wildcard-chain collapsing
    (section 5.1.2): consecutive levels whose only edge is the
    wildcard are jumped in a single access.  Purely a lookup-cost
    optimization; results are unchanged.  Inserting new filters
    un-collapses the affected paths — call [optimize] again after a
    batch of changes. *)
val optimize : 'a t -> unit
