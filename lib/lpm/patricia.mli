(** PATRICIA-style path-compressed binary trie: the "slower but freely
    available" BMP plugin of the paper (section 5.1.1), and the default
    engine of the classifier's address levels and of the route table.

    Nodes live in flat [int array] chunks per address family, and each
    entry's result is built once, when it is inserted: {!lookup}
    charges one {!Access} per visited node and allocates nothing. *)

open Rp_pkt

include Lpm_intf.S

(** [lookup_upto t a cap] is the longest prefix in [t] of length at
    most [cap] matching [a] (BSPL precomputes its markers' best
    matches with it). *)
val lookup_upto : 'a t -> Ipaddr.t -> int -> (Prefix.t * 'a) option

(** [iter_subtree t p f] calls [f] on every entry whose prefix [p]
    subsumes, [p] itself included, in O(path + subtree). *)
val iter_subtree : 'a t -> Prefix.t -> (Prefix.t -> 'a -> unit) -> unit

(** [fold_ancestors t p f acc] folds [f] over every entry whose prefix
    subsumes [p], [p] itself included, shortest first, in O(path). *)
val fold_ancestors : 'a t -> Prefix.t -> (Prefix.t -> 'a -> 'b -> 'b) -> 'b -> 'b

(** [live_slots t ~v6] is the number of node slots one family uses,
    its root included: at most 2n + 1 for the family's n entries, and
    1 once every entry is removed (0 before the first insert). *)
val live_slots : 'a t -> v6:bool -> int
