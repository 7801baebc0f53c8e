(** Circular doubly-linked lists of int slots, threaded through one
    int array that holds each node's next and prev side by side.

    A [t] holds a fixed number of lists, numbered [0 .. lists-1], over
    slots [0 .. slots-1]; each slot is on at most one list.  The
    tables keep every slot they use on exactly one list (the flow
    table's insertion order and free slots, the session table's timer
    wheel buckets, due, parked and free slots), so moving a slot is an
    {!unlink} and a {!push_back}, and a list never holds a stale
    entry.  Every operation is O(1) — {!append} moves a whole list —
    and none allocates except {!create} and {!grow}.

    List and slot numbers are not bounds-checked: a list must be below
    [lists] and a slot below the slots created or grown to. *)

type t

(** [create ~lists ~slots]: [lists] empty lists over [slots] slots,
    none of which is on a list. *)
val create : lists:int -> slots:int -> t

(** [grow t ~slots] makes room for [slots] slots; the new ones are on
    no list.  A smaller [slots] changes nothing. *)
val grow : t -> slots:int -> unit

(** [unlink t s] takes [s] off its list; nothing when it is on none. *)
val unlink : t -> int -> unit

(** [push_back t l s] puts [s], which must be on no list, last on
    list [l]. *)
val push_back : t -> int -> int -> unit

(** [append t ~src ~dst] moves every slot of [src], in order, to the
    end of [dst], leaving [src] empty; nothing when [src = dst]. *)
val append : t -> src:int -> dst:int -> unit

(** The first and the last slot of a list, or [-1] when it is empty. *)

val first : t -> int -> int
val last : t -> int -> int

(** The slot after and before [s] on its list, or [-1] at the end. *)

val next : t -> int -> int
val prev : t -> int -> int
