(** A bounded FIFO over one array: the output queues' storage.

    The array is allocated by the first {!push}, one slot, and doubles
    when full, up to [limit] slots; a push at [limit] elements is
    refused.  A queue that never backlogs costs a few words, and a busy
    one settles at the size of its largest backlog: pushing, popping
    and clearing allocate nothing past that growth.  A {!pop} or
    {!clear} writes [dummy] over each slot it frees, so a packet that
    left the queue is not kept alive by it — nor, once the array is in
    the major heap, promoted through it. *)

type 'a t

(** [create ~limit ~dummy ()] — an empty ring holding at most [limit]
    elements.  @raise Invalid_argument if [limit < 1]. *)
val create : limit:int -> dummy:'a -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val limit : 'a t -> int

(** [push t x] appends [x]; [false] (and nothing queued) when [t]
    already holds [limit] elements. *)
val push : 'a t -> 'a -> bool

(** The oldest element.  @raise Invalid_argument if [t] is empty. *)
val peek : 'a t -> 'a

(** Remove and return the oldest element.
    @raise Invalid_argument if [t] is empty. *)
val pop : 'a t -> 'a

(** Empty [t], keeping its array. *)
val clear : 'a t -> unit

(** [fold f acc t] folds [f] over the elements, oldest first. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
