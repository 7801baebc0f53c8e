(** Free-list packet pool — the zero-copy allocation discipline of a
    fast data path (snabb's [core.packet] freelist is the model): every
    {!Mbuf.t} descriptor is allocated once at pool creation, and the
    steady-state
    [alloc]/[free] cycle performs {e no} GC allocation — it pops/pushes
    a slot index and overwrites the descriptor's mutable fields.

    The pool is single-domain (one pool per worker); cross-domain
    hand-off stays on the engine's SPSC rings. *)

(** Raised by {!alloc} on an exhausted pool.  Callers that prefer
    backpressure over an exception check {!available} first — the
    check is one field read. *)
exception Empty

type t

type stats = {
  capacity : int;
  free : int;  (** descriptors currently in the free list *)
  allocs : int;
  frees : int;
  exhausted : int;  (** {!alloc} calls that found the pool empty *)
  double_frees : int;  (** {!free} calls on an already-free descriptor *)
  foreign_frees : int;  (** {!free} calls on another pool's descriptor *)
}

(** [create ~capacity ()] preallocates [capacity] descriptors. *)
val create : capacity:int -> unit -> t

val capacity : t -> int
val available : t -> int

(** [alloc t ~key ~len] pops a free descriptor and resets it to a
    fresh synthetic packet ([ttl] 64, no FIX, no tags, version from
    [key.src]'s address family) with no wire bytes ([raw = None]: a
    keyed descriptor has no datagram).  Allocation-free.
    @raise Empty when the pool is exhausted. *)
val alloc : t -> key:Flow_key.t -> len:int -> Mbuf.t

(** [free t m] returns [m] to the free list.  Freeing a descriptor that is already free, or one that
    belongs to a different pool (or none), is a counted no-op — the
    free list is never corrupted. *)
val free : t -> Mbuf.t -> unit

val stats : t -> stats

(** [watch t name] registers a [<name>.free_pct] health probe (free
    descriptors as a percentage of capacity) with
    {!Rp_obs.Health}. *)
val watch : t -> string -> unit
