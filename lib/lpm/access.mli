(** Memory-access accounting.

    The paper evaluates its classifier in {e worst-case memory
    accesses} (Table 2).  Every lookup structure in this repository
    charges this counter once per dependent memory reference
    (node/bucket/edge dereference), so the benchmarks measure the data
    structures themselves rather than a formula.

    The counter (and the [enabled] flag) are domain-local: each engine
    shard accounts — and resets — its own meter without racing the
    others. *)

(** [charge n] adds [n] memory accesses to the running counter. *)
val charge : int -> unit

val reset : unit -> unit
val get : unit -> int

(** [meter ()] is the calling domain's count cell itself:
    [!(meter ())] is {!get}.  Looking it up costs the domain-local
    read that {!get} and {!charge} each repeat, so a hot loop on one
    domain reads the cell instead: a data-path frame of [Ip_core] looks
    it up once per frame and reads it before and after each
    classification, and a cold classification reads it around its
    filter walks.  Writing to the cell bypasses [enabled]; charge
    through {!charge}.  The cell must not be handed to another
    domain. *)
val meter : unit -> int ref

(** [measure f] runs [f ()] and returns its result together with the
    number of accesses charged during the call. *)
val measure : (unit -> 'a) -> 'a * int

(** [enabled] can be cleared to make [charge] a no-op during wall-clock
    benchmarking. *)
val set_enabled : bool -> unit

val is_enabled : unit -> bool
