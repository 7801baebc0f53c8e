(** Cycle cost model, calibrated to the paper's measurement platform
    (a 233 MHz Pentium II — "P6/233" — with 60 ns memory).

    The paper reports its evaluation in processor cycles per packet
    (Table 3).  This module is the reproduction's analogue of the
    Pentium cycle counter: data-path components charge cycles as they
    run, and the benchmarks read the counter.  The per-operation
    constants are calibrated so the composed totals land where the
    paper's measurements do — e.g. a best-effort forward costs 6460
    cycles, the plugin framework with three gates adds ≈500, DRR adds
    ≈1650 — while the {e structure} of the charges (what is charged
    where) follows the actual code path taken. *)

val cpu_mhz : float
(** 233. *)

(** Constants (cycles). *)

val mem_access : int
(** 14 — one 60 ns memory access at 233 MHz (Table 2's conversion). *)

val flow_hash : int
(** 17 — the flow-table hash function (section 5.2). *)

val base_forward : int
(** 6460 — the unmodified best-effort kernel's per-packet path
    (device driver, header validation, route lookup, transmit). *)

val gate_invoke : int
(** 150 — one gate: the macro, the AIU/FIX dereference, and the
    indirect call into the plugin instance. *)

val monolithic_classifier : int
(** 250 — the ALTQ-style built-in classifier of the monolithic
    comparison kernel (slower hash; Table 3 discussion). *)

val drr_enqueue : int
val drr_dequeue : int
(** 750 / 700 — queue manipulation of the DRR scheduler; their sum is
    the ≈1650-cycle scheduling overhead visible in Table 3. *)

val hfsc_enqueue : int
val hfsc_dequeue : int
(** 1150 / 1100 — H-FSC's service-curve bookkeeping (the paper cites
    25-37 % overhead for H-FSC vs 20 % for DRR). *)

(** Counter.

    The counter is domain-local: each domain (e.g. an engine shard)
    charges and reads its own meter, so concurrent shards account
    their model cycles independently and without races.  [reset]/[get]
    likewise act on the calling domain's meter only. *)

val charge : int -> unit

(** [meter ()] is the calling domain's counter cell itself: [!(meter ())]
    is {!get}, and adding to it is {!charge}.  Looking the cell up is
    the one domain-local-storage read that every other function here
    repeats, so a hot loop that stays on one domain looks it up once
    and works on the cell: a data-path frame of [Ip_core] does so once
    per frame, and a plugin's own {!charge} during that frame still
    lands in the same cell, because a frame runs on one domain.  The
    cell must not be handed to another domain. *)
val meter : unit -> int ref

(** [charge_mem n] charges [n] memory accesses ([n * mem_access]
    cycles). *)
val charge_mem : int -> unit

val reset : unit -> unit
val get : unit -> int

(** [measure f] returns [f ()] and the cycles charged during the call. *)
val measure : (unit -> 'a) -> 'a * int

(** [ns_of_cycles c] converts to nanoseconds at {!cpu_mhz}. *)
val ns_of_cycles : int -> float

val us_of_cycles : int -> float
