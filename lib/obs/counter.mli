(** Monotonic event counters — the data path's always-on meter.

    A counter is a small set of striped atomic cells; a domain
    increments the cell indexed by its own id, so increments are
    lock-free, never lost under concurrent domains (the sharded
    engine's requirement), and almost never contended.  [get] folds
    the stripes, so a read taken while other domains are incrementing
    is a momentary snapshot, not a serialization point.  Values wrap
    around on native-int overflow ([max_int + 1 = min_int]); at one
    increment per nanosecond that takes ~292 years on 64-bit, so
    overflow is a documented curiosity, not an error.

    Counters are normally obtained through {!Registry.counter}, which
    names them and includes them in dumps. *)

type t

(** An unregistered counter (tests, scratch use). *)
val make : string -> t

val name : t -> string
val inc : t -> unit
val add : t -> int -> unit
val get : t -> int

(** Atomically read-and-zero every stripe ([Atomic.exchange], not a
    read followed by a store) and return the removed total.  An
    increment racing the swap is either included in the returned total
    or survives into the next epoch — never lost — so resets are safe
    against concurrent [get]s and live data-path increments. *)
val swap : t -> int

(** [reset t] is [ignore (swap t)]. *)
val reset : t -> unit

(** {1 Batched increments}

    A [pending] tally sits in front of one counter and belongs to one
    domain (it is a plain mutable int, not atomic).  A hot loop [note]s
    its events into the tally and [settle]s it once per batch, so the
    counter takes one striped add per batch instead of one per event.
    Between [note] and [settle] the counter lags by the tally; the
    owner settles before anyone reads the counter for an exact value
    (see the data-path frames of [Ip_core]). *)

type pending

(** [pending c] is an empty tally in front of [c]. *)
val pending : t -> pending

(** [note p k] adds [k] to the tally; the counter does not move. *)
val note : pending -> int -> unit

(** [settle p] adds the tally to its counter (one {!add}, skipped when
    the tally is zero) and empties it. *)
val settle : pending -> unit
