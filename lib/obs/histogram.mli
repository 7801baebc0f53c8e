(** Fixed-bucket histograms for latency / cost distributions.

    Buckets are defined once by an array of strictly increasing
    integer upper bounds; a trailing overflow bucket catches
    everything above the last bound.  [observe] is a binary search
    over a handful of bounds plus three atomic increments, safe from
    concurrent domains (a read concurrent with observes may see
    total/sum/bucket momentarily out of step, but nothing is ever
    lost).  A per-packet path does not pay those atomics per event: it
    [note]s into a {!pending} tally and [settle]s once per batch.  The
    default bounds suit the repository's cycle cost model (hundreds to
    tens of thousands of cycles). *)

type t

val default_bounds : int array

(** [make ?bounds name] — raises [Invalid_argument] if [bounds] is
    empty or not strictly increasing. *)
val make : ?bounds:int array -> string -> t

val name : t -> string

(** Record one value (negative values land in the first bucket). *)
val observe : t -> int -> unit

(** {1 Batched observations}

    A [pending] tally sits in front of one histogram and belongs to
    one domain, in the shape of {!Counter.pending}: plain per-bucket
    counts plus the running total and sum.  [note] costs the bucket
    search and a few field bumps; [settle] adds the tallies to the
    histogram (one atomic add per nonzero bucket, plus total and sum)
    and empties them.  Between [note] and [settle] the histogram lags
    by the tally; the owner settles before anyone reads it for an
    exact value. *)

type pending

(** [pending h] is an empty tally in front of [h]. *)
val pending : t -> pending

(** [note p v] tallies one value; the histogram does not move. *)
val note : pending -> int -> unit

(** [settle p] adds the tallies to the histogram (nothing when empty)
    and empties them. *)
val settle : pending -> unit

(** Number of observations. *)
val total : t -> int

(** Sum of observed values. *)
val sum : t -> int

(** [quantile t q] estimates the [q]-quantile ([q] clamped to [0,1])
    by linear interpolation within the containing bucket: the rank's
    position inside the bucket maps linearly onto the bucket's value
    range, the first bucket's lower edge being 0.  Ranks landing in
    the overflow bucket report the last finite bound (a conservative
    lower bound).  Returns 0.0 for an empty histogram. *)
val quantile : t -> float -> float

val bounds : t -> int array

(** Per-bucket counts; length is [Array.length (bounds t) + 1], the
    last entry being the overflow bucket. *)
val counts : t -> int array

val reset : t -> unit
