(** End-to-end latency SLOs on the deterministic cost-model clock.

    The data path stamps each packet at ingress with its domain's
    [Cost] clock and reports the ingress→verdict cycle delta here
    (settled once per frame, see {!pending}), so
    latency is {e model} latency — reproducible run to run, and
    invisible to Table-3 because the clock is only read, never
    charged.  Observations land in per-shard histograms split by
    verdict class ([slo.shard<i>.<cls>.cycles]) plus one aggregate
    ([slo.latency.cycles]) that feeds the CSV p50/p99 columns.

    Configuring a threshold arms exemplar capture: packets breaching
    the SLO (or overflowing the top latency bucket) record their flow
    key, per-gate cycle attribution, and telemetry trace ref into
    bounded per-domain lock-free rings, read by [pmgr slo exemplars].
    Flow keys arrive pre-rendered as strings so obs stays free of
    lib/pkt dependencies. *)

type cls = Fwd | Absorb | Drop

val cls_name : cls -> string

(** Histogram bucket upper bounds (model cycles), shared by every
    latency histogram this module registers. *)
val latency_bounds : int array

(** Whether ingress stamping (and latency observation) is enabled.
    Default on. *)
val on : unit -> bool

val set_stamping : bool -> unit

(** The configured SLO threshold in model cycles; 0 = unset. *)
val get_threshold : unit -> int

val set_threshold : int -> unit

(** Exemplar capture is armed: stamping on and a threshold set.  Only
    then does the data path collect per-gate attribution. *)
val armed : unit -> bool

(** [is_breach cycles] — lands in the overflow latency bucket, or
    meets a configured threshold. *)
val is_breach : int -> bool

(** Record one ingress→verdict latency, at once. *)
val observe : shard:int -> cls -> int -> unit

(** {2 Per-frame settlement}

    The data path does not {!observe} per packet.  Each domain context
    holds one [pending]: plain tallies in front of the aggregate
    histogram and its shard's three class histograms
    ({!Histogram.pending}).  A frame [note]s every packet's latency
    and [settle]s once as it closes, so the histograms take a few
    atomic adds per frame instead of six per packet, and are exact
    between frames.  Exemplar capture is not deferred. *)

type pending

(** [pending ~shard] — empty tallies for [shard]'s histograms (the
    shard index is clamped as in {!observe}). *)
val pending : shard:int -> pending

(** [note p cls cycles] tallies one latency; no histogram moves. *)
val note : pending -> cls -> int -> unit

(** [settle p] moves every tally into its histogram. *)
val settle : pending -> unit

(** Shards with observations, as [(shard, class, histogram)] rows. *)
val shard_table : unit -> (int * cls * Histogram.t) list

type exemplar = {
  seq : int;  (** global capture order, 1-based *)
  shard : int;
  cls : cls;
  cycles : int;
  slo : int;  (** configured threshold at capture time *)
  key : string;  (** pre-rendered flow key *)
  gates : (string * int) list;  (** per-gate cycle attribution *)
  trace_pkt : int;  (** telemetry packet id, 0 when unsampled *)
}

(** Capture one breach exemplar into the calling domain's ring. *)
val capture :
  shard:int ->
  cls:cls ->
  cycles:int ->
  key:string ->
  gates:(string * int) list ->
  trace_pkt:int ->
  unit

(** Total breaches captured (the [slo.breaches] counter). *)
val breaches : unit -> int

(** Retained exemplars, newest first. *)
val exemplars : ?limit:int -> unit -> exemplar list

val clear_exemplars : unit -> unit
val exemplar_to_string : exemplar -> string
val status : unit -> string
