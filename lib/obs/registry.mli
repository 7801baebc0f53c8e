(** The process-wide metric registry.

    Every named metric of the data path lives here: modules create
    their counters/histograms at load time (so a dump always shows the
    full schema, zeros included), schedulers register per-instance
    depth gauges at instance creation, and the three export surfaces —
    [pmgr stats show], the [--metrics-out] flags, and tests — read the
    same table.

    Names are dotted lowercase paths ([flow_table.hits],
    [gate.routing.dispatch], [sched.drr.1.backlog]); dumps are sorted
    by name, so equal registry state yields byte-equal output. *)

type source =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

(** Get-or-create: the same name always returns the same counter.
    Raises [Invalid_argument] if the name is registered as another
    kind. *)
val counter : string -> Counter.t

(** Get-or-create; [bounds] is only used on first creation. *)
val histogram : ?bounds:int array -> string -> Histogram.t

(** Register (or replace) a callback gauge.  Replacement is deliberate:
    re-created plugin instances re-register under the same name. *)
val gauge : string -> (unit -> float) -> unit

(** Record a one-shot scalar (a bench result) as a constant gauge. *)
val set : string -> float -> unit

val find : string -> source option
val remove : string -> unit

(** Registered names containing [pattern] (substring; default all),
    sorted. *)
val names : ?pattern:string -> unit -> string list

(** Reset all counters and histograms; gauges are left alone.  Runs
    under the registry lock, and counter resets swap stripes
    atomically, so a concurrent {!dump} never observes a
    partially-reset registry. *)
val reset : unit -> unit

(** The integer schema version emitted in {!dump_json} (and mirrored
    in the ["rp-metrics/<n>"] schema string).  Bump on any change a
    consumer could notice, such as a metric name added or removed.  Version 4 dropped the per-shard gate and verdict
    counters: [gate.*] and [ip_core.*] are totals over all domains. *)
val schema_version : int

(** Text snapshot: one ["name value"] line per metric, sorted.
    Rendered under the registry lock (serialized against {!reset});
    gauge callbacks must not call back into the registry. *)
val dump : ?pattern:string -> unit -> string

(** JSON snapshot, schema [rp-metrics/4]: a ["schema_version"] field,
    then sorted keys one metric per line (so dumps diff cleanly and
    grep finds a metric); histograms include p50/p90/p99/p999
    from {!Histogram.quantile}.  Rendered under the registry lock. *)
val dump_json : ?pattern:string -> unit -> string

(** [write_json path] writes {!dump_json} to [path]. *)
val write_json : ?pattern:string -> string -> unit
