(** Traffic sinks: terminal endpoints that collect per-flow delivery
    statistics (throughput, loss inferred by the caller, and one-way
    latency from the mbuf's birth timestamp, which each router's engine
    sets on arrival). *)

open Rp_pkt

type flow_stats = {
  mutable packets : int;
  mutable bytes : int;
  mutable first_ns : int64;
  mutable last_ns : int64;
  mutable latency_sum_ns : int64;
  mutable latency_max_ns : int64;
}

type t

val create : ?name:string -> unit -> t
val name : t -> string

(** Called by the network model on delivery. *)
val receive : t -> now:int64 -> Mbuf.t -> unit

val total_packets : t -> int

val flow : t -> Flow_key.t -> flow_stats option

(** All flows seen, unordered. *)
val flows : t -> (Flow_key.t * flow_stats) list

(** Mean and max one-way latency of a flow, seconds. *)
val latency : flow_stats -> float * float

(** Mean goodput of a flow in bits/sec over its active interval. *)
val goodput_bps : flow_stats -> float
