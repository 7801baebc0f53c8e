(** Canned experiment topologies shared by the benchmarks, the tests,
    and the examples. *)

open Rp_pkt
open Rp_core

(** One router, [in_ifaces] ingress interfaces (ids [0 ..
    in_ifaces-1]), one egress interface (id [in_ifaces]) leading to a
    sink.  Destinations in 192.168.0.0/16 and 2001:db8::/32 are routed
    to the egress.  The router runs behind an engine of mode [engine]
    (default [Inline]; see {!Net.add_router}). *)
type t = {
  sim : Sim.t;
  node : Net.node;
  router : Router.t;
  sink : Sink.t;
  out_iface : int;
}

val single_router :
  ?mode:Router.mode -> ?gates:Gate.t list -> ?engine:Rp_engine.Engine.mode ->
  ?in_ifaces:int -> ?out_bandwidth_bps:int64 -> ?flow_max:int -> unit -> t

(** [add_flow t flow] installs a generator (see {!Traffic.install});
    returns the injected-count cell. *)
val add_flow : t -> Traffic.flow -> int ref

(** [run t ~seconds] runs the simulation for that much simulated
    time. *)
val run : t -> seconds:float -> unit

(** The canonical Table 3 workload: [flows] UDP flows of [pkt_len]-
    byte datagrams, [per_flow] packets each, injected back to back on
    interface 0. *)
val table3_workload :
  t -> ?flows:int -> ?per_flow:int -> ?pkt_len:int -> unit -> unit

(** Deterministic key for flow [id] destined to the scenario sink. *)
val sink_key : ?proto:int -> ?iface:int -> id:int -> unit -> Flow_key.t
