(* A per-domain data-path context: the state one domain's packets read
   while they cross {!Ip_core}, and the scratch of its batches.  The
   router owns one, with [owner] set, so router-owned stages run at
   once; each engine shard builds its own from the published snapshot,
   with no owner, and hands those stages back.  Every context writes the
   same process-wide meters.  ['r] is the router type, which holds a
   context. *)

open Rp_pkt

(* The router's control state the data path reads.  Immutable: the
   router's setters install a fresh record, so a record is its own
   stamp — a snapshot holding the router's current record (physically)
   is up to date, and a shard adopts the record it was published. *)
type control = {
  gates : Gate.t list;  (* enabled; empty in best-effort mode *)
  policy : Fault.policy;
  budget : int option;
  punts : int list;  (* protocols with a punt handler *)
  locals : Ipaddr.t list;
  mtus : int array;  (* by interface; never written *)
}

(* Scratch for one batch, by position: {!Ip_core}'s packet states, and
   what the states that set them carry; the running domain's {!Cost}
   and access meters, looked up once as the frame opens; and the one
   handler context every handler call of the frame is given, refilled
   before each call (a nested frame has its own). *)
type frame = {
  mutable cycles : int ref;
  mutable accesses : int ref;
  pkts : Mbuf.t array;  (* a batch of one lives here *)
  state : int array;
  out : int array;  (* egress interface *)
  why : string array;  (* drop reason *)
  icmp : Icmp.message array;  (* error the control domain originates *)
  sched : Plugin.t Rp_classifier.Flow_table.binding option array;
  now : int64 array;
  hctx : Plugin.ctx;
}

type 'r t = {
  mutable owner : 'r option;
  shard : int;  (* SLO histogram index *)
  slo : Rp_obs.Slo.pending;  (* this domain's latencies, settled per frame *)
  birth_clock : bool;  (* a packet's [now] is its [birth_ns] *)
  mutable aiu : Plugin.t Rp_classifier.Aiu.t;
  mutable routes : Route_table.t;
  mutable control : control;
  mutable events : Fault.event list;  (* newest first; owner-less only *)
  mutable outstanding : int list;  (* instances whose last call here faulted *)
  mutable frames : frame array;  (* by nesting depth *)
  mutable depth : int;
}

let batch = 32

let frame () =
  {
    cycles = ref 0;
    accesses = ref 0;
    pkts = Array.make batch Mbuf.dummy;
    state = Array.make batch 0;
    out = Array.make batch (-1);
    why = Array.make batch "";
    icmp = Array.make batch Icmp.Time_exceeded;
    sched = Array.make batch None;
    now = Array.make batch 0L;
    hctx = { Plugin.now_ns = 0L; binding = None };
  }

let create ~shard ~birth_clock ~aiu ~routes ~control =
  {
    owner = None;
    shard;
    slo = Rp_obs.Slo.pending ~shard;
    birth_clock;
    aiu;
    routes;
    control;
    events = [];
    outstanding = [];
    frames = [| frame () |];
    depth = 0;
  }
