open Rp_pkt
open Rp_core
module D = Domain_ctx

type outcome =
  | Forwarded of int
  | Absorbed
  | Dropped of string

type result = {
  mutable m : Mbuf.t;
  mutable outcome : outcome;
  mutable faults : Fault.event list;
  mutable handoff : Ip_core.handoff;
}

type t = {
  ctx : Ip_core.ctx;
      (* Domain-private; written only by [sync] on the shard's own
         domain, after which only that domain reads it. *)
  m_flow_flushes : Rp_obs.Counter.t;
  m_delta_applies : Rp_obs.Counter.t;
  m_deltas_replayed : Rp_obs.Counter.t;
  seen_gen : int Atomic.t;
  cycles_acc : int Atomic.t;
  mutable route_stamp : int;  (* of the router table [ctx.routes] was built from *)
}

let ctx t = t.ctx
let seen_gen t = Atomic.get t.seen_gen
let cycles t = Atomic.get t.cycles_acc
let add_cycles t n = ignore (Atomic.fetch_and_add t.cycles_acc n)

(* Like [Ip_core]'s verdicts, one [Forwarded i] per interface. *)
let forwarded_on = Array.init 256 (fun i -> Forwarded i)

let outcome_of = function
  | Ip_core.Enqueued i ->
    if i >= 0 && i < Array.length forwarded_on then forwarded_on.(i)
    else Forwarded i
  | Ip_core.Delivered_local | Ip_core.Absorbed -> Absorbed
  | Ip_core.Dropped why -> Dropped why

let blank () =
  { m = Mbuf.dummy; outcome = Absorbed; faults = []; handoff = Ip_core.Settled }

(* The fault events queued since the previous result ride this one.
   A consumed slot holds no faults and a settled hand-off (the
   engine's [finish] leaves it so), and a field already holding its
   value is not written again: each write into a slot, which lives in
   the major heap, pays a write barrier. *)
let fill r (ctx : Ip_core.ctx) m verdict handoff =
  r.m <- m;
  let outcome = outcome_of verdict in
  if r.outcome != outcome then r.outcome <- outcome;
  if handoff != Ip_core.Settled then r.handoff <- handoff;
  match ctx.D.events with
  | [] -> ()
  | events ->
    ctx.D.events <- [];
    r.faults <- List.rev events

(* Adopt the whole-value state a snapshot always carries in full: the
   control record, the classifier mode (so a classifier toggle reaches
   shards on the delta path too, without invalidating their flow
   caches), and the routes — rebuilt only when the router's table
   changed, since a rebuilt table takes a fresh stamp and so retires
   every route cached in the shard's flow records. *)
let refresh_control t (snap : Snapshot.t) =
  let ctx = t.ctx in
  if snap.Snapshot.route_stamp <> t.route_stamp then begin
    let routes = Route_table.create () in
    List.iter (fun r -> Route_table.add routes r) snap.Snapshot.routes;
    ctx.D.routes <- routes;
    t.route_stamp <- snap.Snapshot.route_stamp
  end;
  ctx.D.control <- snap.Snapshot.control;
  Rp_classifier.Aiu.set_mode ctx.D.aiu snap.Snapshot.classifier

(* An empty AIU whose flow table is bounded as the router's is. *)
let flow_aiu (snap : Snapshot.t) =
  Rp_classifier.Aiu.create ~max_records:snap.Snapshot.flow_max
    ~gates:Gate.count ()

let apply t (snap : Snapshot.t) =
  let aiu = flow_aiu snap in
  Flow_export.install aiu;
  List.iter
    (fun (gate, filter, inst) -> Rp_classifier.Aiu.bind aiu ~gate filter inst)
    snap.Snapshot.bindings;
  (* Export the outgoing cache's flow records before dropping it, so a
     recompile never loses NetFlow accounting. *)
  Rp_classifier.Aiu.flush_flows t.ctx.D.aiu;
  t.ctx.D.aiu <- aiu;
  refresh_control t snap

(* Last, after the counters a sync bumps: [Engine.synced] reads
   [seen_gen], and a caller it answers must see the counts too. *)
let publish t (snap : Snapshot.t) = Atomic.set t.seen_gen snap.gen

let create ~index snap =
  let prefix = Printf.sprintf "engine.shard%d." index in
  let counter suffix = Rp_obs.Registry.counter (prefix ^ suffix) in
  let t =
    {
      ctx =
        D.create ~shard:index ~birth_clock:true
          ~aiu:(flow_aiu snap)
          ~routes:(Route_table.create ()) ~control:snap.Snapshot.control;
      m_flow_flushes = counter "flow_flushes";
      m_delta_applies = counter "delta_applies";
      m_deltas_replayed = counter "deltas_replayed";
      seen_gen = Atomic.make (-1);
      cycles_acc = Atomic.make 0;
      route_stamp = 0;
    }
  in
  apply t snap;
  publish t snap;
  t

let replay_delta t = function
  | Snapshot.Bind (gate, f, inst) -> Rp_classifier.Aiu.bind t.ctx.D.aiu ~gate f inst
  | Snapshot.Unbind (gate, f) -> Rp_classifier.Aiu.unbind t.ctx.D.aiu ~gate f
  | Snapshot.Flush -> Rp_classifier.Aiu.flush_flows t.ctx.D.aiu
  | Snapshot.Refresh -> ()

let sync t snap =
  let seen = Atomic.get t.seen_gen in
  if snap.Snapshot.gen <> seen then begin
    (* Deltas newer than our compiled state.  Generations in the log
       are consecutive, so the chain reaches back to [seen] exactly
       when one entry exists per missed generation; otherwise the log
       was trimmed or the snapshot carries none, and only a recompile
       is sound. *)
    let pending =
      List.filter (fun (g, _) -> g > seen) snap.Snapshot.deltas
    in
    if seen >= 0 && List.length pending = snap.Snapshot.gen - seen then begin
      (* Incremental path: replay the outstanding mutations on the
         private AIU.  Selective invalidation inside [Aiu.bind]/
         [Aiu.unbind] evicts only the flows the changed filters could
         match — unrelated flows keep their records and FIX fast
         path. *)
      List.iter (fun (_, d) -> replay_delta t d) pending;
      refresh_control t snap;
      Rp_obs.Counter.inc t.m_delta_applies;
      Rp_obs.Counter.add t.m_deltas_replayed (List.length pending)
    end
    else begin
      apply t snap;
      (* A recompile discards the private flow cache — same semantics
         as the single-domain AIU flush on any filter-table mutation. *)
      Rp_obs.Counter.inc t.m_flow_flushes
    end;
    publish t snap
  end
