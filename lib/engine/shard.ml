open Rp_pkt
open Rp_core
module D = Domain_ctx

type outcome =
  | Forwarded of int
  | Absorbed
  | Dropped of string

type result = {
  m : Mbuf.t;
  outcome : outcome;
  faults : Fault.event list;
  handoff : Ip_core.handoff;
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
}

let ctx t = t.ctx
let seen_gen t = Atomic.get t.seen_gen
let cycles t = Atomic.get t.cycles_acc
let add_cycles t n = ignore (Atomic.fetch_and_add t.cycles_acc n)

let outcome_of = function
  | Ip_core.Enqueued i -> Forwarded i
  | Ip_core.Delivered_local | Ip_core.Absorbed -> Absorbed
  | Ip_core.Dropped why -> Dropped why

(* The fault events queued since the previous result ride this one. *)
let result (ctx : Ip_core.ctx) m verdict handoff =
  let faults = List.rev ctx.D.events in
  if faults <> [] then ctx.D.events <- [];
  { m; outcome = outcome_of verdict; faults; handoff }

(* Refresh the cheap whole-value state a snapshot always carries in
   full: routes (rebuilt — route churn is orders of magnitude rarer
   than filter churn), the enabled-gate list, fault policy/budget, the
   hand-back tables, and the classifier mode (so a `pmgr classifier`
   toggle reaches shards on the delta path too, without invalidating
   their flow caches). *)
let refresh_control t (snap : Snapshot.t) =
  let ctx = t.ctx in
  let routes = Route_table.create () in
  List.iter (fun r -> Route_table.add routes r) snap.Snapshot.routes;
  ctx.D.routes <- routes;
  ctx.D.gates <- snap.gates;
  ctx.D.policy <- snap.policy;
  ctx.D.budget <- snap.budget;
  ctx.D.punts <- snap.punts;
  ctx.D.locals <- snap.locals;
  ctx.D.mtus <- snap.mtus;
  Rp_classifier.Aiu.set_mode ctx.D.aiu snap.Snapshot.classifier

let apply t (snap : Snapshot.t) =
  let aiu = Rp_classifier.Aiu.create ~gates:Gate.count () in
  Flow_export.install aiu;
  List.iter
    (fun (gate, filter, inst) -> Rp_classifier.Aiu.bind aiu ~gate filter inst)
    snap.Snapshot.bindings;
  (* Export the outgoing cache's flow records before dropping it, so a
     recompile never loses NetFlow accounting. *)
  Rp_classifier.Aiu.flush_flows t.ctx.D.aiu;
  t.ctx.D.aiu <- aiu;
  refresh_control t snap;
  Atomic.set t.seen_gen snap.gen

let create ~index snap =
  let prefix = Printf.sprintf "engine.shard%d." index in
  let counter suffix = Rp_obs.Registry.counter (prefix ^ suffix) in
  let t =
    {
      ctx =
        D.create ~shard:index ~birth_clock:true
          ~aiu:(Rp_classifier.Aiu.create ~gates:Gate.count ())
          ~routes:(Route_table.create ()) ~mtus:[||];
      m_flow_flushes = counter "flow_flushes";
      m_delta_applies = counter "delta_applies";
      m_deltas_replayed = counter "deltas_replayed";
      seen_gen = Atomic.make (-1);
      cycles_acc = Atomic.make 0;
    }
  in
  apply t snap;
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
       was trimmed (backlog overflow) or a publication intentionally
       broke the chain, and only a recompile is sound. *)
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
      Atomic.set t.seen_gen snap.gen;
      Rp_obs.Counter.inc t.m_delta_applies;
      Rp_obs.Counter.add t.m_deltas_replayed (List.length pending)
    end
    else begin
      apply t snap;
      (* A recompile discards the private flow cache — same semantics
         as the single-domain AIU flush on any filter-table mutation. *)
      Rp_obs.Counter.inc t.m_flow_flushes
    end
  end
