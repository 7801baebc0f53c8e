(* Per-layer figures of a traced run.

   Three sources, none of them the timed router's hot path:
   - counter deltas over the traced run's timed phase (flow table,
     sessions, GC, gate and route-table counters);
   - replays on a replica router — built by the same set-up code from
     the same seed, warmed the same way, then fed the run's first
     timed batches — that time one public function at a time with the
     keys and destinations those batches carried;
   - the same traffic through the sharded engine (informational). *)

open Rp_pkt
open Rp_core
module Engine = Rp_engine.Engine
module Session = Rp_session.Session
module Ft = Rp_classifier.Flow_table

let clock = Run.clock
let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

(* Gates that run a handler (the scheduling gate only classifies). *)
let handler_gates r =
  List.filter
    (fun g -> Router.gate_enabled r g)
    (Ip_core.inline_gates_pre @ (Gate.Routing :: Ip_core.inline_gates_post))

type snap = {
  ft : Ft.stats;
  sess : Session.Table.stats option;
  gc : Gc.stat;
  route_lookups : int;
  gate_calls : int;
  queue_drops : int;
}

let snapshot (rig : Setup.rig) =
  {
    ft = Engine.shard_flow_stats rig.Setup.engine 0;
    sess = Option.map Session.Table.stats rig.Setup.sessions;
    gc = Gc.quick_stat ();
    route_lookups = counter "route_table.lookups";
    gate_calls =
      List.fold_left
        (fun acc g -> acc + Rp_obs.Counter.get (Gate.dispatch g))
        0 (handler_gates rig.Setup.router);
    queue_drops = counter "sched.drops" + counter "iface.fifo.drops";
  }

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Mean wall ns and minor words of [f] over [xs]. *)
let timed xs f =
  let n = Array.length xs in
  if n = 0 then (0.0, 0.0)
  else begin
    let w0 = Gc.minor_words () in
    let t0 = clock () in
    Array.iter f xs;
    let t1 = clock () in
    let w1 = Gc.minor_words () in
    (per (t1 - t0) n, (w1 -. w0) /. float_of_int n)
  end

type sample = { key : Flow_key.t; len : int; flags : int }

(* --- the replica ------------------------------------------------------- *)

let window_batches = 256

(* Build and warm a replica, feed it the run's first [window_batches]
   timed batches (preceded by the run's first control operation, if
   the workload has them), and keep each packet's ingress key. *)
let replica (w : Setup.workload) ~seed =
  let build, traffic = w.Setup.prepare ~seed in
  let rig = build Engine.Inline in
  let g = traffic () in
  let wm = Run.warm w rig g in
  if w.Setup.churn then rig.Setup.control 0;
  let samples = ref [] in
  let mt = Run.meter () and sp = Run.spans ~on:false in
  for _ = 1 to window_batches do
    Gen.fill_batch g ~n:Gen.batch;
    Array.iter
      (fun (s : Gen.slot) ->
        match Mbuf.of_bytes ~iface:s.Gen.iface s.Gen.buf with
        | Ok m ->
          samples :=
            { key = m.Mbuf.key; len = m.Mbuf.len; flags = m.Mbuf.tcp_flags }
            :: !samples
        | Error _ -> ())
      g.Gen.slots;
    ignore (Run.written rig g mt sp ~tg:(clock ()))
  done;
  (rig, Array.of_list (List.rev !samples), Gen.now g, (wm, mt))

(* Distinct keys, first occurrence order. *)
let distinct samples =
  let seen = Hashtbl.create 1024 in
  Array.of_list
    (List.filter
       (fun s ->
         if Hashtbl.mem seen s.key then false
         else begin
           Hashtbl.add seen s.key ();
           true
         end)
       (Array.to_list samples))

(* A flow never seen before: the sample's tuple with a fresh source
   port (the generators keep ports below 60000). *)
let cold_key i s = { s.key with Flow_key.sport = 60000 + (i mod 5000) }

let metrics_of_replica (w : Setup.workload) ~seed =
  let rig, samples, now, meters = replica w ~seed in
  let r = rig.Setup.router in
  let aiu = Router.aiu r in
  let ft = Rp_classifier.Aiu.flow_table aiu in
  let keys = distinct samples in
  let gates = handler_gates r in
  let first_gate = Gate.to_int (List.hd gates) in
  (* gates: each sample through every handler gate in path order, the
     first paying the flow lookup and the rest the FIX, as on the path *)
  let gate_ns, _ =
    timed samples (fun s ->
        let m = Mbuf.synth ~tcp_flags:s.flags ~key:s.key ~len:s.len () in
        List.iter (fun gate -> ignore (Ip_core.invoke_gate r ~now ~gate m)) gates)
  in
  let gate_ns = gate_ns /. float_of_int (List.length gates) in
  let lookup_ns, _ = timed keys (fun s -> ignore (Ft.lookup ft s.key ~now)) in
  let route_ns, route_words =
    timed samples (fun s -> ignore (Route_table.lookup r.Router.routes s.key.Flow_key.dst))
  in
  let resolve_ns =
    match rig.Setup.sessions with
    | None -> 0.0
    | Some t ->
      fst
        (timed samples (fun s ->
             ignore (Session.Table.resolve t ~create:false s.key ~now ~tcp_flags:0)))
  in
  (* cold classification: fresh keys, each a flow-table miss *)
  let cold = Array.mapi cold_key (Array.sub keys 0 (min 2048 (Array.length keys))) in
  let acc = ref 0 in
  let cold_ns, _ =
    timed cold (fun k ->
        let (), a =
          Rp_lpm.Access.measure (fun () ->
              ignore (Rp_classifier.Aiu.classify_key aiu k ~gate:first_gate ~now))
        in
        acc := !acc + a)
  in
  let cold_accesses = per !acc (Array.length cold) in
  (* scheduler: one batch at a time into the main egress queue, then
     out again; the flow binding comes from the scheduling gate when it
     is enabled, as on the data path *)
  let ifc = Router.iface r 1 in
  let sched_gate = Router.gate_enabled r Gate.Scheduling in
  let enq = ref 0 and deq = ref 0 and backlog = ref 0 and queued = ref 0 in
  let nb = Array.length samples / Gen.batch in
  for b = 0 to nb - 1 do
    let ms =
      Array.init Gen.batch (fun i ->
          let s = samples.((b * Gen.batch) + i) in
          let binding =
            if not sched_gate then None
            else
              Option.bind
                (Rp_classifier.Aiu.classify_key aiu s.key
                   ~gate:(Gate.to_int Gate.Scheduling) ~now)
                (fun (_, record) -> Ft.binding record ~gate:(Gate.to_int Gate.Scheduling))
          in
          (Mbuf.synth ~key:s.key ~len:s.len (), binding))
    in
    let t0 = clock () in
    Array.iter (fun (m, binding) -> if Iface.enqueue ifc ~now ~binding m then incr queued) ms;
    let t1 = clock () in
    backlog := max !backlog (Iface.backlog ifc);
    while Iface.dequeue ifc ~now <> None do
      ()
    done;
    let t2 = clock () in
    enq := !enq + (t1 - t0);
    deq := !deq + (t2 - t1)
  done;
  (* control operations, each followed by the first miss, which in
     compiled mode pays the deferred rebuild; numbering continues the
     run's, so binds and unbinds stay paired *)
  let ops = 4 in
  let op_ns = ref 0 and inval = ref 0 and rebuild_ns = ref 0 in
  let j0 = if w.Setup.churn then 1 else 0 in
  for j = j0 to j0 + ops - 1 do
    Array.iter (fun s -> ignore (Rp_classifier.Aiu.classify_key aiu s.key ~gate:first_gate ~now)) keys;
    let i0 = counter "flow_table.invalidated" in
    let t0 = clock () in
    rig.Setup.control j;
    let t1 = clock () in
    inval := !inval + (counter "flow_table.invalidated" - i0);
    let k = cold_key (10_000 + j) keys.(0) in
    let t2 = clock () in
    ignore (Rp_classifier.Aiu.classify_key aiu k ~gate:first_gate ~now);
    let t3 = clock () in
    op_ns := !op_ns + (t1 - t0);
    rebuild_ns := !rebuild_ns + (t3 - t2)
  done;
  Engine.stop rig.Setup.engine;
  ( [
      ("core.gate_ns", gate_ns);
      ("classifier.flow_lookup_ns", lookup_ns);
      ("classifier.cold_ns", cold_ns);
      ("classifier.cold_accesses", cold_accesses);
      ("classifier.rebuild_ms", per !rebuild_ns ops /. 1e6);
      ("control.op_us", per !op_ns ops /. 1e3);
      ("control.invalidated_per_op", per !inval ops);
      ("lpm.route_ns", route_ns);
      ("lpm.route_words", route_words);
      ("session.resolve_ns", resolve_ns);
      ("sched.enqueue_ns", per !enq !queued);
      ("sched.dequeue_ns", per !deq !queued);
      ("sched.backlog_max", float_of_int !backlog);
    ],
    meters )

(* --- the sharded engine -------------------------------------------------- *)

let sharded (w : Setup.workload) ~seed =
  let build, traffic = w.Setup.prepare ~seed in
  let rig = build (Engine.Sharded 1) in
  let g = traffic () in
  let wm = Run.warm w rig g in
  let a0 = counter "engine.shard0.delta_applies" in
  let mt = Run.meter () and sp = Run.spans ~on:false in
  ignore
    (Run.segments { w with Setup.segment = min w.Setup.segment 100_000 } rig g mt sp
       ~nseg:1);
  let applies = counter "engine.shard0.delta_applies" - a0 in
  Engine.stop rig.Setup.engine;
  ( [
      ("engine.sharded1_mpps", per mt.Run.pkts mt.Run.ns *. 1e3);
      ("engine.backpressure_frac", per mt.Run.rejected mt.Run.attempted);
      ("engine.drain_batch", per (mt.Run.pkts - mt.Run.rejected) mt.Run.drain_calls);
      ("engine.delta_applies_per_op", per applies mt.Run.ops);
    ],
    (wm, mt) )

(* --- everything together -------------------------------------------------- *)

(* [before]/[after] bracket the traced run's timed phase. *)
let metrics (w : Setup.workload) ~seed ~(mt : Run.meter) ~(sp : Run.spans) ~before
    ~after =
  let pkts = mt.Run.pkts in
  let ft0 = before.ft and ft1 = after.ft in
  let lookups = ft1.Ft.lookups - ft0.Ft.lookups in
  let gc0 = before.gc and gc1 = after.gc in
  let session =
    match (before.sess, after.sess) with
    | Some s0, Some s1 ->
      let cached = s1.Session.Table.cached_hits - s0.Session.Table.cached_hits in
      let looked = s1.Session.Table.lookups - s0.Session.Table.lookups in
      [
        ("session.cached_hit_ratio", per cached (cached + looked));
        ( "session.rewrites_per_pkt",
          per (s1.Session.Table.rewrites - s0.Session.Table.rewrites) pkts );
        ("session.live", float_of_int s1.Session.Table.live);
      ]
    | _ ->
      [
        ("session.cached_hit_ratio", 0.0);
        ("session.rewrites_per_pkt", 0.0);
        ("session.live", 0.0);
      ]
  in
  let dispatch_ns = per mt.Run.dispatch_ns pkts in
  let wall = sp.Run.last - sp.Run.first in
  let run_side =
    [
      ("pkt.parse_ns", per mt.Run.parse_ns pkts);
      ("pkt.parse_words", per mt.Run.parse_words pkts);
      ("core.dispatch_ns", dispatch_ns);
      ("core.dispatch_words", per mt.Run.dispatch_words pkts);
      ("classifier.flow_hit_ratio", per (ft1.Ft.hits - ft0.Ft.hits) lookups);
      ("classifier.recycled_per_kpkt", 1e3 *. per (ft1.Ft.recycled - ft0.Ft.recycled) pkts);
      ("classifier.chain_max", float_of_int ft1.Ft.chain_max);
      ("sched.drops", float_of_int (after.queue_drops - before.queue_drops));
      ( "gc.minor_per_kpkt",
        1e3 *. per (gc1.Gc.minor_collections - gc0.Gc.minor_collections) pkts );
      ( "gc.major_per_mpkt",
        1e6 *. per (gc1.Gc.major_collections - gc0.Gc.major_collections) pkts );
      ("gc.promoted_words_per_pkt", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. float_of_int (max 1 pkts));
      ("session.expire_us", per sp.Run.sums.(Run.k_expire) mt.Run.expiries /. 1e3);
      ("harness.gen_ns", per sp.Run.sums.(Run.k_gen) pkts);
      ( "trace.closure",
        per (Array.fold_left ( + ) 0 sp.Run.sums) wall );
      ("trace.overhead", per sp.Run.bookkeeping wall);
    ]
    @ session
  in
  let replica_side, (rw, rm) = metrics_of_replica w ~seed in
  let sharded_side, (sw, sm) = sharded w ~seed in
  let get k = List.assoc k replica_side in
  (* how much of the dispatch time the replayed layers explain *)
  let cover =
    let gates = per (after.gate_calls - before.gate_calls) pkts in
    let routes = per (after.route_lookups - before.route_lookups) pkts in
    ((gates *. get "core.gate_ns")
     +. (routes *. get "lpm.route_ns")
     +. get "sched.enqueue_ns" +. get "sched.dequeue_ns")
    /. dispatch_ns
  in
  (* the replica's and the sharded engine's packets face the oracle too *)
  let meters = [ rw; rm; sw; sm ] in
  ( run_side @ replica_side @ sharded_side @ [ ("trace.layer_cover", cover) ],
    List.fold_left (fun acc m -> acc + m.Run.attempted) 0 meters,
    List.fold_left (fun acc m -> acc + m.Run.failed) 0 meters )
