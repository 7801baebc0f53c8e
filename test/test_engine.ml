(* Tests for rp_engine: the SPSC ring (including with real producer /
   consumer domains), RSS shard stability, snapshot publication, and
   the sharded engine's fault path. *)

open Rp_pkt
open Rp_core
open Rp_engine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let int64_t = Alcotest.int64

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Spin until [pred] holds; domains are preemptively scheduled OS
   threads, so a bounded spin always observes a live worker's
   progress. *)
let wait ?(max_spins = 100_000_000) label pred =
  let spins = ref 0 in
  while (not (pred ())) && !spins < max_spins do
    incr spins;
    Domain.cpu_relax ()
  done;
  if not (pred ()) then Alcotest.failf "timeout waiting for %s" label

(* --- SPSC ring ------------------------------------------------------- *)

let test_spsc_capacity () =
  let q = Spsc.create ~capacity:5 ~dummy:(-1) in
  check int_t "rounded to power of two" 8 (Spsc.capacity q);
  for i = 0 to 7 do
    check bool_t "push below capacity" true (Spsc.push q i)
  done;
  check bool_t "push at capacity rejected" false (Spsc.push q 8);
  check int_t "length" 8 (Spsc.length q);
  (match Spsc.pop q with
   | Some 0 -> ()
   | _ -> Alcotest.fail "expected head element 0");
  check bool_t "push after pop" true (Spsc.push q 8);
  check bool_t "full again" false (Spsc.push q 9)

let spsc_fifo =
  qtest "fifo order, no loss/dup (single domain)"
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun xs ->
      let q = Spsc.create ~capacity:256 ~dummy:0 in
      List.iter (fun x -> assert (Spsc.push q x)) xs;
      let out = ref [] in
      let rec drain () =
        match Spsc.pop q with
        | Some x ->
          out := x :: !out;
          drain ()
        | None -> ()
      in
      drain ();
      List.rev !out = xs && Spsc.is_empty q)

let spsc_pop_batch =
  qtest "pop_batch = repeated pop"
    QCheck2.Gen.(
      pair (list_size (int_range 0 64) int) (int_range 1 16))
    (fun (xs, max) ->
      let q = Spsc.create ~capacity:64 ~dummy:0 in
      List.iter (fun x -> assert (Spsc.push q x)) xs;
      let dst = Array.make max 0 in
      let out = ref [] in
      let rec drain () =
        let n = Spsc.pop_batch q ~max dst in
        if n > 0 then begin
          for i = 0 to n - 1 do
            out := dst.(i) :: !out
          done;
          drain ()
        end
      in
      drain ();
      List.rev !out = xs)

(* Real producer and consumer domains: every element arrives exactly
   once, in order, through an intentionally small ring so wrap-around
   and full/empty transitions are exercised under contention. *)
let spsc_concurrent =
  qtest ~count:10 "fifo order, no loss/dup (two domains)"
    QCheck2.Gen.(pair (int_range 1 2000) (int_range 1 32))
    (fun (n, cap) ->
      let q = Spsc.create ~capacity:cap ~dummy:(-1) in
      let consumer =
        Domain.spawn (fun () ->
            let out = ref [] in
            let got = ref 0 in
            while !got < n do
              match Spsc.pop q with
              | Some x ->
                out := x :: !out;
                incr got
              | None -> Domain.cpu_relax ()
            done;
            List.rev !out)
      in
      for i = 0 to n - 1 do
        while not (Spsc.push q i) do
          Domain.cpu_relax ()
        done
      done;
      Domain.join consumer = List.init n Fun.id)

let spsc_concurrent_batched =
  qtest ~count:10 "batched consumer sees every element once (two domains)"
    QCheck2.Gen.(pair (int_range 1 2000) (int_range 1 32))
    (fun (n, cap) ->
      let q = Spsc.create ~capacity:cap ~dummy:(-1) in
      let consumer =
        Domain.spawn (fun () ->
            let dst = Array.make 8 (-1) in
            let out = ref [] in
            let got = ref 0 in
            while !got < n do
              let k = Spsc.pop_batch q ~max:8 dst in
              if k = 0 then Domain.cpu_relax ()
              else begin
                for i = 0 to k - 1 do
                  out := dst.(i) :: !out
                done;
                got := !got + k
              end
            done;
            List.rev !out)
      in
      for i = 0 to n - 1 do
        while not (Spsc.push q i) do
          Domain.cpu_relax ()
        done
      done;
      Domain.join consumer = List.init n Fun.id)

(* --- router / traffic helpers ---------------------------------------- *)

let mk_router ?(gates = Gate.all) () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~gates ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  r

let mk_pkt ?(sport = 1000) ?(dport = 9000) ?(dst = Ipaddr.v4 192 168 1 1) () =
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst ~proto:Proto.udp ~sport
      ~dport ~iface:0
  in
  Mbuf.synth ~key ~len:1000 ()

(* A plugin whose handler bumps an atomic hit counter — callable from
   worker domains. *)
let counting_plugin ~gate ~name =
  let hits = Atomic.make 0 in
  let pm : (module Plugin.PLUGIN) =
    (module struct
      let name = name
      let gate = gate
      let description = "atomic hit counter"

      let create_instance ~instance_id ~code ~config =
        Ok
          (Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
             (fun _ctx _m ->
               Atomic.incr hits;
               Plugin.Continue))

      let message _ _ = Error "no messages"
    end)
  in
  (pm, hits)

let bind_counting r ~gate ~name =
  let pm, hits = counting_plugin ~gate ~name in
  ok (Pcu.modload r.Router.pcu pm);
  let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
  (inst, hits)

let counter_get name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

(* --- shard stability -------------------------------------------------- *)

let key_gen =
  QCheck2.Gen.(
    let octet = int_range 0 255 in
    map
      (fun (((a, b), (c, d)), ((sport, dport), iface)) ->
        Flow_key.make ~src:(Ipaddr.v4 a b c d) ~dst:(Ipaddr.v4 d c b a)
          ~proto:Proto.udp ~sport ~dport ~iface)
      (pair
         (pair (pair octet octet) (pair octet octet))
         (pair (pair (int_range 0 65535) (int_range 0 65535)) (int_range 0 3))))

let shard_stability =
  qtest "shard choice is stable and in range"
    QCheck2.Gen.(pair key_gen (int_range 1 8))
    (fun (key, n) ->
      let s = Flow_key.hash key land max_int mod n in
      s >= 0 && s < n && s = Flow_key.hash key land max_int mod n)

let test_flows_stay_on_owning_shard () =
  let r = mk_router () in
  let e = Engine.create (Sharded 2) r in
  let flows = 64 and per_flow = 3 in
  for round = 1 to per_flow do
    ignore round;
    for f = 0 to flows - 1 do
      ignore (Engine.submit e ~now:0L (mk_pkt ~sport:(2000 + f) ()))
    done
  done;
  let drained = Engine.flush e ~f:(fun _ -> ()) in
  check int_t "all packets drained" (flows * per_flow) drained;
  (* Every flow key cached by a shard hashes to that shard: no
     cross-shard flow-state access is possible. *)
  for i = 0 to 1 do
    List.iter
      (fun key ->
        check int_t
          (Printf.sprintf "flow %s owned by shard %d" (Flow_key.to_string key) i)
          i
          (Flow_key.hash key land max_int mod 2))
      (Engine.shard_flow_keys e i)
  done;
  let cached =
    List.length (Engine.shard_flow_keys e 0)
    + List.length (Engine.shard_flow_keys e 1)
  in
  check int_t "every flow cached exactly once" flows cached;
  Engine.stop e

(* --- snapshot publication --------------------------------------------- *)

let test_unbind_stops_classification () =
  let r = mk_router () in
  let inst, hits = bind_counting r ~gate:Gate.Firewall ~name:"count-fw" in
  let flushes0 =
    counter_get "engine.shard0.flow_flushes"
    + counter_get "engine.shard1.flow_flushes"
  in
  let deltas0 =
    counter_get "engine.shard0.delta_applies"
    + counter_get "engine.shard1.delta_applies"
  in
  let e = Engine.create (Sharded 2) r in
  let pump n =
    for f = 0 to n - 1 do
      ignore (Engine.submit e ~now:0L (mk_pkt ~sport:(3000 + f) ()))
    done;
    Engine.flush e ~f:(fun _ -> ())
  in
  check int_t "first wave drained" 40 (pump 40);
  check int_t "every packet hit the bound instance" 40 (Atomic.get hits);
  (* Tear the binding down: the unbind is published before the next
     packet, so no packet may reach the old instance. *)
  ok
    (Pcu.deregister_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
  check int_t "second wave drained" 40 (pump 40);
  check int_t "no packet classified by the torn-down binding" 40
    (Atomic.get hits);
  (* The unbind travelled as a delta: each shard — an idle one too,
     once it syncs — replayed it on its private AIU instead of
     recompiling, so no shard flushed its flow cache. *)
  wait "shards to sync" (fun () -> Engine.synced e);
  let flushes =
    counter_get "engine.shard0.flow_flushes"
    + counter_get "engine.shard1.flow_flushes"
    - flushes0
  in
  let deltas =
    counter_get "engine.shard0.delta_applies"
    + counter_get "engine.shard1.delta_applies"
    - deltas0
  in
  check bool_t "each shard applied the unbind as a delta" true (deltas >= 2);
  check int_t "no shard recompiled (flow caches kept)" 0 flushes;
  Engine.stop e

let test_quarantine_while_draining () =
  let r = mk_router () in
  ok
    (Pcu.modload r.Router.pcu
       (Fault_plugin.make ~gate:Gate.Firewall ~name:"fault-fw"));
  let inst =
    ok
      (Pcu.create_instance r.Router.pcu ~plugin:"fault-fw"
         [ ("mode", "raise"); ("every", "1") ])
  in
  let id = inst.Plugin.instance_id in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:id
       (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
  let e = Engine.create (Sharded 2) r in
  let outcomes = Hashtbl.create 4 in
  let record (res : Shard.result) =
    let k =
      match res.Shard.outcome with
      | Shard.Forwarded _ -> "forwarded"
      | Shard.Absorbed -> "absorbed"
      | Shard.Dropped _ -> "dropped"
    in
    Hashtbl.replace outcomes k (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k))
  in
  let threshold = Pcu.quarantine_threshold r.Router.pcu in
  (* Enough faulting packets on each shard to cross the threshold. *)
  for f = 0 to (4 * threshold) - 1 do
    ignore (Engine.submit e ~now:0L (mk_pkt ~sport:(4000 + f) ()))
  done;
  ignore (Engine.flush e ~f:record);
  check bool_t "instance auto-quarantined from the drain path" true
    (Pcu.is_quarantined r.Router.pcu id);
  (* The quarantine's unbind is published before the next packet, which
     takes the gate's default path and forwards. *)
  Hashtbl.reset outcomes;
  for f = 0 to 19 do
    ignore (Engine.submit e ~now:0L (mk_pkt ~sport:(6000 + f) ()))
  done;
  ignore (Engine.flush e ~f:record);
  check int_t "all packets forward once quarantined" 20
    (Option.value ~default:0 (Hashtbl.find_opt outcomes "forwarded"));
  Engine.stop e

(* --- control-plane churn ----------------------------------------------- *)

(* Selective invalidation keeps the FIX fast path for unrelated flows:
   after a filter change matching half the flows, exactly those flows
   take one stale-FIX reclassification and the rest keep hitting. *)
let test_selective_invalidation_keeps_fast_path () =
  let r = mk_router () in
  ignore (bind_counting r ~gate:Gate.Firewall ~name:"fix-fw");
  let e = Engine.create Inline r in
  (* Eight persistent mbufs (so the FIX survives between submissions);
     half the flows target 192.168.1.x, half 192.168.2.x. *)
  let mbufs =
    Array.init 8 (fun f ->
        let dst =
          if f < 4 then Ipaddr.v4 192 168 1 (1 + f)
          else Ipaddr.v4 192 168 2 (1 + f)
        in
        mk_pkt ~sport:(10_000 + f) ~dst ())
  in
  let pump () =
    Array.iter (fun m -> assert (Engine.submit e ~now:0L m)) mbufs;
    ignore (Engine.flush e ~f:(fun _ -> ()))
  in
  pump ();
  let stale_warm = counter_get "aiu.fix_stale" in
  pump ();
  check int_t "warm flows never reclassify" 0
    (counter_get "aiu.fix_stale" - stale_warm);
  (* Bind a filter matching only the 192.168.1.x flows. *)
  let pm, _ = counting_plugin ~gate:Gate.Firewall ~name:"fix-fw2" in
  ok (Pcu.modload r.Router.pcu pm);
  let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:"fix-fw2" []) in
  let inv0 = counter_get "flow_table.invalidated" in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4
          ~dst:(Prefix.of_string "192.168.1.0/24")
          ()));
  check int_t "only the matching flows were invalidated" 4
    (counter_get "flow_table.invalidated" - inv0);
  let stale0 = counter_get "aiu.fix_stale" in
  let hits0 = counter_get "aiu.fix_hits" in
  pump ();
  check int_t "stale FIXes = invalidated flows, nothing else" 4
    (counter_get "aiu.fix_stale" - stale0);
  check bool_t "unrelated flows kept their fast path" true
    (counter_get "aiu.fix_hits" - hits0 >= 4);
  Engine.stop e

(* Random churn equivalence: the same script of
   bind/unbind/quarantine/restore commands interleaved with traffic,
   driven against an inline engine and a sharded delta-replaying one,
   must deliver exactly the same packets to the same instances — and
   the sharded side must never fall back to a recompile. *)
let churn_equivalence_with ~name ~classifier =
  qtest ~count:20 name
    QCheck2.Gen.(
      list_size (int_range 1 25) (pair (int_bound 5) (int_bound 3)))
    (fun script ->
      let filters =
        [|
          Rp_classifier.Filter.v4 ~proto:Proto.udp ();
          Rp_classifier.Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") ();
          Rp_classifier.Filter.v4 ~dst:(Prefix.of_string "192.168.0.0/16") ();
          Rp_classifier.Filter.v4
            ~src:(Prefix.of_string "10.0.0.0/8")
            ~dst:(Prefix.of_string "192.168.1.0/24")
            ();
        |]
      in
      let mk_side ~classifier mode =
        let r = mk_router () in
        Rp_classifier.Aiu.set_mode (Router.aiu r) classifier;
        let insts = Array.make 4 0 in
        let hits = Array.make 4 (Atomic.make 0) in
        Array.iteri
          (fun i _ ->
            let name = Printf.sprintf "churn-%d" i in
            let pm, h = counting_plugin ~gate:Gate.Firewall ~name in
            ok (Pcu.modload r.Router.pcu pm);
            let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
            insts.(i) <- inst.Plugin.instance_id;
            hits.(i) <- h)
          filters;
        let e = Engine.create mode r in
        let mbufs = Array.init 8 (fun f -> mk_pkt ~sport:(20_000 + f) ()) in
        (r, e, insts, hits, mbufs)
      in
      let inline = mk_side ~classifier:`Per_gate Inline
      and sharded = mk_side ~classifier (Sharded 2) in
      let flushes0 =
        counter_get "engine.shard0.flow_flushes"
        + counter_get "engine.shard1.flow_flushes"
      in
      let stale0 = counter_get "aiu.fix_stale" in
      let gone0 =
        counter_get "flow_table.evictions"
        + counter_get "flow_table.recycled"
        + counter_get "flow_table.expired"
      in
      (* Mirror of the script-visible control state, applied
         identically to both sides so every command is legal. *)
      let bound = Array.make 4 false and quar = Array.make 4 false in
      let apply (r, e, insts, _, mbufs) (cmd, slot) =
        let pcu = r.Router.pcu in
        let id = insts.(slot) in
        (match cmd with
         | 0 when (not quar.(slot)) && not bound.(slot) ->
           ok (Pcu.register_instance pcu ~instance:id filters.(slot))
         | 1 when (not quar.(slot)) && bound.(slot) ->
           ok (Pcu.deregister_instance pcu ~instance:id filters.(slot))
         | 2 when not quar.(slot) -> ok (Pcu.quarantine pcu id)
         | 3 when quar.(slot) -> ok (Pcu.restore pcu id)
         | 4 | 5 ->
           for f = 0 to (2 * slot) + 1 do
             assert (Engine.submit e ~now:0L mbufs.(f))
           done;
           ignore (Engine.flush e ~f:(fun _ -> ()))
         | _ -> ())
      in
      List.iter
        (fun ((cmd, slot) as c) ->
          apply inline c;
          apply sharded c;
          (match cmd with
           | 0 when (not quar.(slot)) && not bound.(slot) ->
             bound.(slot) <- true
           | 1 when (not quar.(slot)) && bound.(slot) -> bound.(slot) <- false
           | 2 when not quar.(slot) -> quar.(slot) <- true
           | 3 when quar.(slot) -> quar.(slot) <- false
           | _ -> ()))
        script;
      let (_, ei, _, hi, _) = inline and (_, es, _, hs, _) = sharded in
      let same =
        Array.for_all2 (fun a b -> Atomic.get a = Atomic.get b) hi hs
      in
      let flushes =
        counter_get "engine.shard0.flow_flushes"
        + counter_get "engine.shard1.flow_flushes"
        - flushes0
      in
      let stale = counter_get "aiu.fix_stale" - stale0 in
      let gone =
        counter_get "flow_table.evictions"
        + counter_get "flow_table.recycled"
        + counter_get "flow_table.expired"
        - gone0
      in
      Engine.stop ei;
      Engine.stop es;
      same && flushes = 0 && stale <= gone)

let churn_equivalence =
  churn_equivalence_with
    ~name:"sharded delta verdicts = inline verdicts (random churn)"
    ~classifier:`Per_gate

(* The sharded side resolves cold starts through the compiled
   cross-gate structure (rebuilt incrementally from the same delta
   replays) while the inline side walks per-gate DAGs: the two modes
   must be observationally identical through the whole engine. *)
let churn_equivalence_compiled =
  churn_equivalence_with
    ~name:"sharded compiled verdicts = inline per-gate verdicts (churn)"
    ~classifier:`Compiled

(* Engine-level flow maintenance (expire_flows / flush_flows) is
   observationally identical between the inline engine and sharded:4:
   under random interleavings of traffic bursts, expiry passes and
   full flushes, plugin hit counts, expiry totals and the live flow
   population all agree — the shards just partition one table. *)
let prop_flow_maintenance_equivalence =
  qtest ~count:25 "sharded:4 flow maintenance = inline (random interleavings)"
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_bound 3) (int_bound 7)))
    (fun script ->
      let mk_side tag mode =
        let r = mk_router () in
        let _inst, hits =
          bind_counting r ~gate:Gate.Firewall ~name:("maint-" ^ tag)
        in
        let e = Engine.create mode r in
        let mbufs = Array.init 16 (fun f -> mk_pkt ~sport:(30_000 + f) ()) in
        (e, hits, mbufs)
      in
      let ei, hi, mi = mk_side "i" Inline in
      let es, hs, ms = mk_side "s" (Sharded 4) in
      let flows e nshards =
        let s = ref 0 in
        for i = 0 to nshards - 1 do
          s := !s + Engine.shard_flow_count e i
        done;
        !s
      in
      let now = ref 0L in
      let good = ref true in
      (* Returns the expiry count for expire ops, -1 otherwise; both
         sides must return the same value for every op.  Maintenance
         runs only on a drained engine (the idle-only contract). *)
      let step e mbufs (cmd, arg) =
        match cmd with
        | 0 | 1 ->
          for f = 2 * arg to (2 * arg) + 1 do
            assert (Engine.submit e ~now:!now mbufs.(f))
          done;
          ignore (Engine.flush e ~f:(fun _ -> ()));
          -1
        | 2 ->
          ignore (Engine.flush e ~f:(fun _ -> ()));
          Engine.expire_flows e ~now:!now ~idle_ns:100L
        | _ ->
          ignore (Engine.flush e ~f:(fun _ -> ()));
          Engine.flush_flows e;
          -1
      in
      List.iter
        (fun c ->
          now := Int64.add !now 30L;
          let a = step ei mi c in
          let b = step es ms c in
          if a <> b then good := false;
          if flows ei 1 <> flows es 4 then good := false)
        script;
      let same_hits = Atomic.get hi = Atomic.get hs in
      Engine.stop ei;
      Engine.stop es;
      !good && same_hits)

(* Switching the classifier mode on a live engine travels to the
   shards as an ordinary publication (a bare [Refresh] delta) before
   the next packet, whose cold start goes through the compiled
   structure. *)
let test_compiled_mode_propagates () =
  let r = mk_router () in
  let _inst, hits = bind_counting r ~gate:Gate.Firewall ~name:"cmp-prop" in
  let e = Engine.create (Sharded 2) r in
  Rp_classifier.Aiu.set_mode (Router.aiu r) `Compiled;
  let walks0 = counter_get "aiu.compiled_walks" in
  for f = 0 to 7 do
    assert (Engine.submit e ~now:0L (mk_pkt ~sport:(26_000 + f) ()))
  done;
  ignore (Engine.flush e ~f:(fun _ -> ()));
  check bool_t "plugin saw traffic" true (Atomic.get hits > 0);
  check bool_t "shards resolved cold starts via the compiled structure" true
    (counter_get "aiu.compiled_walks" - walks0 > 0);
  (* And back: per-gate mode resumes full DAG walks. *)
  Rp_classifier.Aiu.set_mode (Router.aiu r) `Per_gate;
  let walks1 = counter_get "aiu.compiled_walks" in
  for f = 0 to 7 do
    assert (Engine.submit e ~now:0L (mk_pkt ~sport:(27_000 + f) ()))
  done;
  ignore (Engine.flush e ~f:(fun _ -> ()));
  check int_t "no compiled walks in per-gate mode" 0
    (counter_get "aiu.compiled_walks" - walks1);
  Engine.stop e

(* Charge parity through the one classify-and-charge entry point
   ([Rp_core.Ip_core.classify]): the router's control AIU and a
   shard-style AIU rebuilt from a snapshot must charge byte-identical
   cycles for the same traffic, cold and warm, in both classifier
   modes, or the two engines' model figures drift apart. *)
let test_classify_charge_parity () =
  let run classifier =
    let r = mk_router () in
    let _inst, _hits = bind_counting r ~gate:Gate.Firewall ~name:"chg" in
    Rp_classifier.Aiu.set_mode (Router.aiu r) classifier;
    (* Rebuild a private AIU from the snapshot, the way Shard.compile
       does: same bindings, same mode. *)
    let snap = Snapshot.capture ~gen:0 r in
    let aiu = Rp_classifier.Aiu.create ~gates:Gate.count () in
    List.iter
      (fun (g, f, inst) -> Rp_classifier.Aiu.bind aiu ~gate:g f inst)
      snap.Snapshot.bindings;
    Rp_classifier.Aiu.set_mode aiu snap.Snapshot.classifier;
    let charge aiu m =
      let c0 = Cost.get () in
      ignore (Ip_core.classify aiu ~now:0L ~gate:Gate.Firewall m);
      Cost.get () - c0
    in
    let m1 = mk_pkt ~sport:28_000 () and m2 = mk_pkt ~sport:28_000 () in
    let cold_r = charge (Router.aiu r) m1 in
    let cold_s = charge aiu m2 in
    check int_t "cold-start charges identical (router vs shard AIU)"
      cold_r cold_s;
    let warm_r = charge (Router.aiu r) m1 in
    let warm_s = charge aiu m2 in
    check int_t "warm (FIX) charges identical" warm_r warm_s;
    check bool_t "warm below cold" true (warm_r < cold_r);
    cold_r
  in
  let pergate = run `Per_gate in
  let compiled = run `Compiled in
  check bool_t "compiled cold start charges no more than per-gate" true
    (compiled <= pergate)

(* More mutations between two publications than the 64-entry delta log
   holds break the chain: the next publication recompiles the shard
   once, and the chain heals after.  64 stay replayable. *)
let test_backlog_overflow_recompiles () =
  let r = mk_router () in
  let e = Engine.create (Sharded 1) r in
  let flushes () = counter_get "engine.shard0.flow_flushes" in
  let applies () = counter_get "engine.shard0.delta_applies" in
  let f0 = flushes () in
  let pm, _ = counting_plugin ~gate:Gate.Firewall ~name:"bl" in
  ok (Pcu.modload r.Router.pcu pm);
  let id = (ok (Pcu.create_instance r.Router.pcu ~plugin:"bl" [])).Plugin.instance_id in
  let filt i =
    Rp_classifier.Filter.v4
      ~src:(Prefix.make (Ipaddr.v4 10 (i / 256) (i mod 256) 0) 24)
      ()
  in
  (* 65 mutations, no packet in between. *)
  for i = 0 to 64 do
    ok (Pcu.register_instance r.Router.pcu ~instance:id (filt i))
  done;
  wait "overflow publish" (fun () -> Engine.synced e);
  check int_t "overflow forced one recompile" 1 (flushes () - f0);
  (* 64 more: the log still reaches back, so the shard replays them. *)
  let d0 = applies () in
  for i = 1 to 64 do
    ok (Pcu.deregister_instance r.Router.pcu ~instance:id (filt i))
  done;
  wait "healed chain" (fun () -> Engine.synced e);
  check bool_t "chain healed: 64 unbinds replayed as deltas" true (applies () - d0 >= 1);
  check int_t "no further recompile" 1 (flushes () - f0);
  Engine.stop e

(* --- inline mode ------------------------------------------------------ *)

let test_inline_engine_matches_ip_core () =
  let r = mk_router () in
  let e = Engine.create Inline r in
  check int_t "one logical shard" 1 (Engine.shards e);
  for f = 0 to 9 do
    check bool_t "inline submit accepts" true
      (Engine.submit e ~now:0L (mk_pkt ~sport:(7000 + f) ()))
  done;
  let fwd = ref 0 in
  let n =
    Engine.drain e ~f:(fun res ->
        match res.Shard.outcome with
        | Shard.Forwarded 1 -> incr fwd
        | _ -> Alcotest.fail "inline verdict differs from ip_core")
  in
  check int_t "all results drained" 10 n;
  check int_t "all forwarded to if1" 10 !fwd;
  (* Same traffic straight through Ip_core on a fresh router agrees. *)
  let r2 = mk_router () in
  (match Ip_core.process r2 ~now:0L (mk_pkt ~sport:7000 ()) with
   | Ip_core.Enqueued 1 -> ()
   | v -> Alcotest.failf "direct path: %a" Ip_core.pp_verdict v);
  Engine.stop e

(* [flow_max] bounds every flow table the router's packets meet: three
   UDP flows through a two-record router leave two records and count
   recycles, on the inline table and on a shard's alike.  (A shard that
   takes the three in one frame recycles more than once: each packet's
   gates re-insert the flow a later packet recycled.) *)
let test_flow_max_bounds_shards mode () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~flow_max:2 ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let e = Engine.create mode r in
  for f = 0 to 2 do
    assert (Engine.submit e ~now:0L (mk_pkt ~sport:(13_000 + f) ()))
  done;
  check int_t "all forwarded" 3 (Engine.flush e ~f:(fun _ -> ()));
  check int_t "two records" 2 (Engine.shard_flow_count e 0);
  check bool_t "recycled" true
    ((Engine.shard_flow_stats e 0).Rp_classifier.Flow_table.recycled >= 1);
  Engine.stop e

(* --- counter consistency under concurrency ---------------------------- *)

let test_counter_consistency () =
  let r = mk_router () in
  (* The [packets=N] field of the first line of [pmgr top]. *)
  let top_packets () =
    let out = ok (Rp_control.Pmgr.exec r "top") in
    Scanf.sscanf out "packets=%d" Fun.id
  in
  let submitted0 = counter_get "engine.submitted" in
  let drained0 = counter_get "engine.drained" in
  let packets0 = counter_get "ip_core.packets" and top0 = top_packets () in
  let rx0 = counter_get "engine.shard0.rx" + counter_get "engine.shard1.rx" in
  let e = Engine.create (Sharded 2) r in
  let accepted = ref 0 in
  for f = 0 to 199 do
    if Engine.submit e ~now:0L (mk_pkt ~sport:(8000 + f) ()) then incr accepted
  done;
  ignore (Engine.flush e ~f:(fun _ -> ()));
  let rx = counter_get "engine.shard0.rx" + counter_get "engine.shard1.rx" - rx0 in
  check int_t "sum of shard rx = accepted submissions" !accepted rx;
  check int_t "submitted counter = accepted" !accepted
    (counter_get "engine.submitted" - submitted0);
  check int_t "drained = dispatched (tx rings kept up)" !accepted
    (counter_get "engine.drained" - drained0);
  check int_t "ip_core.packets counts every domain" !accepted
    (counter_get "ip_core.packets" - packets0);
  check int_t "pmgr top packets= counts every domain" !accepted
    (top_packets () - top0);
  Engine.stop e

(* The per-packet registry counters the data path adds once per frame
   (flow table, AIU, route cache, receive) or once per drain call
   ([engine.drained]) must be exact once the engine is flushed: each
   delta equals what the traffic implies.  [flows] flows, each sent
   [per_flow] times with a distinct length, every packet forwarded
   through all eight gates: a flow's first packet misses the flow table
   and walks the routes, later ones hit both caches, and every gate
   after the first reads the packet's FIX.  Then a direct library call,
   outside any frame, moves its counter at once. *)
let test_batched_counters_exact () =
  let names =
    [ "flow_table.lookups"; "flow_table.hits"; "flow_table.misses";
      "flow_table.accounted_packets"; "flow_table.accounted_bytes";
      "aiu.fix_hits"; "route_table.cache_hits"; "route_table.lookups";
      "iface.rx_packets"; "iface.rx_bytes"; "engine.drained" ]
  in
  let snapshot () = List.map (fun n -> (n, counter_get n)) names in
  let delta before name = counter_get name - List.assoc name before in
  let flows = 10 and per_flow = 7 in
  let n = flows * per_flow in
  let len i = 100 + i in
  let bytes = List.fold_left ( + ) 0 (List.init n len) in
  List.iter
    (fun mode ->
      let label = Engine.mode_to_string mode in
      let r = mk_router () in
      let _inst, _hits = bind_counting r ~gate:Gate.Firewall ~name:"exact" in
      let e = Engine.create mode r in
      let before = snapshot () in
      let pkts =
        Array.init n (fun i ->
            let key =
              Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
                ~proto:Proto.udp ~sport:(11_000 + (i mod flows)) ~dport:9000 ~iface:0
            in
            Mbuf.synth ~key ~len:(len i) ())
      in
      let forwarded = ref 0 in
      let count (res : Shard.result) =
        match res.Shard.outcome with Shard.Forwarded _ -> incr forwarded | _ -> ()
      in
      let off = ref 0 in
      while !off < n do
        let k = min 16 (n - !off) in
        check int_t (label ^ ": batch accepted") k
          (Engine.submit_batch e ~now:0L (Array.sub pkts !off k) ~n:k);
        ignore (Engine.drain e ~f:count);
        off := !off + k
      done;
      ignore (Engine.flush e ~f:count);
      Engine.stop e;
      let d = delta before and is name v = check int_t (label ^ ": " ^ name) v in
      is "every packet forwarded" n !forwarded;
      is "flow_table.lookups" n (d "flow_table.lookups");
      is "flow_table.misses" flows (d "flow_table.misses");
      is "flow_table.hits" (n - flows) (d "flow_table.hits");
      is "flow_table.accounted_packets" !forwarded (d "flow_table.accounted_packets");
      is "flow_table.accounted_bytes" bytes (d "flow_table.accounted_bytes");
      is "aiu.fix_hits" ((Gate.count - 1) * n) (d "aiu.fix_hits");
      is "route_table.lookups" flows (d "route_table.lookups");
      is "route_table.cache_hits" (n - flows) (d "route_table.cache_hits");
      is "iface.rx_packets" n (d "iface.rx_packets");
      is "iface.rx_bytes" bytes (d "iface.rx_bytes");
      is "engine.drained" n (d "engine.drained");
      (* Direct calls on the router's own tables, outside any frame.  On
         the inline engine the last packet's FIX and cached route are
         the router's. *)
      if mode = Engine.Inline then begin
        let m = pkts.(n - 1) in
        let aiu = Router.aiu r in
        let ft = Rp_classifier.Aiu.flow_table aiu in
        let once name f =
          let b = snapshot () in
          f ();
          is ("direct " ^ name) 1 (delta b name)
        in
        once "flow_table.lookups" (fun () ->
            ignore (Rp_classifier.Flow_table.lookup ft m.Mbuf.key ~now:1L));
        once "flow_table.hits" (fun () ->
            ignore (Rp_classifier.Flow_table.lookup ft m.Mbuf.key ~now:1L));
        once "route_table.cache_hits" (fun () ->
            is "cached route" 1 (Route_table.resolve r.Router.routes ft m));
        once "aiu.fix_hits" (fun () ->
            ignore (Rp_classifier.Aiu.classify aiu m ~gate:1 ~now:1L));
        once "flow_table.accounted_packets" (fun () ->
            Rp_classifier.Flow_table.account ft m ~verdict:`Fwd);
        once "iface.rx_packets" (fun () -> Iface.count_rx (Router.iface r 0) m)
      end)
    [ Engine.Inline; Engine.Sharded 1; Engine.Sharded 2 ]

(* --- telemetry on worker domains -------------------------------------- *)

(* Workers write their own event rings and account flows in their
   domain-private tables; after stop + flush_flows, the exported flow
   records must cover every dispatched packet and the trace must be
   loadable JSON with per-gate spans. *)
let test_sharded_telemetry () =
  let r = mk_router () in
  Rp_core.Flow_export.clear ();
  Rp_obs.Telemetry.enable ~every:1;
  let acc0 = counter_get "flow_table.accounted_packets" in
  let e = Engine.create (Sharded 2) r in
  let flows = 16 and per_flow = 5 in
  for f = 0 to flows - 1 do
    for _ = 1 to per_flow do
      while not (Engine.submit e ~now:0L (mk_pkt ~sport:(9100 + f) ())) do
        ignore (Engine.drain e ~f:(fun _ -> ()))
      done
    done
  done;
  ignore (Engine.flush e ~f:(fun _ -> ()));
  Rp_obs.Telemetry.disable ();
  Engine.stop e;
  Engine.flush_flows e;
  let records = Rp_core.Flow_export.drain () in
  let pkts =
    List.fold_left (fun a fr -> a + fr.Rp_core.Flow_export.packets) 0 records
  in
  check int_t "flow records cover every dispatched packet"
    (flows * per_flow) pkts;
  check int_t "and agree with the accounting counter" pkts
    (counter_get "flow_table.accounted_packets" - acc0);
  check bool_t "worker rings recorded events" true
    (Rp_obs.Telemetry.recorded () > 0);
  let json =
    Rp_obs.Telemetry.to_chrome_json ~gate_name:(fun g ->
        match Gate.of_int g with Some g -> Gate.name g | None -> "?")
      ()
  in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i =
      i + nl <= hl && (String.sub hay i nl = needle || at (i + 1))
    in
    at 0
  in
  check bool_t "trace has per-gate complete spans" true
    (contains ~needle:"\"name\":\"gate.ip-options\"" json
    && contains ~needle:"\"ph\":\"X\"" json);
  Rp_obs.Telemetry.clear ()

(* --- batched submit ---------------------------------------------------- *)

(* submit_batch on the inline engine must behave exactly like a
   per-packet submit loop: same acceptance, same drained results, same
   plugin invocations. *)
let test_submit_batch_inline_equiv () =
  let run ~batched =
    let r = mk_router () in
    let _, hits =
      bind_counting r ~gate:Gate.Firewall
        ~name:(if batched then "count-batched" else "count-seq")
    in
    let e = Engine.create Inline r in
    let pkts = Array.init 32 (fun f -> mk_pkt ~sport:(30_000 + f) ()) in
    let accepted =
      if batched then Engine.submit_batch e ~now:0L pkts ~n:32
      else
        Array.fold_left
          (fun acc m -> if Engine.submit e ~now:0L m then acc + 1 else acc)
          0 pkts
    in
    let drained = Engine.flush e ~f:(fun _ -> ()) in
    Engine.stop e;
    (accepted, drained, Atomic.get hits)
  in
  let seq = run ~batched:false in
  let batched = run ~batched:true in
  check
    (Alcotest.triple int_t int_t int_t)
    "batched = sequential (accepted, drained, plugin hits)" seq batched

(* Pool-backed batches through the sharded engine: every packet pulled
   from the pool must come back out of the drain and be recyclable, the
   full synth → link → engine → recycle loop of fig-batch. *)
let test_submit_batch_sharded_recycles () =
  let r = mk_router () in
  let e = Engine.create (Sharded 2) r in
  let pool = Pool.create ~capacity:64 () in
  let total = 256 and batch = 16 in
  let scratch = Array.make batch (mk_pkt ()) in
  let recycled = ref 0 in
  let recycle res = Pool.free pool res.Rp_engine.Shard.m; incr recycled in
  let sent = ref 0 in
  while !sent < total do
    let n = ref 0 in
    while !n < batch && !sent + !n < total && Pool.available pool > 0 do
      let id = !sent + !n in
      let key =
        Flow_key.make ~src:(Ipaddr.v4 10 0 0 1)
          ~dst:(Ipaddr.v4 192 168 1 (1 + (id mod 8)))
          ~proto:Proto.udp ~sport:(50_000 + (id mod 32)) ~dport:9000 ~iface:0
      in
      scratch.(!n) <- Pool.alloc pool ~key ~len:64;
      incr n
    done;
    (* The pool (64) bounds in-flight packets well below the RX rings
       (1024/shard), so the engine must accept every batch whole. *)
    let accepted = Engine.submit_batch e ~now:0L scratch ~n:!n in
    check int_t "batch accepted whole" !n accepted;
    sent := !sent + accepted;
    ignore (Engine.drain e ~f:recycle)
  done;
  ignore (Engine.flush e ~f:recycle);
  Engine.stop e;
  ignore (Engine.drain e ~f:recycle);
  check int_t "every accepted packet drained and recycled" total !recycled;
  check int_t "pool made whole" 64 (Pool.available pool);
  let s = Pool.stats pool in
  check int_t "no double frees" 0 s.Pool.double_frees;
  check int_t "no foreign frees" 0 s.Pool.foreign_frees

(* --- intermittent faults ------------------------------------------------ *)

(* A plugin faulting on every second packet never builds the
   consecutive-fault run that quarantines it: each clean return resets
   the run.  One flow, so one shard sees every packet and reports the
   faults and the recoveries in order. *)
let test_intermittent_fault_no_quarantine () =
  List.iter
    (fun mode ->
      let r = mk_router () in
      ok
        (Pcu.modload r.Router.pcu
           (Fault_plugin.make ~gate:Gate.Firewall ~name:"fault-firewall"));
      let inst =
        ok
          (Pcu.create_instance r.Router.pcu ~plugin:"fault-firewall"
             [ ("mode", "raise"); ("every", "2") ])
      in
      let id = inst.Plugin.instance_id in
      ok
        (Pcu.register_instance r.Router.pcu ~instance:id
           (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
      let e = Engine.create mode r in
      let dropped = ref 0 in
      let count (res : Shard.result) =
        match res.Shard.outcome with
        | Shard.Dropped _ -> incr dropped
        | Shard.Forwarded _ | Shard.Absorbed -> ()
      in
      for _ = 1 to 40 do
        assert (Engine.submit e ~now:0L (mk_pkt ~sport:4242 ()));
        ignore (Engine.drain e ~f:count)
      done;
      ignore (Engine.flush e ~f:count);
      Engine.stop e;
      let label = Engine.mode_to_string mode in
      check bool_t (label ^ ": never quarantined") false
        (Pcu.is_quarantined r.Router.pcu id);
      check int_t (label ^ ": every second packet faulted") 20 !dropped)
    [ Engine.Inline; Engine.Sharded 2 ]

(* --- a route to a missing interface ------------------------------------ *)

(* An L4 route to an interface the router lacks is no route at all: the
   packet drops as unroutable on both engines instead of raising (which
   on a shard would take its worker domain down). *)
let test_route_to_missing_iface () =
  List.iter
    (fun mode ->
      let r = mk_router () in
      ok (Pcu.modload r.Router.pcu (module Route_plugin));
      let inst =
        ok (Pcu.create_instance r.Router.pcu ~plugin:"l4-route" [ ("iface", "7") ])
      in
      ok
        (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
           (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
      let e = Engine.create mode r in
      let outcomes = ref [] in
      for f = 0 to 3 do
        assert (Engine.submit e ~now:0L (mk_pkt ~sport:(12_000 + f) ()))
      done;
      ignore (Engine.flush e ~f:(fun res -> outcomes := res.Shard.outcome :: !outcomes));
      Engine.stop e;
      check bool_t
        (Engine.mode_to_string mode ^ ": every packet dropped as unroutable")
        true
        (List.length !outcomes = 4
        && List.for_all
             (( = ) (Shard.Dropped "no route to destination"))
             !outcomes))
    [ Engine.Inline; Engine.Sharded 2 ]

(* --- inline result ring ------------------------------------------------ *)

(* The inline engine's results wait in the same bounded ring a shard
   uses: past its capacity, submissions are refused and counted as
   backpressure, and everything admitted comes back out. *)
let test_inline_ring_bounded () =
  let r = mk_router () in
  let e = Engine.create ~tx_capacity:8 Engine.Inline r in
  let bp0 = counter_get "engine.backpressure_drops" in
  let dr0 = Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Backpressure in
  let pkts = Array.init 12 (fun f -> mk_pkt ~sport:(11_000 + f) ()) in
  let accepted = Array.map (fun m -> Engine.submit e ~now:0L m) pkts in
  check int_t "admitted up to the ring's capacity" 8
    (Array.fold_left (fun n a -> if a then n + 1 else n) 0 accepted);
  check bool_t "then refused" false accepted.(8);
  check int_t "a batch past capacity admits nothing" 0
    (Engine.submit_batch e ~now:0L pkts ~n:4);
  check int_t "refusals counted as backpressure" 8
    (counter_get "engine.backpressure_drops" - bp0);
  check int_t "under the backpressure drop reason" 8
    (Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Backpressure - dr0);
  let back = ref [] in
  let n = Engine.drain e ~f:(fun res -> back := res.Shard.m :: !back) in
  check int_t "every admitted packet drained" 8 n;
  check bool_t "exactly the admitted ones, in order" true
    (List.for_all2 ( == ) (List.rev !back) (Array.to_list (Array.sub pkts 0 8)));
  check int_t "room again after draining" 4
    (Engine.submit_batch e ~now:0L pkts ~n:4);
  Engine.stop e

(* --- drain: order and the exception contract ------------------------- *)

exception Stop_here

(* [n] packets of distinct flows are left waiting in the result rings
   (a sharded engine is waited idle without draining).  A [drain] whose
   [f] raises on its [k]-th result delivers exactly [k]; the rest come
   back from the following drains, [~max] at a time, so every packet is
   delivered exactly once, each ring's results in submission order. *)
let drain_contract mode =
  qtest ~count:(match mode with Engine.Inline -> 100 | Engine.Sharded _ -> 8)
    (Printf.sprintf "drain: order, ~max and a raising f (%s)" (Engine.mode_to_string mode))
    QCheck2.Gen.(triple (int_range 1 80) (int_range 1 80) (int_range 1 12))
    (fun (n, k, max) ->
      let k = 1 + (k mod n) in
      let r = mk_router () in
      let e = Engine.create mode r in
      let pkts =
        Array.init n (fun i ->
            let m = mk_pkt ~sport:(20_000 + i) () in
            m.Mbuf.seq <- i;
            m)
      in
      let accepted = Engine.submit_batch e ~now:0L pkts ~n in
      wait "workers idle" (fun () -> Engine.idle e);
      let seen = ref [] in
      let first =
        match
          Engine.drain e ~f:(fun res ->
              seen := res.Shard.m.Mbuf.seq :: !seen;
              if List.length !seen = k then raise Stop_here)
        with
        | _ -> false
        | exception Stop_here -> true
      in
      let raised_at_k = first && List.length !seen = k in
      let capped = ref true in
      let rec rest () =
        let before = List.length !seen in
        let d =
          Engine.drain ~max e ~f:(fun res -> seen := res.Shard.m.Mbuf.seq :: !seen)
        in
        if d > max || List.length !seen - before <> d then capped := false;
        if d > 0 then rest ()
      in
      rest ();
      Engine.stop e;
      let got = List.rev !seen in
      let in_order ring =
        let mine = List.filter (fun i -> ring pkts.(i)) got in
        mine = List.sort compare mine
      in
      accepted = n && raised_at_k && !capped
      && List.sort compare got = List.init n Fun.id
      && List.for_all
           (fun s -> in_order (fun m -> Engine.shard_of_key e m.Mbuf.key = s))
           (List.init (Engine.shards e) Fun.id))

(* --- every verdict class: inline = sharded:1 = sharded:4 --------------- *)

(* One packet kind per verdict class, each its own fixed flow (so the
   fault injector's packets stay on one shard, in order). *)
let punt_consume = 250
let punt_forward = 251
let router_addr = Ipaddr.v4 192 168 7 7

let n_kinds = 9
let k_punt_forward = 5

let class_router () =
  let ifaces =
    [
      Iface.create ~id:0 ();
      Iface.create ~id:1 ();
      (* Roomy queues: how full a queue gets within a batch depends on
         when the engine's stand-in transmit loop empties it, which is
         scheduling, not the data path. *)
      Iface.create ~id:2 ~mtu:296 ();
    ]
  in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r (Prefix.of_string "172.16.0.0/16") ~iface:2 ();
  Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
  Router.add_local_addr r router_addr;
  let punts = ref 0 in
  Router.set_punt r ~proto:punt_consume (fun ~now:_ _ ->
      incr punts;
      Router.Punt_consume);
  Router.set_punt r ~proto:punt_forward (fun ~now:_ _ ->
      incr punts;
      Router.Punt_forward);
  ok
    (Pcu.modload r.Router.pcu
       (Fault_plugin.make ~gate:Gate.Firewall ~name:"fault-firewall"));
  let inst =
    ok (Pcu.create_instance r.Router.pcu ~plugin:"fault-firewall" [ ("every", "2") ])
  in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.tcp
          ~sport:(Rp_classifier.Filter.Port 7777) ()));
  (r, punts)

let class_pkt kind =
  let src = Ipaddr.v4 10 0 0 (1 + kind) in
  let synth ?ttl ?(proto = Proto.udp) ?(sport = 1000) ?(len = 200) dst =
    Mbuf.synth ?ttl
      ~key:(Flow_key.make ~src ~dst ~proto ~sport ~dport:9000 ~iface:0)
      ~len ()
  in
  let fwd = Ipaddr.v4 192 168 1 1 and small_mtu = Ipaddr.v4 172 16 1 1 in
  match kind with
  | 0 -> synth fwd
  | 1 -> synth ~ttl:1 fwd  (* time exceeded *)
  | 2 -> synth (Ipaddr.v4 8 8 8 8)  (* net unreachable *)
  | 3 ->
    Mbuf.datagram ~src ~dst:router_addr ~proto:Proto.icmp ~iface:0
      (Icmp.serialize ~src ~dst:router_addr
         { Icmp.message = Icmp.Echo_request { ident = 7; seq = 1 }; payload = "ping" })
  | 4 -> synth ~proto:punt_consume fwd
  | 5 -> synth ~proto:punt_forward fwd
  | 6 ->
    let m = synth ~len:1000 small_mtu in
    m.Mbuf.dont_fragment <- true;  (* too big *)
    m
  | 7 -> synth ~len:1000 small_mtu  (* 4 fragments *)
  | _ -> synth ~proto:Proto.tcp ~sport:7777 fwd  (* faults every 2nd *)

(* Far above any id the telemetry sampler hands out in this binary. *)
let trace_base = 1_000_000_000

let run_classes mode kinds =
  let r, punts = class_router () in
  let e = Engine.create mode r in
  let n = List.length kinds in
  let frag0 = counter_get "ip_core.fragment_drops" in
  (* One metric family for every domain: the same names must carry the
     same totals on both engines. *)
  let meters =
    List.concat_map (fun g -> [ Gate.dispatch g; Gate.drops g; Gate.faults g ]) Gate.all
    @ List.map
        (fun v -> Rp_obs.Registry.counter ("ip_core." ^ v))
        [ "packets"; "forwarded"; "delivered_local"; "absorbed"; "dropped" ]
  in
  let meters0 = List.map Rp_obs.Counter.get meters in
  let reasons0 = Rp_obs.Drop_reason.table () in
  Rp_obs.Telemetry.clear ();
  let outcomes = Array.make n "" in
  let record (res : Shard.result) =
    outcomes.(res.Shard.m.Mbuf.seq) <-
      (match res.Shard.outcome with
       | Shard.Forwarded i -> Printf.sprintf "fwd %d" i
       | Shard.Absorbed -> "absorbed"
       | Shard.Dropped why -> "drop " ^ why)
  in
  let pkts =
    Array.of_list
      (List.mapi
         (fun i kind ->
           let m = class_pkt kind in
           m.Mbuf.seq <- i;
           (* A preset trace id: tracing stays off, so only these
              packets record events, under ids the test can map back. *)
           m.Mbuf.tseq <- trace_base + i;
           m)
         kinds)
  in
  (* Batches of 8, so inline the ICMP errors and echo replies the
     router originates re-enter the pipeline mid-batch. *)
  let sent = ref 0 in
  while !sent < n do
    let k = min 8 (n - !sent) in
    let chunk = Array.sub pkts !sent k in
    assert (Engine.submit_batch e ~now:(Int64.of_int !sent) chunk ~n:k = k);
    sent := !sent + k;
    ignore (Engine.drain e ~f:record)
  done;
  ignore (Engine.flush e ~f:record);
  Engine.stop e;
  let reasons =
    List.map2
      (fun (reason, a) (_, b) -> (Rp_obs.Drop_reason.name reason, b - a))
      reasons0
      (Rp_obs.Drop_reason.table ())
  in
  let faults =
    List.map
      (fun (f : Pcu.fault_info) ->
        ( f.Pcu.instance.Plugin.plugin_name,
          f.Pcu.total_faults,
          f.Pcu.consecutive_faults,
          f.Pcu.quarantined,
          f.Pcu.last_fault ))
      (Pcu.fault_report r.Router.pcu)
  in
  (* Per packet, its Gate_exit (gate, accesses) events in path order.
     A punt-forwarded packet leaves a shard after the pre-routing
     gates and re-classifies on the router's own table, so only those
     gates compare. *)
  let exits = Array.make n [] in
  List.iter
    (fun (ev : Rp_obs.Telemetry.event) ->
      if ev.Rp_obs.Telemetry.kind = Rp_obs.Telemetry.Gate_exit
         && ev.Rp_obs.Telemetry.pkt >= trace_base
      then
        let i = ev.Rp_obs.Telemetry.pkt - trace_base in
        exits.(i) <- (ev.Rp_obs.Telemetry.gate, ev.Rp_obs.Telemetry.arg) :: exits.(i))
    (Rp_obs.Telemetry.events ());
  List.iteri
    (fun i kind ->
      let path = List.rev exits.(i) in
      exits.(i) <-
        (if kind = k_punt_forward then
           List.filter (fun (g, _) -> g < Gate.to_int Gate.Routing) path
         else path))
    kinds;
  ( Array.to_list outcomes,
    Array.to_list
      (Array.map
         (fun ifc -> (ifc.Iface.counters.Iface.rx_packets, ifc.Iface.counters.Iface.rx_bytes))
         r.Router.ifaces),
    r.Router.icmp_sent,
    counter_get "ip_core.fragment_drops" - frag0,
    reasons,
    faults,
    !punts,
    Array.to_list exits,
    List.map2
      (fun c v0 -> (Rp_obs.Counter.name c, Rp_obs.Counter.get c - v0))
      meters meters0 )

let prop_every_verdict_class =
  qtest ~count:12 "inline = sharded:1 = sharded:4 on every verdict class"
    QCheck2.Gen.(list_size (int_range 1 40) (int_bound (n_kinds - 1)))
    (fun kinds ->
      let cap = Rp_obs.Telemetry.ring_capacity () in
      Rp_obs.Telemetry.set_capacity 65_536;
      let inline = run_classes Engine.Inline kinds in
      let s1 = run_classes (Engine.Sharded 1) kinds in
      let s4 = run_classes (Engine.Sharded 4) kinds in
      Rp_obs.Telemetry.set_capacity cap;
      let _, _, _, _, _, _, _, exits, _ = inline in
      (* every packet but a TTL expiry crosses at least one gate *)
      List.for_all2 (fun kind path -> kind = 1 || path <> []) kinds exits
      && inline = s1 && inline = s4)

(* --- control changes through the API ------------------------------------- *)

(* Every kind of control change, made through the router and PCU API —
   no pmgr, no explicit publication, no wait — applies to the very next
   packet on both engines. *)
type ctl_op =
  | Bind_drop | Unbind_drop  (* a dropping plugin on 192.168.1.0/24 *)
  | Quarantine | Restore  (* the always-faulting plugin *)
  | Add_route | Del_route  (* 172.20.0.0/16 via if2 *)
  | Punt | Unpunt  (* protocol 250, consumed *)
  | Add_local  (* 192.168.9.9 *)
  | Policy of Fault.policy
  | Budget of int option
  | Gates of Gate.t list
  | Classifier of Rp_classifier.Aiu.mode

let gen_ctl_op =
  QCheck2.Gen.oneofl
    [
      Bind_drop; Unbind_drop; Quarantine; Restore; Add_route; Del_route; Punt; Unpunt;
      Add_local; Policy Fault.Continue_packet; Policy Fault.Drop_packet;
      Budget (Some 10_000); Budget None; Gates Gate.all;
      Gates (List.filter (fun g -> not (Gate.equal g Gate.Firewall)) Gate.all);
      Classifier `Compiled; Classifier `Per_gate;
    ]

let drop_plugin : (module Plugin.PLUGIN) =
  (module struct
    let name = "ctl-drop"
    let gate = Gate.Firewall
    let description = "drops everything it is bound to"

    let create_instance ~instance_id ~code ~config =
      Ok
        (Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config (fun _ _ ->
             Plugin.Drop "dropped by plugin"))

    let message _ _ = Error "no messages"
  end)

(* One probe per change: a packet whose fate that change decides. *)
let ctl_probes () =
  let pkt ?(proto = Proto.udp) ?(sport = 1000) dst =
    Mbuf.synth
      ~key:(Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst ~proto ~sport ~dport:9000 ~iface:0)
      ~len:200 ()
  in
  let fwd = Ipaddr.v4 192 168 1 1 in
  [|
    pkt fwd;  (* the dropping plugin *)
    pkt ~proto:Proto.tcp ~sport:7777 fwd;  (* the faulting plugin *)
    pkt ~proto:Proto.tcp ~sport:8888 fwd;  (* the cycle burner *)
    pkt (Ipaddr.v4 172 20 1 1);  (* the route *)
    pkt ~proto:250 fwd;  (* the punt *)
    pkt (Ipaddr.v4 192 168 9 9);  (* the local address *)
  |]

let run_ctl_ops mode ops =
  let r =
    Router.create ~quarantine_threshold:1_000_000
      ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 (); Iface.create ~id:2 () ]
      ()
  in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
  let pcu = r.Router.pcu in
  let instance plugin config =
    ok (Pcu.modload pcu plugin);
    let name = match plugin with (module P : Plugin.PLUGIN) -> P.name in
    (ok (Pcu.create_instance pcu ~plugin:name config)).Plugin.instance_id
  in
  let drop = instance drop_plugin [] in
  let drop_filter = Rp_classifier.Filter.v4 ~dst:(Prefix.of_string "192.168.1.0/24") ~proto:Proto.udp () in
  let faulty = instance (Fault_plugin.make ~gate:Gate.Firewall ~name:"ctl-fault") [] in
  ok
    (Pcu.register_instance pcu ~instance:faulty
       (Rp_classifier.Filter.v4 ~proto:Proto.tcp ~sport:(Rp_classifier.Filter.Port 7777) ()));
  let burner =
    instance
      (Fault_plugin.make ~gate:Gate.Security_in ~name:"ctl-burn")
      [ ("mode", "burn"); ("burn", "50000") ]
  in
  ok
    (Pcu.register_instance pcu ~instance:burner
       (Rp_classifier.Filter.v4 ~proto:Proto.tcp ~sport:(Rp_classifier.Filter.Port 8888) ()));
  let e = Engine.create mode r in
  let reasons0 = Rp_obs.Drop_reason.table () in
  let step op =
    (match op with
     | Bind_drop -> ignore (Pcu.register_instance pcu ~instance:drop drop_filter)
     | Unbind_drop -> ignore (Pcu.deregister_instance pcu ~instance:drop drop_filter)
     | Quarantine -> ignore (Router.quarantine r faulty)
     | Restore -> ignore (Router.restore r faulty)
     | Add_route -> Router.add_route r (Prefix.of_string "172.20.0.0/16") ~iface:2 ()
     | Del_route -> Route_table.remove r.Router.routes (Prefix.of_string "172.20.0.0/16")
     | Punt -> Router.set_punt r ~proto:250 (fun ~now:_ _ -> Router.Punt_consume)
     | Unpunt -> Router.clear_punt r ~proto:250
     | Add_local -> Router.add_local_addr r (Ipaddr.v4 192 168 9 9)
     | Policy p -> Router.set_fault_policy r p
     | Budget b -> Router.set_cycle_budget r b
     | Gates gs -> Router.enable_gates r gs
     | Classifier m -> Rp_classifier.Aiu.set_mode (Router.aiu r) m);
    let probes = ctl_probes () in
    Array.iteri (fun i m -> m.Mbuf.seq <- i) probes;
    let n = Array.length probes in
    assert (Engine.submit_batch e ~now:0L probes ~n = n);
    let outcomes = Array.make n "" in
    ignore
      (Engine.flush e ~f:(fun res ->
           outcomes.(res.Shard.m.Mbuf.seq) <-
             (match res.Shard.outcome with
              | Shard.Forwarded i -> Printf.sprintf "fwd %d" i
              | Shard.Absorbed -> "absorbed"
              | Shard.Dropped why -> "drop " ^ why)));
    Array.to_list outcomes
  in
  let outcomes = List.map step ops in
  Engine.stop e;
  let reasons =
    List.map2
      (fun (reason, a) (_, b) -> (Rp_obs.Drop_reason.name reason, b - a))
      reasons0 (Rp_obs.Drop_reason.table ())
  in
  (outcomes, reasons)

let prop_api_changes_apply_at_once =
  qtest ~count:15 "API control changes apply to the next packet: inline = sharded:1 = sharded:2"
    QCheck2.Gen.(list_size (int_range 1 24) gen_ctl_op)
    (fun ops ->
      let inline = run_ctl_ops Engine.Inline ops in
      inline = run_ctl_ops (Engine.Sharded 1) ops && inline = run_ctl_ops (Engine.Sharded 2) ops)

(* --- the route cache ------------------------------------------------------ *)

let route_dsts =
  [| Ipaddr.v4 192 168 1 1; Ipaddr.v4 192 168 1 2; Ipaddr.v4 192 168 2 1; Ipaddr.v4 192 9 9 9 |]

(* Prefixes of every specificity over those destinations. *)
let route_prefixes =
  [| "0.0.0.0/0"; "192.0.0.0/8"; "192.168.0.0/16"; "192.168.1.0/24"; "192.168.1.2/31";
     "192.168.1.1/32" |]

type route_op =
  | Route_add of int * int * int option  (* prefix, iface, gateway octet *)
  | Route_del of int
  | Traffic of int list  (* destinations, one packet each *)

let gen_route_op =
  let open QCheck2.Gen in
  let prefix = int_bound (Array.length route_prefixes - 1) in
  frequency
    [
      (3, map3 (fun p i g -> Route_add (p, i, g)) prefix (int_bound 2) (opt (int_range 1 254)));
      (2, map (fun p -> Route_del p) prefix);
      ( 5,
        map
          (fun ds -> Traffic ds)
          (list_size (int_range 1 12) (int_bound (Array.length route_dsts - 1))) );
    ]

let route_cmd = function
  | Route_add (p, i, g) ->
    Printf.sprintf "route add %s %d%s" route_prefixes.(p) i
      (match g with Some o -> Printf.sprintf " 10.9.9.%d" o | None -> "")
  | Route_del p -> Printf.sprintf "route del %s" route_prefixes.(p)
  | Traffic _ -> invalid_arg "route_cmd"

(* Each destination is one flow, whose record — and cached route —
   lives across the route changes, until the router's two-record flow
   table recycles it for another destination.  Every packet must leave
   where an uncached walk of the router's table says at that moment,
   with the next hop the walk names; one with no route drops as
   unroutable. *)
let route_ops_coherent mode ops =
  let r =
    Router.create ~flow_max:2
      ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 (); Iface.create ~id:2 () ]
      ()
  in
  let e = Engine.create mode r in
  let coherent =
    List.for_all
      (function
        | Traffic ds ->
          let pkts =
            Array.of_list
              (List.mapi
                 (fun i d ->
                   let m = mk_pkt ~sport:(2000 + d) ~dst:route_dsts.(d) () in
                   m.Mbuf.seq <- i;
                   m)
                 ds)
          in
          let expect =
            Array.map
              (fun m ->
                let dst = m.Mbuf.key.Flow_key.dst in
                match Route_table.lookup r.Router.routes dst with
                | Some rt ->
                  ( Shard.Forwarded rt.Route_table.iface,
                    Some (Option.value rt.Route_table.next_hop ~default:dst) )
                | None -> (Shard.Dropped "no route to destination", None))
              pkts
          in
          let n = Array.length pkts in
          assert (Engine.submit_batch e ~now:0L pkts ~n = n);
          let got = ref [] in
          ignore
            (Engine.flush e ~f:(fun res ->
                 got := (res.Shard.outcome, res.Shard.m) :: !got));
          List.length !got = n
          && List.for_all
               (fun (got, m) ->
                 let outcome, hop = expect.(m.Mbuf.seq) in
                 got = outcome
                 && Option.fold hop ~none:true ~some:(Ipaddr.equal m.Mbuf.next_hop))
               !got
        | op ->
          ignore (ok (Rp_control.Pmgr.exec r (route_cmd op)));
          true)
      ops
  in
  Engine.stop e;
  coherent

let prop_route_cache_coherent =
  qtest ~count:40 "cached routes = uncached walk under route churn"
    QCheck2.Gen.(list_size (int_range 1 24) gen_route_op)
    (fun ops ->
      route_ops_coherent Engine.Inline ops && route_ops_coherent (Engine.Sharded 2) ops)

(* A more specific route installed after a flow cached its route takes
   over that flow's very next packet, without touching its record. *)
let test_route_cache_more_specific () =
  List.iter
    (fun mode ->
      let label = Engine.mode_to_string mode ^ ": " in
      let r = mk_router () in
      let e = Engine.create mode r in
      let send () =
        assert (Engine.submit e ~now:0L (mk_pkt ~sport:3333 ()));
        let got = ref [] in
        ignore
          (Engine.flush e ~f:(fun res -> got := (res.Shard.outcome, res.Shard.m) :: !got));
        match !got with
        | [ res ] -> res
        | _ -> Alcotest.fail "expected one result"
      in
      let outcome (o, _) = o in
      check bool_t (label ^ "first packet on the /16") true
        (outcome (send ()) = Shard.Forwarded 1);
      let hits0 = counter_get "route_table.cache_hits"
      and walks0 = counter_get "route_table.lookups" in
      check bool_t (label ^ "second packet on the /16") true
        (outcome (send ()) = Shard.Forwarded 1);
      check int_t (label ^ "second packet hit the cache") 1
        (counter_get "route_table.cache_hits" - hits0);
      check int_t (label ^ "and did not walk") 0
        (counter_get "route_table.lookups" - walks0);
      let ev0 = counter_get "flow_table.evictions" in
      ignore (ok (Rp_control.Pmgr.exec r "route add 192.168.1.0/24 0 10.0.0.254"));
      let res = send () in
      check bool_t (label ^ "next packet takes the /24") true
        (outcome res = Shard.Forwarded 0);
      check bool_t (label ^ "through its gateway") true
        (Ipaddr.equal (snd res).Mbuf.next_hop (Ipaddr.v4 10 0 0 254));
      check int_t (label ^ "no flow record evicted") 0
        (counter_get "flow_table.evictions" - ev0);
      Engine.stop e)
    [ Engine.Inline; Engine.Sharded 1 ]

(* A shard keeps its route table, and so every flow's cached route,
   while only filters change. *)
let test_route_cache_survives_filter_churn () =
  let r = mk_router () in
  let e = Engine.create (Engine.Sharded 1) r in
  let send () =
    for f = 0 to 7 do
      assert (Engine.submit e ~now:0L (mk_pkt ~sport:(5000 + f) ()))
    done;
    ignore (Engine.flush e ~f:ignore)
  in
  send ();
  let pm, _ = counting_plugin ~gate:Gate.Firewall ~name:"unrelated-fw" in
  ok (Pcu.modload r.Router.pcu pm);
  let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:"unrelated-fw" []) in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~src:(Prefix.of_string "172.31.0.0/16") ()));
  let walks0 = counter_get "route_table.lookups"
  and hits0 = counter_get "route_table.cache_hits" in
  send ();
  check int_t "no route walked after the bind" 0 (counter_get "route_table.lookups" - walks0);
  check bool_t "every flow hit its cached route" true
    (counter_get "route_table.cache_hits" - hits0 >= 8);
  Engine.stop e

(* A plugin that rewrites the destination of every second packet before
   routing, as DNAT does: the rewritten packets route by their new
   destination, and never leave it cached for the flow's own. *)
let test_route_cache_rewritten_dst () =
  List.iter
    (fun mode ->
      let r = mk_router () in
      Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
      let seen = Atomic.make 0 in
      let pm : (module Plugin.PLUGIN) =
        (module struct
          let name = "dst-rewrite"
          let gate = Gate.Security_in
          let description = "rewrites every second packet's destination"

          let create_instance ~instance_id ~code ~config =
            Ok
              (Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
                 (fun _ctx m ->
                   if Atomic.fetch_and_add seen 1 land 1 = 0 then
                     m.Mbuf.key <- { m.Mbuf.key with Flow_key.dst = Ipaddr.v4 10 1 1 1 };
                   Plugin.Continue))

          let message _ _ = Error "no messages"
        end)
      in
      ok (Pcu.modload r.Router.pcu pm);
      let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:"dst-rewrite" []) in
      ok
        (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
           (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
      let e = Engine.create mode r in
      let outcomes = ref [] in
      for _ = 1 to 6 do
        assert (Engine.submit e ~now:0L (mk_pkt ~sport:4444 ()));
        ignore
          (Engine.flush e ~f:(fun res -> outcomes := res.Shard.outcome :: !outcomes))
      done;
      Engine.stop e;
      check bool_t
        (Engine.mode_to_string mode ^ ": each packet routed by its own destination")
        true
        (List.rev !outcomes
        = List.init 6 (fun i -> Shard.Forwarded (if i land 1 = 0 then 0 else 1))))
    [ Engine.Inline; Engine.Sharded 1 ]

(* --- results lost to a full tx ring ------------------------------------- *)

(* A shard whose tx ring is full loses the results it cannot push; a
   parked packet then ends under its own drop reason. *)
(* Router-originated ICMP errors leave on either engine: after a
   packet the engine serves every interface the data path queued onto
   (here the error's, back toward the source), not just the one in the
   packet's own verdict.  1,500 errors are far more than the FIFO's
   512, so one left behind would end as a tail drop. *)
let test_icmp_errors_leave mode () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~mode:Router.Best_effort ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
  Router.add_local_addr r (Ipaddr.v4 192 168 7 7);
  let e = Engine.create mode r in
  let n = 1500 in
  for _ = 1 to n do
    let key =
      Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
        ~proto:Proto.udp ~sport:1000 ~dport:9000 ~iface:0
    in
    let m = Mbuf.synth ~ttl:1 ~key ~len:200 () in
    while not (Engine.submit e ~now:0L m) do
      ignore (Engine.drain e ~f:ignore)
    done;
    ignore (Engine.drain e ~f:ignore)
  done;
  ignore (Engine.flush e ~f:ignore);
  Engine.stop e;
  check int_t "an ICMP error per packet" n r.Router.icmp_sent;
  Array.iter
    (fun ifc ->
      check int_t (ifc.Iface.name ^ " holds no packet") 0 (Iface.backlog ifc);
      check int_t (ifc.Iface.name ^ " dropped nothing") 0
        ifc.Iface.counters.Iface.drops)
    r.Router.ifaces

let test_tx_ring_overflow () =
  let module Dr = Rp_obs.Drop_reason in
  let sum () = List.fold_left (fun a (_, n) -> a + n) 0 (Dr.table ()) in
  let r = mk_router () in
  let e = Engine.create ~tx_capacity:2 (Engine.Sharded 1) r in
  let total0 = Dr.total () and sum0 = sum () and over0 = Dr.get Dr.Tx_ring_overflow in
  let lost0 = counter_get "engine.shard0.tx_ring_drops" in
  let n = 200 in
  for f = 0 to n - 1 do
    assert (Engine.submit e ~now:0L (mk_pkt ~sport:(20_000 + (f mod 50)) ()))
  done;
  wait "worker idle" (fun () -> Engine.idle e);
  let lost = counter_get "engine.shard0.tx_ring_drops" - lost0 in
  check bool_t "results were lost" true (lost > 0);
  check int_t "tx_ring_overflow = tx_ring_drops" lost (Dr.get Dr.Tx_ring_overflow - over0);
  check int_t "sum by reason = total" (Dr.total () - total0) (sum () - sum0);
  check int_t "every packet drained or counted lost" n (Engine.flush e ~f:ignore + lost);
  Engine.stop e

(* --- allocation ceiling ------------------------------------------------- *)

(* The Table-3 router (empty plugins bound at three gates, 13 inert
   filters beside them, 1,024 routes), warmed, then fed prebuilt
   packets of cached flows: minor-heap words per packet for
   submit_batch + drain.  A cached flow walks no LPM and carries its
   FIX as an immediate int, a gate hands its handler the frame's context
   refilled with the binding option stored in the flow record,
   verdicts and outcomes are preallocated per interface, the FIFO is a
   ring that empties without an option, the result ring's slots are
   records written in place, and the engine's emit and deliver
   callbacks are built with it, so the path allocates nothing: bringing
   back any per-packet or per-call allocation — a handler context, a
   queue cell, a result record, a closure, an LPM walk's result —
   fails here.

   With [~drr] a DRR instance is if1's qdisc, bound to every flow at
   the scheduling gate: a cached flow finds its queue in its soft slot,
   and the default transmitter discards what was queued by dequeueing
   it, which returns the packet itself: nothing is allocated either. *)
let table3_router ?flow_max ~drr () =
  let pmgr r cmd = ok (Rp_control.Pmgr.exec r cmd) in
  let instance r p = Scanf.sscanf (pmgr r ("create " ^ p)) "instance %d" Fun.id in
  let r =
    Router.create ?flow_max
      ~gates:
        ([ Gate.Ip_options; Gate.Security_in; Gate.Stats ]
        @ if drr then [ Gate.Scheduling ] else [])
      ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 () ]
      ()
  in
  List.iter
    (fun p ->
      ignore (pmgr r ("modload " ^ p));
      let id = instance r p in
      ignore (pmgr r (Printf.sprintf "bind %d <*, *, *, *, *, *>" id)))
    [ "empty-options"; "empty-security"; "empty-stats" ];
  if drr then begin
    ignore (pmgr r "modload drr");
    let id = instance r "drr" in
    ignore (pmgr r (Printf.sprintf "attach %d 1" id));
    ignore (pmgr r (Printf.sprintf "bind %d <*, *, *, *, *, *>" id))
  end;
  for i = 1 to 13 do
    Rp_classifier.Aiu.bind (Router.aiu r) ~gate:(Gate.to_int Gate.Ip_options)
      (Rp_classifier.Filter.v4
         ~src:(Prefix.make (Ipaddr.v4 172 16 i 0) 24)
         ~proto:Proto.tcp ())
      (Plugin.simple ~instance_id:(9000 + i) ~code:0 ~plugin_name:"inert"
         ~gate:Gate.Ip_options (fun _ _ -> Plugin.Continue))
  done;
  for j = 0 to 1023 do
    Router.add_route r (Prefix.make (Ipaddr.v4 20 (j lsr 8) (j land 255) 0) 24) ~iface:1 ()
  done;
  r

let alloc_words_per_pkt ~drr =
  let r = table3_router ~drr () in
  let e = Engine.create Engine.Inline r in
  let batches =
    Array.init 8 (fun b ->
        Array.init 32 (fun i ->
            let f = (b * 32) + i in
            mk_pkt ~sport:(1000 + f) ~dst:(Ipaddr.v4 20 (f lsr 8) (f land 255) 1) ()))
  in
  let drained = ref 0 in
  let count _ = incr drained in
  let run rounds =
    for k = 0 to rounds - 1 do
      let batch = batches.(k land 7) in
      Array.iter
        (fun m ->
          m.Mbuf.ttl <- 64;
          m.Mbuf.fix <- Mbuf.no_fix;
          m.Mbuf.out_iface <- None;
          m.Mbuf.next_hop <- Mbuf.no_hop)
        batch;
      ignore (Engine.submit_batch e ~now:0L batch ~n:32);
      ignore (Engine.drain e ~f:count)
    done
  in
  run 64;
  drained := 0;
  let before = Gc.minor_words () in
  run 1024;
  let words = (Gc.minor_words () -. before) /. float_of_int !drained in
  Engine.stop e;
  check int_t "every packet forwarded" (1024 * 32) !drained;
  words

let check_ceiling ~drr ceiling () =
  let words = alloc_words_per_pkt ~drr in
  check bool_t
    (Printf.sprintf "%.2f minor words per packet (ceiling %.2f)" words ceiling)
    true (words <= ceiling)

(* The same router with its flow table bounded at 1,024 records, fed
   pooled descriptors whose keys cycle through 8,192 flows: every
   packet is a new flow, so each one misses, resolves its three bound
   gates, recycles the oldest record (exporting it), walks the LPM and
   caches its route.  A flow record is flat ints, each (slot, gate)
   pair's binding block is refilled in place, the FIX is an immediate
   int and a directly connected route's next hop is the packet's own
   destination, so once every pair has its block none of this
   allocates: a boxed key, a binding, an option or a FIX block per
   flow fails here. *)
let test_new_flow_ceiling () =
  let r = table3_router ~flow_max:1024 ~drr:false () in
  let e = Engine.create Engine.Inline r in
  let pool = Pool.create ~capacity:64 () in
  let keys =
    Array.init 8192 (fun f ->
        Flow_key.make ~src:(Ipaddr.v4 10 0 (f lsr 8) (f land 255))
          ~dst:(Ipaddr.v4 20 ((f lsr 8) land 3) (f land 255) 1)
          ~proto:Proto.udp ~sport:(1000 + (f land 63)) ~dport:9000 ~iface:0)
  in
  let batch = Array.make 32 Mbuf.dummy in
  let next = ref 0 and drained = ref 0 in
  let f res =
    incr drained;
    Pool.free pool res.Shard.m
  in
  let run rounds =
    for _ = 1 to rounds do
      for i = 0 to 31 do
        batch.(i) <- Pool.alloc pool ~key:keys.(!next) ~len:64;
        next := (!next + 1) land 8191
      done;
      ignore (Engine.submit_batch e ~now:0L batch ~n:32);
      ignore (Engine.drain e ~f)
    done
  in
  let misses () = counter_get "flow_table.misses" in
  run 512;
  drained := 0;
  let m0 = misses () in
  let before = Gc.minor_words () in
  run 1024;
  let words = (Gc.minor_words () -. before) /. float_of_int !drained in
  let missed = misses () - m0 in
  Engine.stop e;
  check int_t "every packet forwarded" (1024 * 32) !drained;
  check int_t "every packet a new flow" (1024 * 32) missed;
  check bool_t
    (Printf.sprintf "%.3f minor words per new flow (ceiling 0.05)" words)
    true (words <= 0.05)

(* Selective invalidation reads each record's words where they lie:
   over 4,096 live records of which it evicts half, and exports each,
   it allocates nothing per record — rebuilding a key per record to
   test the filter would cost 30 words each. *)
let test_invalidate_allocates_nothing () =
  let r = table3_router ~drr:false () in
  let aiu = Router.aiu r in
  let ft = Rp_classifier.Aiu.flow_table aiu in
  let key f =
    Flow_key.make ~src:(Ipaddr.v4 10 0 (f lsr 8) (f land 255))
      ~dst:(Ipaddr.v4 20 0 0 1) ~proto:Proto.udp ~sport:1000 ~dport:9000 ~iface:0
  in
  let fill () =
    for f = 0 to 4095 do
      let m = Mbuf.synth ~key:(key f) ~len:64 () in
      ignore (Rp_classifier.Aiu.classify aiu m ~gate:0 ~now:0L);
      Rp_classifier.Flow_table.account ft m ~verdict:`Fwd
    done
  in
  let half = Rp_classifier.Filter.v4 ~src:(Prefix.of_string "10.0.0.0/21") () in
  let measure () =
    fill ();
    check int_t "4,096 live" 4096 (Rp_classifier.Flow_table.length ft);
    let before = Gc.minor_words () in
    let n = Rp_classifier.Flow_table.invalidate ft half in
    let words = Gc.minor_words () -. before in
    check int_t "half invalidated" 2048 n;
    Rp_classifier.Flow_table.flush ft;
    words
  in
  ignore (measure ());
  let words = measure () in
  check bool_t
    (Printf.sprintf "%.0f minor words for 4,096 records (ceiling 64)" words)
    true (words <= 64.)

(* --- no retention ------------------------------------------------------- *)

(* Once a batch is transmitted and drained, nothing the engine keeps —
   the output queue's ring, the result ring's slots, a worker's scratch
   — still reaches its descriptors: a full major collection frees every
   one of them. *)
let test_no_retention mode () =
  let r = mk_router () in
  let e = Engine.create mode r in
  let n = 64 in
  let weak = Weak.create n in
  let submit () =
    (* Built and submitted in a frame of their own, so no local keeps
       them. *)
    let pkts = Array.init n (fun i -> mk_pkt ~sport:(4000 + i) ()) in
    Array.iteri (fun i m -> Weak.set weak i (Some m)) pkts;
    check int_t "batch accepted" n (Engine.submit_batch e ~now:0L pkts ~n)
  in
  submit ();
  let fwd = ref 0 in
  ignore
    (Engine.flush e ~f:(fun res ->
         match res.Shard.outcome with Shard.Forwarded _ -> incr fwd | _ -> ()));
  check int_t "all forwarded" n !fwd;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  Engine.stop e;
  check int_t (Engine.mode_to_string mode ^ ": descriptors still reachable") 0 !live

(* --- a packet's own clock --------------------------------------------- *)

(* On a shard a packet's [now] is its own birth time: the handler
   context refilled for each call carries that packet's clock, so the
   stats plugin's per-flow first/last times are the birth times of the
   flow's first and last packets, not a neighbour's.  The stats
   instance is wrapped to keep each flow's record, which a shard never
   hands back (shard flow tables run no eviction hooks). *)
let test_birth_clock_ctx () =
  let r = mk_router ~gates:[ Gate.Stats ] () in
  let stats =
    ok (Stats_plugin.create_instance ~instance_id:9100 ~code:0 ~config:[])
  in
  let records = Hashtbl.create 8 in
  let handle (ctx : Plugin.ctx) m =
    let action = stats.Plugin.handle ctx m in
    (match ctx.Plugin.binding with
     | Some { Rp_classifier.Flow_table.soft = Some (Stats_plugin.Stat fs); _ } ->
       Hashtbl.replace records m.Mbuf.key.Flow_key.sport fs
     | Some _ | None -> ());
    action
  in
  Rp_classifier.Aiu.bind (Router.aiu r) ~gate:(Gate.to_int Gate.Stats)
    (Rp_classifier.Filter.v4 ()) { stats with Plugin.handle };
  let e = Engine.create (Engine.Sharded 1) r in
  let flows = 4 and rounds = 3 in
  (* Flow f's packet of round k is born at 1000 k + f, so every packet
     in flight carries a time of its own. *)
  let birth f k = Int64.of_int ((1000 * k) + f) in
  for k = 1 to rounds do
    for f = 0 to flows - 1 do
      assert (Engine.submit e ~now:(birth f k) (mk_pkt ~sport:(6000 + f) ()))
    done
  done;
  check int_t "all drained" (flows * rounds) (Engine.flush e ~f:ignore);
  Engine.stop e;
  check int_t "one record per flow" flows (Hashtbl.length records);
  Hashtbl.iter
    (fun sport (fs : Stats_plugin.flow_stat) ->
      let f = sport - 6000 in
      check int_t "packets" rounds fs.Stats_plugin.f_packets;
      check int64_t "first_ns is the first packet's birth" (birth f 1)
        fs.Stats_plugin.first_ns;
      check int64_t "last_ns is the last packet's birth" (birth f rounds)
        fs.Stats_plugin.last_ns)
    records

(* A flow's scheduling binding is refilled in place for the next flow
   of its slot, except a block a shard lent with a parked packet.  On
   sharded:1 with a one-record flow table, packet A is parked with its
   binding, then packet B's flow recycles the slot before the control
   domain resumes A.  A probe qdisc stamps each binding's soft state
   with the first key it queues: A must reach the queue with its own
   block and B with a fresh one (so A neither reads nor writes B's soft
   state), and each gets exactly one verdict. *)
type Rp_classifier.Flow_table.soft += Queued_for of Flow_key.t

(* A router with one bound probe qdisc on interface 1 and a
   [flow_max]-record flow table; [crossed] counts packets that met
   soft state stamped with another key, [seen] the binding each source
   port last queued with.  The probe spins [dawdle] times before it
   reads the soft state, widening the window in which another domain
   could refill the block. *)
let probe_router ?(dawdle = 0) ~flow_max () =
  let r =
    Router.create ~gates:[ Gate.Scheduling ] ~flow_max
      ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 () ]
      ()
  in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let crossed = Atomic.make 0 and seen = Hashtbl.create 4 in
  let enqueue ~now:_ (m : Mbuf.t) binding =
    let key = m.Mbuf.key in
    for _ = 1 to dawdle do
      Domain.cpu_relax ()
    done;
    Hashtbl.replace seen key.Flow_key.sport binding;
    (match binding with
     | Some (b : Plugin.t Rp_classifier.Flow_table.binding) -> (
         match b.Rp_classifier.Flow_table.soft with
         | Some (Queued_for k) -> if not (Flow_key.equal k key) then Atomic.incr crossed
         | Some _ | None -> b.Rp_classifier.Flow_table.soft <- Some (Queued_for key))
     | None -> ());
    Plugin.Enqueued
  in
  let probe =
    {
      (Plugin.simple ~instance_id:9200 ~code:0 ~plugin_name:"probe"
         ~gate:Gate.Scheduling (fun _ _ -> Plugin.Continue))
      with
      Plugin.scheduler =
        Some
          {
            Plugin.enqueue;
            dequeue = (fun ~now:_ -> Mbuf.dummy);
            backlog = (fun () -> 0);
            sched_stats = (fun () -> []);
          };
    }
  in
  Rp_classifier.Aiu.bind (Router.aiu r) ~gate:(Gate.to_int Gate.Scheduling)
    (Rp_classifier.Filter.v4 ()) probe;
  Iface.attach_scheduler (Router.iface r 1) probe;
  (r, crossed, seen)

let test_recycled_egress_binding () =
  let r, crossed, seen = probe_router ~flow_max:1 () in
  let e = Engine.create (Engine.Sharded 1) r in
  assert (Engine.submit e ~now:0L (mk_pkt ~sport:7001 ()));
  wait "A parked" (fun () -> Engine.idle e);
  assert (Engine.submit e ~now:0L (mk_pkt ~sport:7002 ()));
  wait "B parked" (fun () -> Engine.idle e);
  check int_t "B recycled A's slot" 1
    (Engine.shard_flow_stats e 0).Rp_classifier.Flow_table.recycled;
  let verdicts = ref [] in
  ignore
    (Engine.flush e ~f:(fun res ->
         verdicts := (res.Shard.m.Mbuf.key.Flow_key.sport, res.Shard.outcome) :: !verdicts));
  Engine.stop e;
  check bool_t "one verdict each, both forwarded" true
    (List.sort compare !verdicts
    = [ (7001, Shard.Forwarded 1); (7002, Shard.Forwarded 1) ]);
  (match Hashtbl.find seen 7001, Hashtbl.find seen 7002 with
   | Some a, Some b -> check bool_t "B bound a fresh block" false (a == b)
   | _ -> Alcotest.fail "A and B must both queue with a binding");
  check int_t "no packet saw another flow's soft state" 0 (Atomic.get crossed)

(* Within one frame the block is refilled in place: on the inline
   engine with a one-record table, packets A and B of two flows share a
   batch, so B's classification recycles A's slot and refills the block
   A was classified with before either reaches the queue.  A must reach
   the queue without a binding, B with its own, and neither may meet
   the other's soft state. *)
let test_recycled_binding_in_frame () =
  let r, crossed, seen = probe_router ~flow_max:1 () in
  let e = Engine.create Engine.Inline r in
  let batch = [| mk_pkt ~sport:7001 (); mk_pkt ~sport:7002 () |] in
  check int_t "both accepted" 2 (Engine.submit_batch e ~now:0L batch ~n:2);
  let verdicts = ref 0 in
  ignore (Engine.flush e ~f:(fun _ -> incr verdicts));
  Engine.stop e;
  check int_t "one verdict each" 2 !verdicts;
  check int_t "B recycled A's slot" 1
    (Rp_classifier.Flow_table.stats (Rp_classifier.Aiu.flow_table (Router.aiu r)))
      .Rp_classifier.Flow_table.recycled;
  check bool_t "A queued without B's binding" true (Hashtbl.find seen 7001 = None);
  check bool_t "B queued with its own binding" true (Hashtbl.find seen 7002 <> None);
  check int_t "no packet saw another flow's soft state" 0 (Atomic.get crossed)

(* The same hand-off under load: three flows alternate through a
   one-record table on sharded:1, so every packet recycles the slot,
   and the shard binds each packet while the control domain queues the
   one before it through a dawdling probe.  No packet may meet soft
   state another flow's packet stamped, and each gets exactly one
   verdict.  A shard that refilled the lent block in place fails this
   within a few thousand packets. *)
let test_recycled_egress_binding_stress () =
  let r, crossed, _ = probe_router ~dawdle:200 ~flow_max:1 () in
  let e = Engine.create (Engine.Sharded 1) r in
  let total = 3000 and verdicts = ref 0 and forwarded = ref 0 in
  let f res =
    incr verdicts;
    if res.Shard.outcome = Shard.Forwarded 1 then incr forwarded
  in
  (* The shard binds packet i, recycling packet i-1's slot, while the
     control domain queues packet i-1. *)
  for i = 0 to total - 1 do
    wait "shard idle" (fun () -> Engine.idle e);
    assert (Engine.submit e ~now:0L (mk_pkt ~sport:(7000 + (i mod 3)) ()));
    ignore (Engine.drain ~max:1 e ~f)
  done;
  ignore (Engine.flush e ~f);
  let recycled = (Engine.shard_flow_stats e 0).Rp_classifier.Flow_table.recycled in
  Engine.stop e;
  check int_t "one verdict per packet" total !verdicts;
  check int_t "every packet forwarded" total !forwarded;
  check bool_t "the slot was recycled throughout" true (recycled >= total / 2);
  check int_t "no packet saw another flow's soft state" 0 (Atomic.get crossed)

let () =
  Alcotest.run "engine"
    [
      ( "spsc",
        [
          Alcotest.test_case "capacity and backpressure" `Quick
            test_spsc_capacity;
          spsc_fifo;
          spsc_pop_batch;
          spsc_concurrent;
          spsc_concurrent_batched;
        ] );
      ( "sharding",
        [
          shard_stability;
          Alcotest.test_case "flows stay on owning shard" `Quick
            test_flows_stay_on_owning_shard;
          Alcotest.test_case "counter consistency" `Quick
            test_counter_consistency;
          Alcotest.test_case "batched counters are exact" `Quick
            test_batched_counters_exact;
          Alcotest.test_case "worker telemetry and flow export" `Quick
            test_sharded_telemetry;
        ] );
      ( "publication",
        [
          Alcotest.test_case "unbind stops classification" `Quick
            test_unbind_stops_classification;
          Alcotest.test_case "quarantine while draining" `Quick
            test_quarantine_while_draining;
        ] );
      ( "churn",
        [
          Alcotest.test_case "selective invalidation keeps fast path" `Quick
            test_selective_invalidation_keeps_fast_path;
          churn_equivalence;
          prop_flow_maintenance_equivalence;
          Alcotest.test_case "backlog overflow recompiles" `Quick
            test_backlog_overflow_recompiles;
        ] );
      ( "compiled",
        [
          churn_equivalence_compiled;
          Alcotest.test_case "mode propagates to shards" `Quick
            test_compiled_mode_propagates;
          Alcotest.test_case "classify charge parity" `Quick
            test_classify_charge_parity;
        ] );
      ( "inline",
        [
          Alcotest.test_case "inline engine matches ip_core" `Quick
            test_inline_engine_matches_ip_core;
          Alcotest.test_case "inline result ring is bounded" `Quick
            test_inline_ring_bounded;
          Alcotest.test_case "allocation ceiling on cached flows" `Quick
            (check_ceiling ~drr:false 0.05);
          Alcotest.test_case "allocation ceiling through a DRR qdisc" `Quick
            (check_ceiling ~drr:true 0.05);
          Alcotest.test_case "allocation ceiling on new flows" `Quick
            test_new_flow_ceiling;
          Alcotest.test_case "invalidation allocates nothing per record" `Quick
            test_invalidate_allocates_nothing;
          drain_contract Engine.Inline;
          drain_contract (Engine.Sharded 2);
        ] );
      ( "data path",
        [
          Alcotest.test_case "no descriptor retained (inline)" `Quick
            (test_no_retention Engine.Inline);
          Alcotest.test_case "no descriptor retained (sharded:1)" `Quick
            (test_no_retention (Engine.Sharded 1));
          Alcotest.test_case "handlers see their packet's own clock" `Quick
            test_birth_clock_ctx;
          Alcotest.test_case "intermittent fault never quarantines" `Quick
            test_intermittent_fault_no_quarantine;
          Alcotest.test_case "route to a missing interface drops" `Quick
            test_route_to_missing_iface;
          prop_every_verdict_class;
          prop_api_changes_apply_at_once;
          prop_route_cache_coherent;
          Alcotest.test_case "more specific route applies at once" `Quick
            test_route_cache_more_specific;
          Alcotest.test_case "route cache survives filter churn" `Quick
            test_route_cache_survives_filter_churn;
          Alcotest.test_case "rewritten destination routes uncached" `Quick
            test_route_cache_rewritten_dst;
          Alcotest.test_case "tx ring overflow has a drop reason" `Quick
            test_tx_ring_overflow;
          Alcotest.test_case "icmp errors leave (inline)" `Quick
            (test_icmp_errors_leave Engine.Inline);
          Alcotest.test_case "icmp errors leave (sharded:2)" `Quick
            (test_icmp_errors_leave (Engine.Sharded 2));
          Alcotest.test_case "flow_max bounds the flow table (inline)" `Quick
            (test_flow_max_bounds_shards Engine.Inline);
          Alcotest.test_case "flow_max bounds the flow table (sharded:1)" `Quick
            (test_flow_max_bounds_shards (Engine.Sharded 1));
          Alcotest.test_case "recycled slot's binding stays with its flow" `Quick
            test_recycled_egress_binding;
          Alcotest.test_case "recycled slot's binding under load (sharded:1)" `Quick
            test_recycled_egress_binding_stress;
          Alcotest.test_case "binding recycled within a frame (inline)" `Quick
            test_recycled_binding_in_frame;
        ] );
      ( "batched",
        [
          Alcotest.test_case "inline submit_batch = submit loop" `Quick
            test_submit_batch_inline_equiv;
          Alcotest.test_case "sharded batches recycle through the pool" `Quick
            test_submit_batch_sharded_recycles;
        ] );
    ]
