(* Tests for the latency-SLO layer and the unified drop-reason
   taxonomy: breach semantics and per-shard histograms, exemplar
   capture and resolution, the [of_why] classification table, qcheck
   drop-conservation over random fault / no-route / overflow /
   fragmentation workloads on both engines, the link/pool drop sites,
   health probes, and the Prometheus exposition round-trip. *)

open Rp_pkt
open Rp_core
open Rp_engine
module Slo = Rp_obs.Slo
module Dr = Rp_obs.Drop_reason
module Health = Rp_obs.Health
module Prom = Rp_obs.Prom

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let float_t = Alcotest.float 1e-9

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

(* --- drop-reason taxonomy -------------------------------------------- *)

(* The verdict strings are the contract between the drop sites and the
   classifier; pin each one, both prefix families, and the Policy
   fallback for anything a plugin invents. *)
let test_of_why_table () =
  List.iter
    (fun (why, expect) ->
      check string_t why (Dr.name expect) (Dr.name (Dr.of_why why)))
    [
      ("ttl expired", Dr.Ttl_expired);
      ("no route to destination", Dr.No_route);
      ("plugin fault", Dr.Fault);
      ("output queue", Dr.Queue_overflow);
      ("needs fragmentation", Dr.Needs_frag);
      ("partial fragment loss (2/4 fragments queued)", Dr.Frag_loss);
      ("conntrack: out of state", Dr.Conntrack);
      ("conntrack table full", Dr.Conntrack);
      ("firewall deny", Dr.Policy);
      ("", Dr.Policy);
    ]

let sum_reasons reasons = List.fold_left (fun a r -> a + Dr.get r) 0 reasons

let test_count_conservation_by_construction () =
  let t0 = Dr.total () and s0 = sum_reasons Dr.all in
  Dr.count Dr.Ttl_expired;
  Dr.count_why "firewall deny";
  Dr.add Dr.Backpressure 5;
  Dr.add Dr.Fault 0;
  (* add 0 is a no-op *)
  check int_t "total delta" 7 (Dr.total () - t0);
  check int_t "per-reason sum tracks total" (Dr.total () - t0)
    (sum_reasons Dr.all - s0);
  check bool_t "summary names the reasons" true
    (String.length (Dr.to_string ()) > 0);
  check int_t "table covers the whole taxonomy" (List.length Dr.all)
    (List.length (Dr.table ()))

(* --- SLO breach semantics and shard histograms ----------------------- *)

let test_slo_breach_semantics () =
  Slo.set_stamping true;
  Slo.set_threshold 0;
  check bool_t "stamping on" true (Slo.on ());
  check bool_t "no threshold: not armed" false (Slo.armed ());
  (* Unarmed, only the overflow latency bucket counts as a breach. *)
  let top = Slo.latency_bounds.(Array.length Slo.latency_bounds - 1) in
  check bool_t "at the top bound: no breach" false (Slo.is_breach top);
  check bool_t "over the top bound: breach" true (Slo.is_breach (top + 1));
  Slo.set_threshold 500;
  check int_t "threshold readable" 500 (Slo.get_threshold ());
  check bool_t "threshold set: armed" true (Slo.armed ());
  check bool_t "meeting the threshold breaches" true (Slo.is_breach 500);
  check bool_t "under the threshold: no breach" false (Slo.is_breach 499);
  Slo.set_stamping false;
  check bool_t "stamping off disarms capture" false (Slo.armed ());
  Slo.set_stamping true;
  Slo.set_threshold 0

let test_slo_observe_shard_table () =
  (* A shard id no engine in this binary uses: fresh histograms. *)
  let shard = 63 in
  Slo.observe ~shard Slo.Absorb 100;
  Slo.observe ~shard Slo.Absorb 300;
  Slo.observe ~shard Slo.Drop 700;
  match
    List.find_opt
      (fun (s, c, _) -> s = shard && c = Slo.Absorb)
      (Slo.shard_table ())
  with
  | None -> Alcotest.fail "shard histogram not in the table"
  | Some (_, _, h) ->
    check int_t "observations split by class" 2 (Rp_obs.Histogram.total h);
    (* Both absorb observations share the first latency bucket, so the
       interpolated median stays inside that bucket's value range. *)
    let q = Rp_obs.Histogram.quantile h 0.5 in
    check bool_t "median within the containing bucket" true
      (q > 0.0 && q <= float_of_int Slo.latency_bounds.(0));
    check string_t "class names" "absorb" (Slo.cls_name Slo.Absorb)

(* --- routers and workloads ------------------------------------------- *)

let prefix = Prefix.of_string "192.168.0.0/16"

(* Three empty gates (so exemplar gate attribution has entries) plus a
   fault injector on TCP at Security_in; if1 can take a tiny FIFO and
   MTU so sustained traffic exercises the queue-overflow and
   fragment-loss drop sites. *)
let mk_router ?(fifo_limit = max_int) ?(mtu = 1500) () =
  let gates = [ Gate.Ip_options; Gate.Security_in; Gate.Stats ] in
  let ifaces =
    [ Iface.create ~id:0 (); Iface.create ~id:1 ~mtu ~fifo_limit () ]
  in
  let r = Router.create ~mode:Router.Plugins ~gates ~ifaces () in
  Router.add_route r prefix ~iface:1 ();
  List.iter
    (fun (g, n) ->
      ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate:g ~name:n));
      let i = ok (Pcu.create_instance r.Router.pcu ~plugin:n []) in
      ok
        (Pcu.register_instance r.Router.pcu ~instance:i.Plugin.instance_id
           (Rp_classifier.Filter.v4 ~proto:Proto.udp ())))
    [ (Gate.Ip_options, "slo0"); (Gate.Security_in, "slo1");
      (Gate.Stats, "slo2") ];
  ok (Pcu.modload r.Router.pcu
        (Fault_plugin.make ~gate:Gate.Security_in ~name:"slo-fault"));
  let fi =
    ok
      (Pcu.create_instance r.Router.pcu ~plugin:"slo-fault"
         [ ("mode", "raise"); ("every", "1") ])
  in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:fi.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.tcp ()));
  r

type kind = Good | Ttl_one | Unrouted | Faulting | Big | Df

let kind_gen =
  QCheck2.Gen.map
    (function
      | 0 -> Good
      | 1 -> Ttl_one
      | 2 -> Unrouted
      | 3 -> Faulting
      | 4 -> Big
      | _ -> Df)
    (QCheck2.Gen.int_range 0 5)

let mk_pkt kind f =
  let dst =
    match kind with
    | Unrouted -> Ipaddr.v4 8 8 8 8
    | _ -> Ipaddr.v4 192 168 1 1
  in
  let proto = match kind with Faulting -> Proto.tcp | _ -> Proto.udp in
  let key =
    Flow_key.make
      ~src:(Ipaddr.v4 10 0 0 (1 + (f land 0x7F)))
      ~dst ~proto ~sport:(1000 + f) ~dport:9000 ~iface:0
  in
  let ttl = match kind with Ttl_one -> 1 | _ -> 64 in
  let len = match kind with Big | Df -> 1000 | _ -> 200 in
  let m = Mbuf.synth ~ttl ~key ~len () in
  (match kind with Df -> m.Mbuf.dont_fragment <- true | _ -> ());
  m

(* --- exemplar capture ------------------------------------------------ *)

let test_exemplars_resolve () =
  Slo.set_stamping true;
  Slo.clear_exemplars ();
  let r = mk_router () in
  let warm () = ignore (Ip_core.process r ~now:0L (mk_pkt Good 1)) in
  warm ();
  (* Arm a 1-cycle threshold: every packet breaches and captures. *)
  Slo.set_threshold 1;
  for i = 2 to 9 do
    ignore (Ip_core.process r ~now:0L (mk_pkt Good i))
  done;
  Slo.set_threshold 0;
  let exs = Slo.exemplars () in
  check bool_t "exemplars captured" true (List.length exs >= 1);
  List.iter
    (fun (e : Slo.exemplar) ->
      check bool_t "flow key resolved" true (e.key <> "");
      check bool_t "per-gate attribution resolved" true (e.gates <> []);
      check bool_t "cycles recorded" true (e.cycles >= 1);
      check int_t "threshold at capture time" 1 e.slo;
      check bool_t "renders" true
        (String.length (Slo.exemplar_to_string e) > 0))
    exs;
  check int_t "limit honored" 1 (List.length (Slo.exemplars ~limit:1 ()));
  Slo.clear_exemplars ();
  check int_t "cleared" 0 (List.length (Slo.exemplars ()))

(* --- latency histograms settle per frame ----------------------------- *)

(* A domain's latencies reach the histograms once per frame, so after
   [submit_batch] + [drain] (inline) or [flush] (sharded) the aggregate
   holds one observation per packet and each verdict class family
   matches its verdict counter — local delivery is the [absorb] class.
   Checked on deltas, since histograms and counters are process-wide. *)
let slo_totals () =
  let family cls =
    List.fold_left
      (fun a (_, c, h) -> if c = cls then a + Rp_obs.Histogram.total h else a)
      0 (Slo.shard_table ())
  in
  [
    ("slo.latency.cycles",
     Rp_obs.Histogram.total
       (Rp_obs.Registry.histogram ~bounds:Slo.latency_bounds "slo.latency.cycles"));
    ("fwd family", family Slo.Fwd);
    ("drop family", family Slo.Drop);
    ("absorb family", family Slo.Absorb);
    ("ip_core.packets", counter "ip_core.packets");
    ("ip_core.forwarded", counter "ip_core.forwarded");
    ("ip_core.dropped", counter "ip_core.dropped");
    ("absorbed + delivered_local",
     counter "ip_core.absorbed" + counter "ip_core.delivered_local");
  ]

let check_slo_exact label before =
  let d = List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (slo_totals ()) in
  let get k = List.assoc k d in
  check bool_t (label ^ ": packets seen") true (get "ip_core.packets" > 0);
  check int_t (label ^ ": one latency per packet") (get "ip_core.packets")
    (get "slo.latency.cycles");
  check int_t (label ^ ": fwd = forwarded") (get "ip_core.forwarded") (get "fwd family");
  check int_t (label ^ ": drop = dropped") (get "ip_core.dropped") (get "drop family");
  check bool_t (label ^ ": local deliveries seen") true
    (get "absorbed + delivered_local" > 0);
  check int_t (label ^ ": absorb = absorbed + local") (get "absorbed + delivered_local")
    (get "absorb family")

(* Every verdict class, a packet for the router itself included. *)
let slo_local = Ipaddr.v4 192 168 9 9

let slo_batch base =
  Array.of_list
    (List.concat
       (List.init 8 (fun j ->
            let f = base + (10 * j) in
            let local = mk_pkt Good (f + 9) in
            local.Mbuf.key <- { local.Mbuf.key with Flow_key.dst = slo_local };
            local
            :: List.mapi
                 (fun i k -> mk_pkt k (f + i))
                 [ Good; Good; Ttl_one; Unrouted; Faulting; Big; Df ])))

let slo_router () =
  let r = mk_router () in
  Router.add_local_addr r slo_local;
  r

let test_slo_exact_between_frames () =
  Slo.set_stamping true;
  Slo.set_threshold 0;
  let r = slo_router () in
  let e = Engine.create Engine.Inline r in
  for round = 0 to 2 do
    let before = slo_totals () in
    let b = slo_batch (100 * round) in
    let n = Array.length b in
    check int_t "inline: all admitted" n (Engine.submit_batch e ~now:0L b ~n);
    check int_t "inline: all drained" n (Engine.drain e ~f:ignore);
    check_slo_exact (Printf.sprintf "inline round %d" round) before
  done;
  Engine.stop e;
  let r = slo_router () in
  let e = Engine.create (Engine.Sharded 2) r in
  for round = 0 to 2 do
    let before = slo_totals () in
    let b = slo_batch (100 * round) in
    let n = Array.length b in
    check int_t "sharded: all admitted" n (Engine.submit_batch e ~now:0L b ~n);
    check int_t "sharded: all flushed" n (Engine.flush e ~f:ignore);
    check_slo_exact (Printf.sprintf "sharded:2 round %d" round) before
  done;
  Engine.stop e;
  (* A direct observation is not deferred. *)
  let before = slo_totals () in
  Slo.observe ~shard:0 Slo.Fwd 1_000;
  let after = slo_totals () in
  check int_t "observe lands in the aggregate at once" 1
    (List.assoc "slo.latency.cycles" after - List.assoc "slo.latency.cycles" before);
  check int_t "and in its class family" 1
    (List.assoc "fwd family" after - List.assoc "fwd family" before)

(* --- drop conservation (qcheck, both engines) ------------------------ *)

(* Registry counters persist across the whole test binary, so every
   invariant is checked on deltas around the workload.  Locally
   observed drop verdicts are a floor, not an equality: TTL and
   needs-frag drops emit ICMP errors that re-enter the data path and
   can drop again (no route back), each counted once under its own
   reason. *)
let drop_conservation_inline =
  qtest "drop conservation under random workloads (inline)"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 120) kind_gen)
    (fun kinds ->
      let r = mk_router ~fifo_limit:4 ~mtu:296 () in
      let v0 = sum_reasons Dr.verdict_reasons
      and a0 = sum_reasons Dr.all
      and t0 = Dr.total ()
      and core0 = counter "ip_core.dropped" in
      let dropped = ref 0 in
      List.iteri
        (fun i k ->
          match Ip_core.process r ~now:0L (mk_pkt k i) with
          | Ip_core.Dropped _ -> incr dropped
          | _ -> ())
        kinds;
      let verdicts = sum_reasons Dr.verdict_reasons - v0 in
      verdicts = counter "ip_core.dropped" - core0
      && verdicts >= !dropped
      && Dr.total () - t0 = sum_reasons Dr.all - a0)

let drop_conservation_sharded =
  qtest ~count:8 "drop conservation under random workloads (sharded:2)"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 150) kind_gen)
    (fun kinds ->
      let r = mk_router ~fifo_limit:4 ~mtu:296 () in
      let e = Engine.create ~rx_capacity:16 (Engine.Sharded 2) r in
      let v0 = sum_reasons Dr.verdict_reasons
      and a0 = sum_reasons Dr.all
      and t0 = Dr.total ()
      and bp0 = Dr.get Dr.Backpressure
      and ebp0 = counter "engine.backpressure_drops"
      and core0 = counter "ip_core.dropped" in
      let rejected = ref 0 and dropped = ref 0 in
      let record (res : Shard.result) =
        match res.Shard.outcome with
        | Shard.Dropped _ -> incr dropped
        | Shard.Forwarded _ | Shard.Absorbed -> ()
      in
      List.iteri
        (fun i k ->
          if not (Engine.submit e ~now:0L (mk_pkt k i)) then incr rejected;
          ignore (Engine.drain e ~f:record))
        kinds;
      ignore (Engine.flush e ~f:record);
      Engine.stop e;
      let verdicts = sum_reasons Dr.verdict_reasons - v0 in
      let engine_drops = counter "ip_core.dropped" - core0 in
      verdicts = engine_drops
      && engine_drops >= !dropped
      && Dr.get Dr.Backpressure - bp0 = !rejected
      && counter "engine.backpressure_drops" - ebp0 = !rejected
      && Dr.total () - t0 = sum_reasons Dr.all - a0)

(* --- link / pool drop sites ------------------------------------------ *)

let test_link_pool_reasons () =
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
      ~proto:Proto.udp ~sport:1 ~dport:9 ~iface:0
  in
  let l0 = Dr.get Dr.Link_overflow and t0 = Dr.total () in
  let link = Link.create ~capacity:2 () in
  check bool_t "tx 1" true (Link.transmit link (Mbuf.synth ~key ~len:64 ()));
  check bool_t "tx 2" true (Link.transmit link (Mbuf.synth ~key ~len:64 ()));
  check bool_t "tx on a full link refused" false
    (Link.transmit link (Mbuf.synth ~key ~len:64 ()));
  check int_t "link overflow counted once" 1 (Dr.get Dr.Link_overflow - l0);
  let p0 = Dr.get Dr.Pool_exhausted in
  let pool = Pool.create ~capacity:1 () in
  ignore (Pool.alloc pool ~key ~len:64);
  (match Pool.alloc pool ~key ~len:64 with
   | exception Pool.Empty -> ()
   | _ -> Alcotest.fail "expected the pool to be exhausted");
  check int_t "pool exhaustion counted once" 1 (Dr.get Dr.Pool_exhausted - p0);
  check int_t "family total follows" 2 (Dr.total () - t0)

(* --- health probes --------------------------------------------------- *)

let test_health_probes () =
  let v = ref 1.0 in
  Health.register "t.probe" (fun () -> !v);
  let find name =
    List.find_opt (fun (n, _, _) -> n = name) (Health.snapshot ())
  in
  let expect name last hwm =
    match find name with
    | Some (_, l, h) ->
      check float_t (name ^ " last") last l;
      check float_t (name ^ " hwm") hwm h
    | None -> Alcotest.failf "probe %s not in snapshot" name
  in
  let n0 = Health.samples () in
  Health.sample ();
  expect "t.probe" 1.0 1.0;
  v := 5.0;
  Health.sample ();
  expect "t.probe" 5.0 5.0;
  (* The watermark keeps the spike after the value falls back. *)
  v := 2.0;
  Health.sample ();
  expect "t.probe" 2.0 5.0;
  Health.reset_hwm ();
  expect "t.probe" 2.0 2.0;
  (* A probe that raises samples as 0 instead of breaking the loop. *)
  Health.register "t.raise" (fun () -> failwith "boom");
  Health.sample ();
  expect "t.raise" 0.0 0.0;
  check int_t "samples counted" 4 (Health.samples () - n0);
  check bool_t "renders" true (String.length (Health.to_string ()) > 0);
  Health.unregister "t.probe";
  Health.unregister "t.raise";
  check bool_t "unregistered" true (find "t.probe" = None)

(* --- Prometheus exposition ------------------------------------------- *)

let test_prom_roundtrip () =
  (* The live registry (counters, gauges, histograms from every suite
     that ran before this one) must pass its own linter. *)
  (match Prom.lint (Prom.text ()) with
   | Ok n -> check bool_t "samples rendered" true (n > 0)
   | Error e -> Alcotest.failf "exposition fails its own lint: %s" e);
  check string_t "name sanitization" "rp_slo_latency_cycles"
    (Prom.sanitize "slo.latency.cycles");
  let rejects label text =
    match Prom.lint text with
    | Ok _ -> Alcotest.failf "%s: lint accepted invalid exposition" label
    | Error _ -> ()
  in
  rejects "sample without TYPE" "rp_x 1\n";
  rejects "bad value" "# TYPE rp_x counter\nrp_x banana\n";
  rejects "non-monotonic buckets"
    "# TYPE rp_h histogram\nrp_h_bucket{le=\"1\"} 5\nrp_h_bucket{le=\"2\"} 3\n\
     rp_h_bucket{le=\"+Inf\"} 5\nrp_h_sum 5\nrp_h_count 5\n";
  rejects "missing +Inf"
    "# TYPE rp_h histogram\nrp_h_bucket{le=\"1\"} 5\nrp_h_sum 5\nrp_h_count 5\n";
  rejects "_count disagrees with +Inf"
    "# TYPE rp_h histogram\nrp_h_bucket{le=\"1\"} 5\n\
     rp_h_bucket{le=\"+Inf\"} 5\nrp_h_sum 5\nrp_h_count 4\n"

(* ---------------------------------------------------------------------- *)

let () =
  Alcotest.run "slo"
    [
      ( "drop-reason",
        [
          Alcotest.test_case "of_why classification table" `Quick
            test_of_why_table;
          Alcotest.test_case "conservation by construction" `Quick
            test_count_conservation_by_construction;
          Alcotest.test_case "link/pool drop sites" `Quick
            test_link_pool_reasons;
        ] );
      ( "slo",
        [
          Alcotest.test_case "breach semantics" `Quick
            test_slo_breach_semantics;
          Alcotest.test_case "shard histograms by class" `Quick
            test_slo_observe_shard_table;
          Alcotest.test_case "exemplars resolve" `Quick test_exemplars_resolve;
          Alcotest.test_case "histograms exact between frames" `Quick
            test_slo_exact_between_frames;
        ] );
      ( "conservation",
        [ drop_conservation_inline; drop_conservation_sharded ] );
      ( "health",
        [ Alcotest.test_case "probe lifecycle" `Quick test_health_probes ] );
      ( "prom",
        [ Alcotest.test_case "round-trip + rejects" `Quick
            test_prom_roundtrip ] );
    ]
