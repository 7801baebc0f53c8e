(* Tests for the discrete-event simulator: event ordering, the
   link/transmission model, traffic generators, sinks, and the canned
   scenarios. *)

open Rp_pkt
open Rp_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- engine ----------------------------------------------------------- *)

let test_event_ordering () =
  let sim = Rp_sim.Sim.create () in
  let log = ref [] in
  Rp_sim.Sim.at sim 30L (fun () -> log := 3 :: !log);
  Rp_sim.Sim.at sim 10L (fun () -> log := 1 :: !log);
  Rp_sim.Sim.at sim 20L (fun () -> log := 2 :: !log);
  (* Same-time events run in scheduling order. *)
  Rp_sim.Sim.at sim 10L (fun () -> log := 11 :: !log);
  ignore (Rp_sim.Sim.run sim);
  check bool_t "order" true (List.rev !log = [ 1; 11; 2; 3 ]);
  check bool_t "clock at last event" true (Rp_sim.Sim.now sim = 30L)

let test_until_and_past () =
  let sim = Rp_sim.Sim.create () in
  let fired = ref 0 in
  Rp_sim.Sim.at sim 100L (fun () -> incr fired);
  Rp_sim.Sim.at sim 200L (fun () -> incr fired);
  ignore (Rp_sim.Sim.run ~until:150L sim);
  check int_t "only first fired" 1 !fired;
  check bool_t "clock at until" true (Rp_sim.Sim.now sim = 150L);
  check int_t "one pending" 1 (Rp_sim.Sim.pending sim);
  (* Scheduling in the past is rejected. *)
  check bool_t "past rejected" true
    (try
       Rp_sim.Sim.at sim 10L (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_nested_scheduling () =
  let sim = Rp_sim.Sim.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Rp_sim.Sim.after sim 5L (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 10;
  ignore (Rp_sim.Sim.run sim);
  check int_t "chain completed" 10 !count;
  check bool_t "time advanced" true (Rp_sim.Sim.now sim = 50L)

let prop_heap_order =
  qtest "sim: events always fire in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 200) (int_bound 10_000))
    (fun times ->
      let sim = Rp_sim.Sim.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          let t64 = Int64.of_int t in
          Rp_sim.Sim.at sim t64 (fun () -> fired := t64 :: !fired))
        times;
      ignore (Rp_sim.Sim.run sim);
      let seq = List.rev !fired in
      List.length seq = List.length times
      && List.for_all2 ( = ) seq (List.stable_sort Int64.compare seq))

(* --- link timing -------------------------------------------------------- *)

let test_serialization_delay () =
  (* One packet through one router: delivery time = processing (0 in
     sim time) + serialization + propagation. *)
  let s =
    Rp_sim.Scenario.single_router ~mode:Router.Best_effort ~in_ifaces:1
      ~out_bandwidth_bps:8_000_000L ()
  in
  let key = Rp_sim.Scenario.sink_key ~id:1 () in
  let m = Mbuf.synth ~key ~len:1000 () in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node m ~at:1000L;
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  (* 1000 B at 8 Mb/s = 1 ms serialization; prop 10 us. *)
  match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink key with
  | Some fs ->
    let expect = Int64.add 1000L (Int64.add 1_000_000L 10_000L) in
    check bool_t
      (Printf.sprintf "arrival at %Ld" fs.Rp_sim.Sink.first_ns)
      true
      (fs.Rp_sim.Sink.first_ns = expect)
  | None -> Alcotest.fail "packet not delivered"

let test_link_busy_serializes () =
  (* Two back-to-back packets: the second waits for the first's
     serialization. *)
  let s =
    Rp_sim.Scenario.single_router ~mode:Router.Best_effort ~in_ifaces:1
      ~out_bandwidth_bps:8_000_000L ()
  in
  let key = Rp_sim.Scenario.sink_key ~id:1 () in
  let m1 = Mbuf.synth ~key ~len:1000 () in
  let m2 = Mbuf.synth ~key ~len:1000 () in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node m1 ~at:0L;
  Rp_sim.Net.inject s.Rp_sim.Scenario.node m2 ~at:0L;
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink key with
  | Some fs ->
    check int_t "both arrived" 2 fs.Rp_sim.Sink.packets;
    (* Second arrival exactly one serialization later. *)
    check bool_t "spaced by serialization" true
      (Int64.sub fs.Rp_sim.Sink.last_ns fs.Rp_sim.Sink.first_ns = 1_000_000L)
  | None -> Alcotest.fail "packets not delivered"

(* --- traffic generators --------------------------------------------------- *)

let run_pattern pattern ~seconds =
  let s = Rp_sim.Scenario.single_router ~mode:Router.Best_effort ~in_ifaces:1 () in
  let key = Rp_sim.Scenario.sink_key ~id:1 () in
  let injected =
    Rp_sim.Scenario.add_flow s
      {
        Rp_sim.Traffic.key;
        pkt_len = 500;
        pattern;
        start_ns = 0L;
        stop_ns = Rp_sim.Sim.ns_of_sec seconds;
        seed = 7;
      }
  in
  Rp_sim.Scenario.run s ~seconds:(seconds +. 1.0);
  (!injected, Rp_sim.Sink.total_packets s.Rp_sim.Scenario.sink)

let test_cbr_count () =
  let injected, delivered = run_pattern (Rp_sim.Traffic.Cbr 1000.0) ~seconds:1.0 in
  check int_t "cbr 1000 pps for 1 s" 1000 injected;
  check int_t "all delivered" injected delivered

let test_poisson_count () =
  let injected, delivered = run_pattern (Rp_sim.Traffic.Poisson 1000.0) ~seconds:2.0 in
  (* Mean 2000; 5 sigma ≈ 224. *)
  check bool_t (Printf.sprintf "poisson count plausible (%d)" injected) true
    (injected > 1700 && injected < 2300);
  check int_t "all delivered" injected delivered

let test_poisson_deterministic () =
  let a, _ = run_pattern (Rp_sim.Traffic.Poisson 500.0) ~seconds:1.0 in
  let b, _ = run_pattern (Rp_sim.Traffic.Poisson 500.0) ~seconds:1.0 in
  check int_t "same seed, same run" a b

let test_on_off_duty_cycle () =
  let injected, _ =
    run_pattern
      (Rp_sim.Traffic.On_off
         { rate_pps = 1000.0; on_ns = 100_000_000L; off_ns = 100_000_000L })
      ~seconds:1.0
  in
  (* 50% duty cycle of 1000 pps over 1 s ≈ 500. *)
  check bool_t (Printf.sprintf "on-off count (%d)" injected) true
    (injected >= 450 && injected <= 550)

let test_single_burst () =
  let injected, delivered =
    run_pattern (Rp_sim.Traffic.Single_burst { count = 37; gap_ns = 1000L }) ~seconds:1.0
  in
  check int_t "burst count" 37 injected;
  check int_t "delivered" 37 delivered

(* --- node accounting ------------------------------------------------------- *)

let test_node_stats_and_drops () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  (* One routable packet, one unroutable.  The node counts what it
     received; the outcomes are the router's egress counters and the
     process-wide verdict and drop-reason counters. *)
  let good = Mbuf.synth ~key:(Rp_sim.Scenario.sink_key ~id:1 ()) ~len:100 () in
  let bad_key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 9) ~dst:(Ipaddr.v4 8 8 8 8)
      ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0
  in
  let bad = Mbuf.synth ~key:bad_key ~len:100 () in
  let dropped () = Rp_obs.Counter.get (Rp_obs.Registry.counter "ip_core.dropped") in
  let no_route () = Rp_obs.Drop_reason.get Rp_obs.Drop_reason.No_route in
  let dropped0 = dropped () and no_route0 = no_route () in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node good ~at:0L;
  Rp_sim.Net.inject s.Rp_sim.Scenario.node bad ~at:10L;
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  let out = Router.iface s.Rp_sim.Scenario.router s.Rp_sim.Scenario.out_iface in
  check int_t "received" 2 (Rp_sim.Net.received s.Rp_sim.Scenario.node);
  check int_t "forwarded" 1 out.Iface.counters.Iface.tx_packets;
  check int_t "dropped" 1 (dropped () - dropped0);
  check int_t "drop reason recorded" 1 (no_route () - no_route0);
  check bool_t "cycles accounted" true (Rp_sim.Net.cycles_per_packet s.Rp_sim.Scenario.node > 0.0)

let test_two_router_chain () =
  (* r1 -> r2 -> sink; the FIX must not leak across routers. *)
  let sim = Rp_sim.Sim.create () in
  let mk () =
    [ Iface.create ~id:0 (); Iface.create ~id:1 () ]
  in
  let r1 = Router.create ~name:"r1" ~ifaces:(mk ()) () in
  let r2 = Router.create ~name:"r2" ~ifaces:(mk ()) () in
  Router.add_route r1 (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r2 (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let n1 = Rp_sim.Net.add_router sim r1 in
  let n2 = Rp_sim.Net.add_router sim r2 in
  let sink = Rp_sim.Sink.create () in
  Rp_sim.Net.connect n1 ~iface:1 (Rp_sim.Net.To_node (n2, 0)) ~prop_ns:1000L;
  Rp_sim.Net.connect n2 ~iface:1 (Rp_sim.Net.To_sink sink) ~prop_ns:1000L;
  let key = Rp_sim.Scenario.sink_key ~id:1 () in
  for i = 0 to 9 do
    let m = Mbuf.synth ~key ~len:500 () in
    m.Mbuf.seq <- i;
    Rp_sim.Net.inject n1 m ~at:(Int64.of_int (i * 1000))
  done;
  ignore (Rp_sim.Sim.run sim);
  check int_t "all through both hops" 10 (Rp_sim.Sink.total_packets sink);
  check int_t "r2 received all" 10 (Rp_sim.Net.received n2);
  (* TTL decremented twice. *)
  match Rp_sim.Sink.flows sink with
  | [ (_, fs) ] -> check int_t "one flow at sink" 10 fs.Rp_sim.Sink.packets
  | l -> Alcotest.failf "expected one flow, got %d" (List.length l)

(* --- synth generator -------------------------------------------------- *)

(* The rate cap's token bucket must hold at most one max-batch: a
   consumer that stalls for a long time resumes with a budget of [max],
   not an unbounded catch-up burst, and the forfeited tokens are
   counted in [capped]. *)
let test_synth_bucket_clamp () =
  let pool = Pool.create ~capacity:1024 () in
  let link = Link.create ~capacity:1024 () in
  let synth = Rp_sim.Synth.create ~rate_pps:1_000_000.0 ~pool () in
  (* 1 Mpps: one packet per microsecond.  First pull starts the rate
     epoch; 16 us later the bucket holds 16 tokens. *)
  ignore (Rp_sim.Synth.pull synth ~now_ns:0L link ~max:32);
  check int_t "16 tokens after 16 us" 16
    (Rp_sim.Synth.pull synth ~now_ns:16_000L link ~max:32);
  check int_t "no clamp yet" 0 (Rp_sim.Synth.capped synth);
  (* The consumer stalls for a millisecond: ~1000 tokens accrue, but
     the resumed pull is clamped to one max-batch... *)
  check int_t "stalled consumer resumes with one batch" 32
    (Rp_sim.Synth.pull synth ~now_ns:1_016_000L link ~max:32);
  check int_t "clamp counted" 1 (Rp_sim.Synth.capped synth);
  (* ...and the excess tokens were forfeited, not banked: the next
     pull a single microsecond later gets 1 token, not ~968. *)
  check int_t "bucket was reset, not drained" 1
    (Rp_sim.Synth.pull synth ~now_ns:1_017_000L link ~max:32);
  check int_t "still one clamp" 1 (Rp_sim.Synth.capped synth)

(* An unlimited source is budgeted by [max] alone — never counted as
   clamped, whatever the clock does. *)
let test_synth_unlimited_never_capped () =
  let pool = Pool.create ~capacity:1024 () in
  let link = Link.create ~capacity:1024 () in
  let synth = Rp_sim.Synth.create ~pool () in
  check int_t "full batch" 32 (Rp_sim.Synth.pull synth ~now_ns:0L link ~max:32);
  check int_t "full batch after a huge gap" 32
    (Rp_sim.Synth.pull synth ~now_ns:1_000_000_000L link ~max:32);
  check int_t "never capped" 0 (Rp_sim.Synth.capped synth);
  check int_t "generated counts sent packets" 64
    (Rp_sim.Synth.generated synth)

let () =
  Alcotest.run "rp_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "until / past" `Quick test_until_and_past;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          prop_heap_order;
        ] );
      ( "link",
        [
          Alcotest.test_case "serialization delay" `Quick test_serialization_delay;
          Alcotest.test_case "busy link serializes" `Quick test_link_busy_serializes;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "cbr count" `Quick test_cbr_count;
          Alcotest.test_case "poisson count" `Quick test_poisson_count;
          Alcotest.test_case "poisson deterministic" `Quick test_poisson_deterministic;
          Alcotest.test_case "on-off duty cycle" `Quick test_on_off_duty_cycle;
          Alcotest.test_case "single burst" `Quick test_single_burst;
        ] );
      ( "net",
        [
          Alcotest.test_case "node stats and drops" `Quick test_node_stats_and_drops;
          Alcotest.test_case "two-router chain" `Quick test_two_router_chain;
        ] );
      ( "synth",
        [
          Alcotest.test_case "token bucket clamped to one batch" `Quick
            test_synth_bucket_clamp;
          Alcotest.test_case "unlimited source never capped" `Quick
            test_synth_unlimited_never_capped;
        ] );
    ]
