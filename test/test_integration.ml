(* Integration tests: complete EISR configurations under simulated
   traffic — per-flow plugin selection across several gates, a VPN
   between two routers, SSP-driven reservations shaping bandwidth, hot
   rebinding under traffic, and flow-cache churn with recycling. *)

open Rp_pkt
open Rp_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let pmgr r cmd = ok (Rp_control.Pmgr.exec r cmd)

(* --- per-flow plugin selection (the SEC1/SEC2 picture of Figure 3) --- *)

let test_per_flow_instances () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  let r = s.Rp_sim.Scenario.router in
  (* Two stats instances, one per department prefix. *)
  ignore (pmgr r "modload stats");
  ignore (pmgr r "create stats");
  ignore (pmgr r "create stats");
  ignore (pmgr r "bind 1 <10.0.1.0/24, *, *, *, *, *>");
  ignore (pmgr r "bind 2 <10.0.2.0/24, *, *, *, *, *>");
  let inject id src n =
    for i = 0 to n - 1 do
      let key =
        Flow_key.make ~src ~dst:(Ipaddr.v4 192 168 1 1) ~proto:Proto.udp
          ~sport:(1000 + id) ~dport:9000 ~iface:0
      in
      let m = Mbuf.synth ~key ~len:100 () in
      Rp_sim.Net.inject s.Rp_sim.Scenario.node m
        ~at:(Int64.of_int ((i * 1000) + id))
    done
  in
  inject 1 (Ipaddr.v4 10 0 1 5) 7;
  inject 2 (Ipaddr.v4 10 0 2 5) 11;
  inject 3 (Ipaddr.v4 10 0 3 5) 3;  (* matches neither *)
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  (match Stats_plugin.totals_of ~instance_id:1 with
   | Some t ->
     check int_t "instance 1 saw dept-1 only" 7 t.Stats_plugin.packets
   | None -> Alcotest.fail "no totals for instance 1");
  (match Stats_plugin.totals_of ~instance_id:2 with
   | Some t ->
     check int_t "instance 2 saw dept-2 only" 11 t.Stats_plugin.packets
   | None -> Alcotest.fail "no totals for instance 2");
  check int_t "everything still forwarded" 21
    (Rp_sim.Sink.total_packets s.Rp_sim.Scenario.sink)

(* --- VPN: encrypt at one router, decrypt at the next ------------------ *)

let test_vpn_two_routers () =
  let sim = Rp_sim.Sim.create () in
  let mk name =
    Router.create ~name
      ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 () ]
      ()
  in
  let r1 = mk "vpn-a" and r2 = mk "vpn-b" in
  Router.add_route r1 (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r2 (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let n1 = Rp_sim.Net.add_router sim r1 in
  let n2 = Rp_sim.Net.add_router sim r2 in
  let sink = Rp_sim.Sink.create () in
  Rp_sim.Net.connect n1 ~iface:1 (Rp_sim.Net.To_node (n2, 0)) ~prop_ns:1000L;
  Rp_sim.Net.connect n2 ~iface:1 (Rp_sim.Net.To_sink sink) ~prop_ns:1000L;
  (* Shared SA; egress protection on r1, ingress verification on r2. *)
  Rp_crypto.Ipsec_plugin.add_sa ~name:"tunnel"
    (Rp_crypto.Sa.create ~spi:9l ~transform:Rp_crypto.Sa.Esp
       ~auth_key:"integration-auth" ~enc_key:"integration-enc" ());
  ignore (pmgr r1 "modload ipsec-out");
  ignore (pmgr r1 "create ipsec-out sa=tunnel");
  ignore (pmgr r1 "bind 1 <10.0.0.0/8, 192.168.0.0/16, UDP, *, *, *>");
  ignore (pmgr r2 "modload ipsec-in");
  ignore (pmgr r2 "create ipsec-in sa=tunnel");
  ignore (pmgr r2 "bind 1 <10.0.0.0/8, 192.168.0.0/16, UDP, *, *, *>");
  let secret = "the plans for the fourth quarter" in
  let observed_ciphertext = ref false in
  for i = 0 to 9 do
    let m =
      Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
        ~sport:5000 ~dport:9000 ~iface:0 ~payload:secret ()
    in
    m.Mbuf.seq <- i;
    Rp_sim.Net.inject n1 m ~at:(Int64.of_int (i * 100_000));
    ignore observed_ciphertext
  done;
  ignore (Rp_sim.Sim.run sim);
  check int_t "all delivered" 10 (Rp_sim.Sink.total_packets sink);
  (* r2 received protected packets (longer by the ipsec overhead) and
     stripped them; the sink sees original-size datagrams. *)
  let fs =
    match Rp_sim.Sink.flows sink with
    | [ (_, fs) ] -> fs
    | l -> Alcotest.failf "expected one flow at sink, got %d" (List.length l)
  in
  let clear_len = Ipv4_header.size + Udp_header.size + String.length secret in
  check int_t "sink sees cleartext size" (10 * clear_len) fs.Rp_sim.Sink.bytes;
  let r2_rx = (Router.iface r2 0).Iface.counters.Iface.rx_bytes in
  check int_t "middle link carried protected size"
    (10 * (clear_len + Rp_crypto.Ipsec_plugin.overhead))
    r2_rx

(* VPN across a small-MTU middle link: ESP inflation pushes packets
   past the MTU, gw-a's egress fragments, gw-b's security-in gate
   reassembles before verifying and decrypting. *)
let test_vpn_with_fragmentation () =
  let sim = Rp_sim.Sim.create () in
  let mk name mtu1 =
    Router.create ~name
      ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 ~mtu:mtu1 () ]
      ()
  in
  let r1 = mk "frag-a" 600 (* small MTU toward r2 *) in
  let r2 = mk "frag-b" 9180 in
  Router.add_route r1 (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r2 (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let n1 = Rp_sim.Net.add_router sim r1 in
  let n2 = Rp_sim.Net.add_router sim r2 in
  let sink = Rp_sim.Sink.create () in
  Rp_sim.Net.connect n1 ~iface:1 (Rp_sim.Net.To_node (n2, 0)) ~prop_ns:1000L;
  Rp_sim.Net.connect n2 ~iface:1 (Rp_sim.Net.To_sink sink) ~prop_ns:1000L;
  Rp_crypto.Ipsec_plugin.add_sa ~name:"frag-tunnel"
    (Rp_crypto.Sa.create ~spi:31l ~transform:Rp_crypto.Sa.Esp
       ~auth_key:"fa" ~enc_key:"fe" ());
  ignore (pmgr r1 "modload ipsec-out");
  ignore (pmgr r1 "create ipsec-out sa=frag-tunnel");
  ignore (pmgr r1 "bind 1 <10.0.0.0/8, *, UDP, *, *, *>");
  ignore (pmgr r2 "modload ipsec-in");
  ignore (pmgr r2 "create ipsec-in sa=frag-tunnel");
  ignore (pmgr r2 "bind 1 <10.0.0.0/8, *, UDP, *, *, *>");
  (* 1000-byte payload: protected datagram ~1048 bytes > 600 MTU. *)
  let payload = String.init 1000 (fun i -> Char.chr (i land 0xFF)) in
  for i = 1 to 5 do
    let m =
      Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 20)
        ~sport:4433 ~dport:4433 ~iface:0 ~payload ()
    in
    m.Mbuf.ident <- i;
    m.Mbuf.seq <- i;
    Rp_sim.Net.inject n1 m ~at:(Int64.of_int (i * 1_000_000))
  done;
  ignore (Rp_sim.Sim.run sim);
  (* r2 received 2 fragments per datagram, reassembled and decrypted. *)
  check int_t "fragments on the wire" 10 (Rp_sim.Net.received n2);
  check bool_t "reassembled at security-in" true
    (Rp_crypto.Ipsec_plugin.in_reassembled ~instance_id:1 = Some 5);
  check int_t "five datagrams delivered" 5 (Rp_sim.Sink.total_packets sink);
  match Rp_sim.Sink.flows sink with
  | [ (_, fs) ] ->
    let clear = Ipv4_header.size + Udp_header.size + String.length payload in
    check int_t "cleartext size restored" (5 * clear) fs.Rp_sim.Sink.bytes
  | l -> Alcotest.failf "expected one flow, got %d" (List.length l)

(* --- SSP reservation shapes bandwidth --------------------------------- *)

let test_ssp_reservation_bandwidth () =
  (* Slow output link; two competing CBR flows at equal offered load.
     Flow 1 reserves 3x.  Its goodput must be ~3x flow 2's. *)
  let s =
    Rp_sim.Scenario.single_router ~in_ifaces:1 ~out_bandwidth_bps:8_000_000L ()
  in
  let r = s.Rp_sim.Scenario.router in
  ignore (pmgr r "modload drr");
  ignore (pmgr r "create drr");
  ignore (pmgr r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface));
  ignore (pmgr r "bind 1 <*, *, UDP, *, *, *>");
  ignore (Rp_control.Ssp.attach r);
  let flow1 = Rp_sim.Scenario.sink_key ~id:1 () in
  let flow2 = Rp_sim.Scenario.sink_key ~id:2 () in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node
    (Rp_control.Ssp.setup_packet ~src:flow1.Flow_key.src ~flow:flow1
       ~rate_bps:6_000_000)
    ~at:0L;
  Rp_sim.Net.inject s.Rp_sim.Scenario.node
    (Rp_control.Ssp.setup_packet ~src:flow2.Flow_key.src ~flow:flow2
       ~rate_bps:2_000_000)
    ~at:10L;
  (* Offered: 2 x 8 Mb/s onto an 8 Mb/s link. *)
  List.iter
    (fun key ->
      ignore
        (Rp_sim.Scenario.add_flow s
           {
             Rp_sim.Traffic.key;
             pkt_len = 1000;
             pattern = Rp_sim.Traffic.Cbr 1000.0;
             start_ns = 1_000_000L;
             stop_ns = Rp_sim.Sim.ns_of_sec 2.0;
             seed = 0;
           }))
    [ flow1; flow2 ];
  Rp_sim.Scenario.run s ~seconds:2.5;
  let g key =
    match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink key with
    | Some fs -> Rp_sim.Sink.goodput_bps fs
    | None -> 0.0
  in
  let g1 = g flow1 and g2 = g flow2 in
  let ratio = g1 /. g2 in
  check bool_t
    (Printf.sprintf "reserved flow gets ~3x (got %.2f: %.0f vs %.0f)" ratio g1 g2)
    true
    (ratio > 2.5 && ratio < 3.5)

(* --- DRR schedules on either engine -------------------------------- *)

(* Two flows, each offering the whole 8 Mb/s link (2x overload), into a
   DRR queue that weights them 3:1.  Only what left the link while both
   flows were backlogged counts, so the shares are the scheduler's.
   The same tolerance as the unit test: 3:1 of 40 is 30 +/- 3. *)
let test_drr_shares_on engine () =
  let s =
    Rp_sim.Scenario.single_router ~engine ~in_ifaces:1
      ~out_bandwidth_bps:8_000_000L ()
  in
  let r = s.Rp_sim.Scenario.router in
  ignore (pmgr r "modload drr");
  ignore (pmgr r "create drr");
  ignore (pmgr r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface));
  ignore (pmgr r "bind 1 <*, *, UDP, *, *, *>");
  let flow1 = Rp_sim.Scenario.sink_key ~id:1 () in
  let flow2 = Rp_sim.Scenario.sink_key ~id:2 () in
  ok (Rp_sched.Drr_plugin.reserve ~instance_id:1 ~key:flow1 ~rate_bps:6_000_000);
  ok (Rp_sched.Drr_plugin.reserve ~instance_id:1 ~key:flow2 ~rate_bps:2_000_000);
  List.iter
    (fun key ->
      ignore
        (Rp_sim.Scenario.add_flow s
           {
             Rp_sim.Traffic.key;
             pkt_len = 1000;
             pattern = Rp_sim.Traffic.Cbr 1000.0;
             start_ns = 0L;
             stop_ns = Rp_sim.Sim.ns_of_sec 0.2;
             seed = 0;
           }))
    [ flow1; flow2 ];
  Rp_sim.Scenario.run s ~seconds:0.2;
  Rp_engine.Engine.stop (Rp_sim.Net.engine s.Rp_sim.Scenario.node);
  let sent key =
    match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink key with
    | Some fs -> fs.Rp_sim.Sink.packets
    | None -> 0
  in
  let c1 = sent flow1 and c2 = sent flow2 in
  let share = float_of_int c1 /. float_of_int (c1 + c2) in
  check bool_t
    (Printf.sprintf "link saturated (%d packets)" (c1 + c2))
    true
    (c1 + c2 >= 190);
  check bool_t
    (Printf.sprintf "3:1 shares (got %d:%d)" c1 c2)
    true
    (share >= 27. /. 40. && share <= 33. /. 40.)

(* --- hot rebinding under traffic --------------------------------------- *)

let test_rebind_under_traffic () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  let r = s.Rp_sim.Scenario.router in
  ignore (pmgr r "modload firewall");
  ignore (pmgr r "create firewall policy=accept");
  ignore (pmgr r "bind 1 <*, *, UDP, *, *, *>");
  let key = Rp_sim.Scenario.sink_key ~id:1 () in
  let policy_drops () = Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Policy in
  let drops0 = policy_drops () in
  ignore
    (Rp_sim.Scenario.add_flow s
       {
         Rp_sim.Traffic.key;
         pkt_len = 500;
         pattern = Rp_sim.Traffic.Cbr 1000.0;
         start_ns = 0L;
         stop_ns = Rp_sim.Sim.ns_of_sec 1.0;
         seed = 0;
       });
  (* Halfway through, swap the policy to deny (new instance, rebind). *)
  Rp_sim.Sim.at s.Rp_sim.Scenario.sim (Rp_sim.Sim.ns_of_sec 0.5) (fun () ->
      ignore (pmgr r "create firewall policy=deny");
      ignore (pmgr r "bind 2 <*, *, UDP, *, *, *>");
      ignore (pmgr r "unbind 1 <*, *, UDP, *, *, *>"));
  Rp_sim.Scenario.run s ~seconds:1.5;
  let delivered = Rp_sim.Sink.total_packets s.Rp_sim.Scenario.sink in
  let dropped = policy_drops () - drops0 in
  (* ~500 packets pass, ~500 are denied. *)
  check bool_t (Printf.sprintf "half passed (%d)" delivered) true
    (delivered > 450 && delivered < 550);
  check bool_t (Printf.sprintf "half denied (%d)" dropped) true
    (dropped > 450 && dropped < 550);
  check int_t "conservation" 1000 (delivered + dropped)

(* --- flow-cache churn with recycling ------------------------------------ *)

let test_flow_cache_churn () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 ~flow_max:64 () in
  let r = s.Rp_sim.Scenario.router in
  ignore (pmgr r "modload stats");
  ignore (pmgr r "create stats");
  ignore (pmgr r "bind 1 <*, *, *, *, *, *>");
  (* 500 distinct one-packet flows: far beyond the 64-record cap. *)
  for id = 0 to 499 do
    let m = Mbuf.synth ~key:(Rp_sim.Scenario.sink_key ~id ()) ~len:200 () in
    Rp_sim.Net.inject s.Rp_sim.Scenario.node m ~at:(Int64.of_int (id * 1000))
  done;
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  check int_t "all forwarded despite recycling" 500
    (Rp_sim.Sink.total_packets s.Rp_sim.Scenario.sink);
  let ft = Rp_classifier.Aiu.flow_table (Router.aiu r) in
  check bool_t "capacity capped" true (Rp_classifier.Flow_table.capacity ft <= 64);
  let st = Rp_classifier.Flow_table.stats ft in
  check bool_t "recycling happened" true (st.Rp_classifier.Flow_table.recycled > 300);
  (match Stats_plugin.totals_of ~instance_id:1 with
   | Some t -> check int_t "stats saw every packet" 500 t.Stats_plugin.packets
   | None -> Alcotest.fail "no stats totals")

(* --- expiry housekeeping ------------------------------------------------ *)

let test_flow_expiry_under_traffic () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  let r = s.Rp_sim.Scenario.router in
  (* Two flows: one stops early, one keeps going. *)
  List.iter
    (fun (id, stop) ->
      ignore
        (Rp_sim.Scenario.add_flow s
           {
             Rp_sim.Traffic.key = Rp_sim.Scenario.sink_key ~id ();
             pkt_len = 200;
             pattern = Rp_sim.Traffic.Cbr 100.0;
             start_ns = 0L;
             stop_ns = Rp_sim.Sim.ns_of_sec stop;
             seed = id;
           }))
    [ (1, 0.2); (2, 2.0) ];
  Rp_sim.Scenario.run s ~seconds:1.0;
  let evicted =
    Router.expire_flows r ~now:(Rp_sim.Sim.now s.Rp_sim.Scenario.sim)
      ~idle_ns:(Rp_sim.Sim.ns_of_sec 0.5)
  in
  check int_t "idle flow evicted" 1 evicted;
  let ft = Rp_classifier.Aiu.flow_table (Router.aiu r) in
  check int_t "active flow kept" 1 (Rp_classifier.Flow_table.length ft);
  (* Traffic continues unharmed after expiry. *)
  Rp_sim.Scenario.run s ~seconds:2.2;
  check bool_t "flow 2 unaffected" true
    (match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink (Rp_sim.Scenario.sink_key ~id:2 ()) with
     | Some fs -> fs.Rp_sim.Sink.packets >= 195
     | None -> false)

let () =
  Alcotest.run "integration"
    [
      ( "eisr",
        [
          Alcotest.test_case "per-flow plugin instances" `Quick
            test_per_flow_instances;
          Alcotest.test_case "vpn across two routers" `Quick test_vpn_two_routers;
          Alcotest.test_case "vpn with fragmentation" `Quick
            test_vpn_with_fragmentation;
          Alcotest.test_case "ssp reservation shapes bandwidth" `Quick
            test_ssp_reservation_bandwidth;
          Alcotest.test_case "drr shares inline" `Quick
            (test_drr_shares_on Rp_engine.Engine.Inline);
          Alcotest.test_case "drr shares sharded:2" `Quick
            (test_drr_shares_on (Rp_engine.Engine.Sharded 2));
          Alcotest.test_case "rebind under traffic" `Quick test_rebind_under_traffic;
          Alcotest.test_case "flow-cache churn" `Quick test_flow_cache_churn;
          Alcotest.test_case "flow expiry" `Quick test_flow_expiry_under_traffic;
        ] );
    ]
