(* Tests for the control plane: the pmgr command interpreter
   (including the paper's §6.1-style DRR configuration script) and the
   SSP daemon (encoding, end-to-end reservation installation along a
   path, teardown). *)

open Rp_pkt
open Rp_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let mk_router () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  r

(* --- pmgr ------------------------------------------------------------- *)

let test_pmgr_modload_create_bind () =
  let r = mk_router () in
  check string_t "modload" "loaded drr" (ok (Rp_control.Pmgr.exec r "modload drr"));
  let out = ok (Rp_control.Pmgr.exec r "create drr quantum=1024") in
  check string_t "create reports id" "instance 1" out;
  let out = ok (Rp_control.Pmgr.exec r "bind 1 <10.0.0.0/8, *, UDP, *, *, *>") in
  check bool_t "bind echoes filter" true
    (String.length out > 0 && out.[0] = 'b');
  check string_t "attach" "if1 qdisc = drr#1" (ok (Rp_control.Pmgr.exec r "attach 1 1"));
  check string_t "detach" "if1 qdisc = fifo" (ok (Rp_control.Pmgr.exec r "detach 1"))

let test_pmgr_paper_script () =
  (* The §6.1 flavour: load DRR, create an instance for interface 1,
     attach it, bind a flow set, reserve bandwidth for one flow. *)
  let r = mk_router () in
  let script =
    "# configure weighted DRR on if1\n\
     modload drr\n\
     create drr iface=1 quantum=512\n\
     attach 1 1\n\
     bind 1 <10.0.0.0/8, *, UDP, *, *, *>\n\
     reserve 1 2000000 <10.0.0.5, 192.168.1.1, UDP, 5000, 9000, if0>\n\
     show instances\n"
  in
  let outputs = ok (Rp_control.Pmgr.exec_script r script) in
  check int_t "six commands ran" 6 (List.length outputs);
  (* The reservation produced a weight and an exact filter binding. *)
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 5) ~dst:(Ipaddr.v4 192 168 1 1)
      ~proto:Proto.udp ~sport:5000 ~dport:9000 ~iface:0
  in
  check bool_t "reservation installed" true
    (Rp_sched.Drr_plugin.weight_of ~instance_id:1 ~key <> None);
  check int_t "two filters bound" 2
    (List.length (Pcu.bindings_of r.Router.pcu ~instance:1))

let test_pmgr_errors () =
  let r = mk_router () in
  let expect_err cmd =
    match Rp_control.Pmgr.exec r cmd with
    | Error _ -> ()
    | Ok out -> Alcotest.failf "expected error for %S, got %S" cmd out
  in
  expect_err "modload no-such-plugin";
  expect_err "create drr";  (* not loaded *)
  expect_err "bind 1 <10.0.0.0/8, *, UDP, *, *, *>";  (* no instance *)
  expect_err "bind 1 not-a-filter";
  expect_err "route add not-a-prefix 0";
  expect_err "show nonsense";
  expect_err "frobnicate";
  (* attach of a non-scheduler instance *)
  ignore (ok (Rp_control.Pmgr.exec r "modload stats"));
  ignore (ok (Rp_control.Pmgr.exec r "create stats"));
  expect_err "attach 1 0";
  (* reserve needs an exact filter *)
  ignore (ok (Rp_control.Pmgr.exec r "modload drr"));
  ignore (ok (Rp_control.Pmgr.exec r "create drr"));
  expect_err "reserve 2 1000 <10.0.0.0/8, *, UDP, *, *, *>"

let test_pmgr_script_error_line () =
  let r = mk_router () in
  match Rp_control.Pmgr.exec_script r "modload drr\nbogus command\n" with
  | Error e ->
    check bool_t "line number reported" true
      (String.length e >= 7 && String.sub e 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "expected script error"

let test_pmgr_show_routes_flows () =
  let r = mk_router () in
  let routes = ok (Rp_control.Pmgr.exec r "show routes") in
  check bool_t "route listed" true
    (String.length routes > 0);
  let flows = ok (Rp_control.Pmgr.exec r "show flows") in
  check bool_t "flow stats format" true
    (String.length flows >= 5 && String.sub flows 0 5 = "live=")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_pmgr_fault_commands () =
  let r = mk_router () in
  check string_t "policy" "fault policy = continue"
    (ok (Rp_control.Pmgr.exec r "fault policy continue"));
  check string_t "budget" "fault budget = 5000 cycles"
    (ok (Rp_control.Pmgr.exec r "fault budget 5000"));
  check string_t "budget off" "fault budget = unlimited"
    (ok (Rp_control.Pmgr.exec r "fault budget off"));
  check string_t "threshold" "fault threshold = 2 consecutive"
    (ok (Rp_control.Pmgr.exec r "fault threshold 2"));
  (* Manual quarantine round trip on a real instance. *)
  ignore (ok (Rp_control.Pmgr.exec r "modload fault-firewall"));
  ignore (ok (Rp_control.Pmgr.exec r "create fault-firewall mode=raise"));
  ignore (ok (Rp_control.Pmgr.exec r "bind 1 <*, *, UDP, *, *, *>"));
  check string_t "quarantine" "instance 1 quarantined"
    (ok (Rp_control.Pmgr.exec r "plugin quarantine 1"));
  check bool_t "faults show flags it" true
    (contains ~needle:"QUARANTINED" (ok (Rp_control.Pmgr.exec r "faults show")));
  (match Rp_control.Pmgr.exec r "plugin quarantine 1" with
   | Error _ -> ()
   | Ok out -> Alcotest.failf "double quarantine accepted: %S" out);
  check string_t "restore" "instance 1 restored"
    (ok (Rp_control.Pmgr.exec r "plugin restore 1"));
  check bool_t "flag cleared" false
    (contains ~needle:"QUARANTINED" (ok (Rp_control.Pmgr.exec r "faults show")));
  match Rp_control.Pmgr.exec r "fault policy bogus" with
  | Error _ -> ()
  | Ok out -> Alcotest.failf "bad policy accepted: %S" out

(* --- SSP ---------------------------------------------------------------- *)

let flow_of_id id =
  Flow_key.make ~src:(Ipaddr.v4 10 0 0 id) ~dst:(Ipaddr.v4 192 168 1 1)
    ~proto:Proto.udp ~sport:(4000 + id) ~dport:9000 ~iface:0

let prop_ssp_codec_roundtrip =
  qtest "ssp: decode (encode m) = m"
    QCheck2.Gen.(
      triple bool (int_range 1 200) (int_range 0 10_000_000))
    (fun (setup, id, rate) ->
      let flow = flow_of_id id in
      let msg =
        if setup then Rp_control.Ssp.Setup { flow; rate_bps = rate }
        else Rp_control.Ssp.Teardown { flow }
      in
      match Rp_control.Ssp.decode (Rp_control.Ssp.encode msg) with
      | Ok msg' -> msg = msg'
      | Error _ -> false)

let test_ssp_codec_v6 () =
  let flow =
    Flow_key.make ~src:(Ipaddr.of_string "2001:db8::1")
      ~dst:(Ipaddr.of_string "2001:db8::2") ~proto:Proto.udp ~sport:1 ~dport:2
      ~iface:0
  in
  let msg = Rp_control.Ssp.Setup { flow; rate_bps = 42 } in
  check bool_t "v6 roundtrip" true
    (Rp_control.Ssp.decode (Rp_control.Ssp.encode msg) = Ok msg);
  check bool_t "truncated rejected" true
    (Result.is_error (Rp_control.Ssp.decode (Bytes.create 3)))

(* End to end: SETUP crosses a router with DRR on the egress and
   installs the reservation there, then continues downstream. *)
let test_ssp_installs_reservation () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  let r = s.Rp_sim.Scenario.router in
  ignore (ok (Rp_control.Pmgr.exec r "modload drr"));
  ignore (ok (Rp_control.Pmgr.exec r "create drr"));
  ignore (ok (Rp_control.Pmgr.exec r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface)));
  let daemon = Rp_control.Ssp.attach r in
  let flow = flow_of_id 1 in
  let setup =
    Rp_control.Ssp.setup_packet ~src:(Ipaddr.v4 10 0 0 1) ~flow
      ~rate_bps:3_000_000
  in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node setup ~at:0L;
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  (match Rp_control.Ssp.reservations daemon with
   | [ (f, rate, inst) ] ->
     check bool_t "flow recorded" true
       (Flow_key.equal f { flow with Flow_key.iface = 0 });
     check int_t "rate" 3_000_000 rate;
     check int_t "instance" 1 inst
   | l -> Alcotest.failf "expected one reservation, got %d" (List.length l));
  check int_t "no failures" 0 (Rp_control.Ssp.failures daemon);
  (* The message continued downstream to the sink. *)
  check int_t "setup forwarded" 1 (Rp_sim.Sink.total_packets s.Rp_sim.Scenario.sink);
  (* Teardown removes it. *)
  let td = Rp_control.Ssp.teardown_packet ~src:(Ipaddr.v4 10 0 0 1) ~flow in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node td ~at:(Int64.add (Rp_sim.Sim.now s.Rp_sim.Scenario.sim) 10L);
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  check int_t "torn down" 0 (List.length (Rp_control.Ssp.reservations daemon))

(* A control message as a host puts it on the wire: an IPv4 header from
   the header serializer, then the message, parsed like any arrival. *)
let wire ~src ~dst ~proto ?(iface = 0) msg =
  let len = Ipv4_header.size + Bytes.length msg in
  let buf = Bytes.create len in
  Ipv4_header.serialize (Ipv4_header.default ~total_length:len ~proto ~src ~dst ()) buf 0;
  Bytes.blit msg 0 buf Ipv4_header.size (Bytes.length msg);
  match Mbuf.of_bytes ~iface buf with
  | Ok m -> m
  | Error e -> Alcotest.failf "of_bytes: %a" Mbuf.pp_error e

(* Regression: a SETUP that arrives as wire bytes installs its
   reservation, as the one [setup_packet] builds does. *)
let test_ssp_wire_setup () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  let r = s.Rp_sim.Scenario.router in
  ignore (ok (Rp_control.Pmgr.exec r "modload drr"));
  ignore (ok (Rp_control.Pmgr.exec r "create drr"));
  ignore (ok (Rp_control.Pmgr.exec r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface)));
  let daemon = Rp_control.Ssp.attach r in
  let flow = flow_of_id 1 in
  let setup =
    wire ~src:(Ipaddr.v4 10 0 0 1) ~dst:flow.Flow_key.dst ~proto:Proto.ssp
      (Rp_control.Ssp.encode (Rp_control.Ssp.Setup { flow; rate_bps = 3_000_000 }))
  in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node setup ~at:0L;
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  check int_t "no failures" 0 (Rp_control.Ssp.failures daemon);
  match Rp_control.Ssp.reservations daemon with
  | [ (f, rate, _) ] ->
    check bool_t "flow recorded" true (Flow_key.equal f { flow with Flow_key.iface = 0 });
    check int_t "rate" 3_000_000 rate
  | l -> Alcotest.failf "expected one reservation, got %d" (List.length l)

let test_ssp_no_drr_counts_failure () =
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  let daemon = Rp_control.Ssp.attach s.Rp_sim.Scenario.router in
  let setup =
    Rp_control.Ssp.setup_packet ~src:(Ipaddr.v4 10 0 0 1) ~flow:(flow_of_id 1)
      ~rate_bps:1000
  in
  Rp_sim.Net.inject s.Rp_sim.Scenario.node setup ~at:0L;
  ignore (Rp_sim.Sim.run s.Rp_sim.Scenario.sim);
  check int_t "failure counted" 1 (Rp_control.Ssp.failures daemon);
  check int_t "no reservation" 0 (List.length (Rp_control.Ssp.reservations daemon))

(* --- RSVP ----------------------------------------------------------------- *)

let prop_rsvp_codec_roundtrip =
  qtest "rsvp: decode (encode m) = m"
    QCheck2.Gen.(triple bool (int_range 1 200) (int_range 0 10_000_000))
    (fun (is_path, id, rate) ->
      let flow = flow_of_id id in
      let msg =
        if is_path then
          Rp_control.Rsvp.Path { flow; phop = Ipaddr.v4 172 31 0 (1 + (id mod 200)) }
        else Rp_control.Rsvp.Resv { flow; rate_bps = rate }
      in
      Rp_control.Rsvp.decode (Rp_control.Rsvp.encode msg) = Ok msg)

(* Two RSVP routers in a chain: PATH downstream records per-hop state,
   the receiver's RESV travels back along the previous hops and
   installs reservations at every hop. *)
let rsvp_chain () =
  let sim = Rp_sim.Sim.create () in
  let mk name addr =
    let r =
      Router.create ~name
        ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 (); Iface.create ~id:2 () ]
        ()
    in
    Router.add_local_addr r addr;
    Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
    r
  in
  let r1_addr = Ipaddr.v4 172 31 0 1 and r2_addr = Ipaddr.v4 172 31 0 2 in
  let r1 = mk "rsvp-1" r1_addr and r2 = mk "rsvp-2" r2_addr in
  (* Upstream back-channel for RESV relay. *)
  Router.add_route r2 (Prefix.host r1_addr) ~iface:2 ();
  let n1 = Rp_sim.Net.add_router sim r1 in
  let n2 = Rp_sim.Net.add_router sim r2 in
  let sink = Rp_sim.Sink.create () in
  Rp_sim.Net.connect n1 ~iface:1 (Rp_sim.Net.To_node (n2, 0)) ~prop_ns:1000L;
  Rp_sim.Net.connect n2 ~iface:1 (Rp_sim.Net.To_sink sink) ~prop_ns:1000L;
  Rp_sim.Net.connect n2 ~iface:2 (Rp_sim.Net.To_node (n1, 0)) ~prop_ns:1000L;
  (* DRR on both downstream interfaces. *)
  List.iter
    (fun r ->
      ignore (ok (Rp_control.Pmgr.exec r "modload drr"));
      ignore (ok (Rp_control.Pmgr.exec r "create drr"));
      ignore (ok (Rp_control.Pmgr.exec r "attach 1 1")))
    [ r1; r2 ];
  let d1 = Rp_control.Rsvp.attach r1 in
  let d2 = Rp_control.Rsvp.attach r2 in
  (sim, n1, n2, d1, d2, r1_addr, r2_addr)

let test_rsvp_end_to_end () =
  let sim, n1, n2, d1, d2, r1_addr, r2_addr = rsvp_chain () in
  let sender = Ipaddr.v4 10 0 0 1 in
  let flow =
    Flow_key.make ~src:sender ~dst:(Ipaddr.v4 192 168 1 1) ~proto:Proto.udp
      ~sport:4000 ~dport:9000 ~iface:0
  in
  (* PATH from the sender crosses both routers. *)
  Rp_sim.Net.inject n1 (Rp_control.Rsvp.path_packet ~sender ~flow) ~at:0L;
  ignore (Rp_sim.Sim.run sim);
  (match Rp_control.Rsvp.path_state d1 with
   | [ (_, phop, out) ] ->
     check bool_t "r1 phop = sender" true (Ipaddr.equal phop sender);
     check int_t "r1 downstream iface" 1 out
   | l -> Alcotest.failf "r1 path entries: %d" (List.length l));
  (match Rp_control.Rsvp.path_state d2 with
   | [ (_, phop, _) ] ->
     check bool_t "r2 phop = r1" true (Ipaddr.equal phop r1_addr)
   | l -> Alcotest.failf "r2 path entries: %d" (List.length l));
  (* The receiver (beyond r2) sends RESV to its last hop, r2. *)
  let resv =
    Rp_control.Rsvp.resv_packet ~receiver:(Ipaddr.v4 192 168 1 1)
      ~to_hop:r2_addr ~flow ~rate_bps:2_000_000
  in
  resv.Mbuf.key <- { resv.Mbuf.key with Flow_key.iface = 1 };
  Rp_sim.Net.inject n2 resv ~at:(Int64.add (Rp_sim.Sim.now sim) 10L);
  ignore (Rp_sim.Sim.run sim);
  check int_t "r2 reservation" 1 (List.length (Rp_control.Rsvp.reservations d2));
  check int_t "r1 reservation" 1 (List.length (Rp_control.Rsvp.reservations d1));
  check int_t "no failures" 0
    (Rp_control.Rsvp.failures d1 + Rp_control.Rsvp.failures d2);
  (* Both hops gave the flow its weight. *)
  let key0 = { flow with Flow_key.iface = 0 } in
  check bool_t "r1 weight" true
    (Rp_sched.Drr_plugin.weight_of ~instance_id:1 ~key:key0 <> Some 0);
  (* Soft state: without refresh, tick tears everything down. *)
  let later = Int64.add (Rp_sim.Sim.now sim) 60_000_000_000L in
  let p1, v1 = Rp_control.Rsvp.tick d1 ~now:later ~lifetime_ns:30_000_000_000L in
  let p2, v2 = Rp_control.Rsvp.tick d2 ~now:later ~lifetime_ns:30_000_000_000L in
  check int_t "expired everywhere" 4 (p1 + v1 + p2 + v2);
  check int_t "r1 resv gone" 0 (List.length (Rp_control.Rsvp.reservations d1));
  check int_t "r2 paths gone" 0 (List.length (Rp_control.Rsvp.path_state d2))

(* Regression: PATH and RESV that arrive as wire bytes set up the same
   state as the ones [path_packet] and [resv_packet] build. *)
let test_rsvp_wire () =
  let sim, n1, n2, d1, d2, r1_addr, r2_addr = rsvp_chain () in
  let sender = Ipaddr.v4 10 0 0 1 and receiver = Ipaddr.v4 192 168 1 1 in
  let flow =
    Flow_key.make ~src:sender ~dst:receiver ~proto:Proto.udp ~sport:4000 ~dport:9000
      ~iface:0
  in
  Rp_sim.Net.inject n1
    (wire ~src:sender ~dst:receiver ~proto:Proto.rsvp
       (Rp_control.Rsvp.encode (Rp_control.Rsvp.Path { flow; phop = sender })))
    ~at:0L;
  ignore (Rp_sim.Sim.run sim);
  (match Rp_control.Rsvp.path_state d2 with
   | [ (_, phop, _) ] -> check bool_t "r2 phop = r1" true (Ipaddr.equal phop r1_addr)
   | l -> Alcotest.failf "r2 path entries: %d" (List.length l));
  Rp_sim.Net.inject n2
    (wire ~src:receiver ~dst:r2_addr ~proto:Proto.rsvp ~iface:1
       (Rp_control.Rsvp.encode (Rp_control.Rsvp.Resv { flow; rate_bps = 2_000_000 })))
    ~at:(Int64.add (Rp_sim.Sim.now sim) 10L);
  ignore (Rp_sim.Sim.run sim);
  check int_t "r2 reservation" 1 (List.length (Rp_control.Rsvp.reservations d2));
  check int_t "r1 reservation" 1 (List.length (Rp_control.Rsvp.reservations d1));
  check int_t "no failures" 0 (Rp_control.Rsvp.failures d1 + Rp_control.Rsvp.failures d2)

let test_rsvp_resv_without_path_fails () =
  let sim, _n1, n2, _d1, d2, _r1_addr, r2_addr = rsvp_chain () in
  let flow = flow_of_id 9 in
  let resv =
    Rp_control.Rsvp.resv_packet ~receiver:(Ipaddr.v4 192 168 1 9)
      ~to_hop:r2_addr ~flow ~rate_bps:1000
  in
  resv.Mbuf.key <- { resv.Mbuf.key with Flow_key.iface = 1 };
  Rp_sim.Net.inject n2 resv ~at:0L;
  ignore (Rp_sim.Sim.run sim);
  check int_t "rejected" 1 (Rp_control.Rsvp.failures d2);
  check int_t "no reservation" 0 (List.length (Rp_control.Rsvp.reservations d2))

let test_rsvp_refresh_keeps_state () =
  let sim, n1, _n2, d1, _d2, _r1_addr, _r2_addr = rsvp_chain () in
  let sender = Ipaddr.v4 10 0 0 1 in
  let flow = flow_of_id 3 in
  Rp_sim.Net.inject n1 (Rp_control.Rsvp.path_packet ~sender ~flow) ~at:0L;
  (* A refresh PATH well before expiry. *)
  Rp_sim.Net.inject n1 (Rp_control.Rsvp.path_packet ~sender ~flow)
    ~at:20_000_000_000L;
  ignore (Rp_sim.Sim.run sim);
  let p, _ =
    Rp_control.Rsvp.tick d1 ~now:40_000_000_000L ~lifetime_ns:30_000_000_000L
  in
  check int_t "refreshed state survives" 0 p;
  check int_t "path still present" 1 (List.length (Rp_control.Rsvp.path_state d1))


(* --- robustness ------------------------------------------------------------ *)

(* The control path must never raise, whatever arrives on the socket:
   every input yields Ok or Error. *)
let prop_pmgr_never_raises =
  qtest ~count:500 "pmgr: arbitrary input never raises"
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 80))
    (fun input ->
      let r = mk_router () in
      match Rp_control.Pmgr.exec r input with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck2.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) input)

(* Mutated valid commands: token-level fuzz around the real grammar. *)
let prop_pmgr_mutated_commands =
  let commands =
    [|
      "modload drr"; "modload stats"; "create drr quantum=512"; "create stats";
      "bind 1 <10.0.0.0/8, *, UDP, *, *, *>"; "attach 1 1"; "detach 1";
      "free 1"; "show instances"; "show flows"; "route add 10.0.0.0/8 0";
      "reserve 1 1000 <10.0.0.5, 192.168.1.1, UDP, 5000, 9000, if0>";
      "message drr stats 1"; "unbind 1 <*, *, *, *, *, *>"; "modunload drr";
    |]
  in
  qtest ~count:200 "pmgr: random command sequences never raise"
    QCheck2.Gen.(
      list_size (int_range 1 15)
        (pair (int_bound (Array.length commands - 1)) (int_bound 99)))
    (fun script ->
      let r = mk_router () in
      List.for_all
        (fun (i, mutation) ->
          let cmd = commands.(i) in
          (* Occasionally corrupt a character. *)
          let cmd =
            if mutation < 20 && String.length cmd > 3 then
              String.mapi
                (fun j c -> if j = mutation mod String.length cmd then '#' else c)
                cmd
            else cmd
          in
          match Rp_control.Pmgr.exec r cmd with
          | Ok _ | Error _ -> true
          | exception e ->
            QCheck2.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) cmd)
        script)

let test_pmgr_classifier_commands () =
  let r = mk_router () in
  check string_t "default mode" "pergate"
    (ok (Rp_control.Pmgr.exec r "classifier show"));
  check string_t "switch on" "classifier = compiled"
    (ok (Rp_control.Pmgr.exec r "classifier compiled on"));
  check string_t "mode reported" "compiled"
    (ok (Rp_control.Pmgr.exec r "classifier show"));
  check bool_t "aiu switched" true
    (Rp_classifier.Aiu.mode (Router.aiu r) = `Compiled);
  check string_t "switch off" "classifier = pergate"
    (ok (Rp_control.Pmgr.exec r "classifier compiled off"));
  check bool_t "back to per-gate" true
    (Rp_classifier.Aiu.mode (Router.aiu r) = `Per_gate);
  check bool_t "bad subcommand rejected" true
    (Result.is_error (Rp_control.Pmgr.exec r "classifier compiled maybe"))

(* A malformed or out-of-range config value fails [pmgr create]
   instead of silently becoming the default; a valid one (each range's
   end points included) is accepted. *)
let test_pmgr_create_key plugin key ~bad ~good () =
  let r = mk_router () in
  ignore (ok (Rp_control.Pmgr.exec r ("modload " ^ plugin)));
  let create v = Rp_control.Pmgr.exec r (Printf.sprintf "create %s %s=%s" plugin key v) in
  List.iter
    (fun v ->
      match create v with
      | Error _ -> ()
      | Ok out -> Alcotest.failf "create %s %s=%s accepted: %S" plugin key v out)
    bad;
  List.iter (fun v -> ignore (ok (create v))) good

let create_key_cases =
  [
    ("token-bucket", "rate", [ "fast"; "-5"; "0"; "nan"; "inf" ], [ "1000"; "0.5" ]);
    ("token-bucket", "burst", [ "-5"; "0"; "big" ], [ "1500" ]);
    ("token-bucket", "dscp", [ "256"; "-1"; "ef" ], [ "0"; "46"; "255" ]);
    ("red", "max-p", [ "1.5"; "-0.1"; "often" ], [ "0"; "0.2"; "1" ]);
    ("red", "wq", [ "0"; "1.01"; "slow" ], [ "0.002"; "1" ]);
    ("stats", "history", [ "0"; "-3"; "lots" ], [ "1"; "16" ]);
  ]

let test_pmgr_create_pair () =
  let r = mk_router () in
  ignore (ok (Rp_control.Pmgr.exec r "modload token-bucket"));
  check bool_t "rate=fast burst=-5 refused" true
    (Result.is_error (Rp_control.Pmgr.exec r "create token-bucket rate=fast burst=-5"))

let () =
  Alcotest.run "rp_control"
    [
      ( "pmgr",
        [
          Alcotest.test_case "modload/create/bind/attach" `Quick
            test_pmgr_modload_create_bind;
          Alcotest.test_case "paper-style script" `Quick test_pmgr_paper_script;
          Alcotest.test_case "errors" `Quick test_pmgr_errors;
          Alcotest.test_case "script error line" `Quick test_pmgr_script_error_line;
          Alcotest.test_case "show routes/flows" `Quick test_pmgr_show_routes_flows;
          Alcotest.test_case "fault commands" `Quick test_pmgr_fault_commands;
          Alcotest.test_case "classifier commands" `Quick
            test_pmgr_classifier_commands;
          Alcotest.test_case "bad token-bucket pair refused" `Quick
            test_pmgr_create_pair;
        ]
        @ List.map
            (fun (plugin, key, bad, good) ->
              Alcotest.test_case
                (Printf.sprintf "create %s %s= checked" plugin key)
                `Quick
                (test_pmgr_create_key plugin key ~bad ~good))
            create_key_cases );
      ( "ssp",
        [
          prop_ssp_codec_roundtrip;
          Alcotest.test_case "v6 codec" `Quick test_ssp_codec_v6;
          Alcotest.test_case "installs reservation" `Quick
            test_ssp_installs_reservation;
          Alcotest.test_case "no drr = failure" `Quick test_ssp_no_drr_counts_failure;
          Alcotest.test_case "wire-bytes setup installs" `Quick test_ssp_wire_setup;
        ] );
      ( "robustness",
        [ prop_pmgr_never_raises; prop_pmgr_mutated_commands ] );
      ( "rsvp",
        [
          prop_rsvp_codec_roundtrip;
          Alcotest.test_case "path/resv end to end" `Quick test_rsvp_end_to_end;
          Alcotest.test_case "wire-bytes path/resv" `Quick test_rsvp_wire;
          Alcotest.test_case "resv without path" `Quick
            test_rsvp_resv_without_path_fails;
          Alcotest.test_case "refresh keeps soft state" `Quick
            test_rsvp_refresh_keeps_state;
        ] );
    ]
