(* Tests for the unified session subsystem: the bidirectional session
   table (NAT rewrite + conntrack + QoS + cached next-hop behind one
   hit), its plugins on the live data path, expiry/export, the pmgr
   command surface, and inline ≡ sharded equivalence under NAT'd
   bidirectional traffic with binding churn and quarantine. *)

open Rp_pkt
open Rp_core
open Rp_session

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fresh_table =
  let n = ref 0 in
  fun () ->
    incr n;
    Session.Table.create (Printf.sprintf "test-%d" !n)

let s_ns n = Int64.mul (Int64.of_int n) 1_000_000_000L

let key ?(src = Ipaddr.v4 10 0 0 1) ?(dst = Ipaddr.v4 192 168 1 9)
    ?(proto = Proto.udp) ?(sport = 4000) ?(dport = 80) ?(iface = 0) () =
  Flow_key.make ~src ~dst ~proto ~sport ~dport ~iface

let snat_rule ?port ?tos addr =
  {
    Session.Table.kind = `Snat;
    filter = Rp_classifier.Filter.v4 ();
    addr;
    port;
    tos;
  }

let dnat_rule ?port ?tos addr =
  {
    Session.Table.kind = `Dnat;
    filter = Rp_classifier.Filter.v4 ();
    addr;
    port;
    tos;
  }

let flags ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false) () =
  Tcp_header.byte_of_flags
    { Tcp_header.fin; syn; rst; psh = false; ack; urg = false }

(* --- table: NAT mapping, direction resolution ----------------------- *)

let test_nat_mapping_and_reply () =
  let t = fresh_table () in
  Session.Table.add_rule t (snat_rule ~tos:0x28 (Ipaddr.v4 198 51 100 7));
  Session.Table.add_rule t (dnat_rule ~port:8080 (Ipaddr.v4 172 16 5 5));
  let k = key ~proto:Proto.tcp () in
  let s, dir =
    Option.get
      (Session.Table.resolve t k ~now:0L ~tcp_flags:(flags ~syn:true ()))
  in
  check bool_t "creator is the forward direction" true (dir = Flow_key.Fwd);
  check bool_t "session is NAT'd" true s.Session.nat;
  check string_t "snat source" "198.51.100.7"
    (Ipaddr.to_string s.Session.xlat_src);
  check string_t "dnat destination" "172.16.5.5"
    (Ipaddr.to_string s.Session.xlat_dst);
  check int_t "dnat port" 8080 s.Session.xlat_dport;
  check bool_t "qos from the rule" true (s.Session.qos = Some 0x28);
  (* the reply's ingress tuple — the reverse of the translated tuple —
     resolves to the same session, reverse direction *)
  let reply =
    Flow_key.make ~src:(Ipaddr.v4 172 16 5 5) ~dst:(Ipaddr.v4 198 51 100 7)
      ~proto:Proto.tcp ~sport:8080 ~dport:4000 ~iface:1
  in
  let s2, dir2 =
    Option.get (Session.Table.resolve t reply ~now:0L ~tcp_flags:0)
  in
  check bool_t "reply hits the same session" true (s2 == s);
  check bool_t "reply is the reverse direction" true (dir2 = Flow_key.Rev);
  (* post-rewrite tuples (what gates after the NAT plugin see) resolve
     with the true direction preserved *)
  let post_fwd =
    Flow_key.make ~src:(Ipaddr.v4 198 51 100 7) ~dst:(Ipaddr.v4 172 16 5 5)
      ~proto:Proto.tcp ~sport:4000 ~dport:8080 ~iface:0
  in
  let s3, dir3 =
    Option.get (Session.Table.resolve t post_fwd ~now:0L ~tcp_flags:0)
  in
  check bool_t "post-rewrite forward: same session" true (s3 == s);
  check bool_t "post-rewrite forward: direction kept" true
    (dir3 = Flow_key.Fwd);
  let post_rev =
    Flow_key.make ~src:(Ipaddr.v4 192 168 1 9) ~dst:(Ipaddr.v4 10 0 0 1)
      ~proto:Proto.tcp ~sport:80 ~dport:4000 ~iface:1
  in
  ignore post_rev;
  check int_t "exactly one session" 1 (Session.Table.length t);
  check int_t "no key conflicts" 0 (Session.Table.stats t).Session.Table.key_conflicts

let test_un_natted_session_single_key () =
  let t = fresh_table () in
  let s, _ = Option.get (Session.Table.resolve t (key ()) ~now:0L ~tcp_flags:0) in
  check bool_t "not NAT'd" false s.Session.nat;
  check bool_t "one index key" true
    (Flow_key.equal s.Session.fwd_lookup s.Session.rev_lookup);
  let s2, dir2 =
    Option.get
      (Session.Table.resolve t (Flow_key.reverse ~iface:1 (key ())) ~now:0L
         ~tcp_flags:0)
  in
  check bool_t "reverse resolves to it" true (s2 == s);
  check bool_t "as the reverse direction" true (dir2 = Flow_key.Rev);
  check int_t "one session" 1 (Session.Table.length t)

(* --- in-place rewrite with checksum fixup --------------------------- *)

let test_rewrite_raw_checksums () =
  let t = fresh_table () in
  Session.Table.add_rule t (snat_rule (Ipaddr.v4 198 51 100 7));
  let src = Ipaddr.v4 10 0 0 1 and dst = Ipaddr.v4 192 168 1 9 in
  let m =
    Mbuf.udp_v4 ~src ~dst ~sport:4000 ~dport:80 ~iface:0
      ~payload:"session rewrite" ()
  in
  let s, dir =
    Option.get (Session.Table.resolve t m.Mbuf.key ~now:0L ~tcp_flags:0)
  in
  check bool_t "rewrite applied" true (Session.apply_rewrite s dir m);
  check string_t "parsed key translated" "198.51.100.7"
    (Ipaddr.to_string m.Mbuf.key.Flow_key.src);
  let raw = Option.get m.Mbuf.raw in
  (* the IP header checksum was incrementally adjusted: parse (which
     verifies it) must succeed and see the new address *)
  (match Ipv4_header.parse raw 0 with
  | Ok h ->
    check string_t "wire source rewritten" "198.51.100.7"
      (Ipaddr.to_string h.Ipv4_header.src)
  | Error _ -> Alcotest.fail "IPv4 checksum invalid after rewrite");
  (* the UDP checksum (whose pseudo-header covers the addresses) still
     verifies — modulo the one's-complement zero class *)
  let udp_len = m.Mbuf.len - Ipv4_header.size in
  let embedded = Bytes.get_uint16_be raw (Ipv4_header.size + 6) in
  let expect =
    Udp_header.compute_checksum ~src:(Ipaddr.v4 198 51 100 7) ~dst raw
      Ipv4_header.size udp_len
  in
  check int_t "UDP checksum verifies" (expect mod 0xFFFF) (embedded mod 0xFFFF);
  (* a second application is a no-op *)
  check bool_t "idempotent" false (Session.apply_rewrite s dir m);
  (* and the reverse rewrite on the reply restores the original tuple *)
  let reply =
    Mbuf.udp_v4 ~src:dst ~dst:(Ipaddr.v4 198 51 100 7) ~sport:80 ~dport:4000
      ~iface:1 ~payload:"reply" ()
  in
  let s2, dir2 =
    Option.get (Session.Table.resolve t reply.Mbuf.key ~now:0L ~tcp_flags:0)
  in
  check bool_t "reply direction" true (s2 == s && dir2 = Flow_key.Rev);
  check bool_t "reply rewritten" true (Session.apply_rewrite s2 dir2 reply);
  check string_t "reply goes to the original source" "10.0.0.1"
    (Ipaddr.to_string reply.Mbuf.key.Flow_key.dst);
  match Ipv4_header.parse (Option.get reply.Mbuf.raw) 0 with
  | Ok h ->
    check string_t "reply wire destination" "10.0.0.1"
      (Ipaddr.to_string h.Ipv4_header.dst)
  | Error _ -> Alcotest.fail "reply IPv4 checksum invalid after rewrite"

(* --- conntrack state machine ---------------------------------------- *)

let test_conntrack_lifecycle () =
  let t = fresh_table () in
  let k = key ~proto:Proto.tcp () in
  let s, _ =
    Option.get
      (Session.Table.resolve t k ~now:0L ~tcp_flags:(flags ~syn:true ()))
  in
  let step dir fl = Session.conntrack_step s ~dir ~tcp_flags:fl in
  check string_t "created in syn-sent" "tcp-syn" (Session.state_name s);
  check bool_t "syn retransmit passes" true
    (step Flow_key.Fwd (flags ~syn:true ()) = `Pass);
  check string_t "still syn-sent" "tcp-syn" (Session.state_name s);
  check bool_t "syn-ack passes" true
    (step Flow_key.Rev (flags ~syn:true ~ack:true ()) = `Pass);
  check string_t "established" "tcp-est" (Session.state_name s);
  check bool_t "data passes" true (step Flow_key.Fwd (flags ~ack:true ()) = `Pass);
  check bool_t "fin passes" true
    (step Flow_key.Fwd (flags ~fin:true ~ack:true ()) = `Pass);
  check string_t "fin-wait" "tcp-fin" (Session.state_name s);
  check bool_t "ack in fin-wait passes" true
    (step Flow_key.Rev (flags ~ack:true ()) = `Pass);
  check string_t "one fin keeps fin-wait" "tcp-fin" (Session.state_name s);
  check bool_t "closing fin passes" true
    (step Flow_key.Rev (flags ~fin:true ~ack:true ()) = `Pass);
  check string_t "both fins close" "tcp-closed" (Session.state_name s);
  (match step Flow_key.Fwd (flags ~ack:true ()) with
  | `Drop _ -> ()
  | `Pass -> Alcotest.fail "data passed on a closed session");
  check bool_t "rst on closed passes" true
    (step Flow_key.Fwd (flags ~rst:true ()) = `Pass);
  check bool_t "syn reopens" true
    (step Flow_key.Fwd (flags ~syn:true ()) = `Pass);
  check string_t "reopened in syn-sent" "tcp-syn" (Session.state_name s);
  check bool_t "rst closes from any state" true
    (step Flow_key.Rev (flags ~rst:true ()) = `Pass);
  check string_t "rst closed" "tcp-closed" (Session.state_name s);
  check int_t "exactly one drop counted" 1 (Atomic.get s.Session.drops)

let test_midstream_pickup () =
  let t = fresh_table () in
  let s, _ =
    Option.get
      (Session.Table.resolve t
         (key ~proto:Proto.tcp ())
         ~now:0L
         ~tcp_flags:(flags ~ack:true ()))
  in
  (* a first packet that is not a pure SYN picks the session up as
     already established (router restart mid-conversation) *)
  check string_t "picked up established" "tcp-est" (Session.state_name s)

(* --- timeouts and export -------------------------------------------- *)

let test_udp_timeout_expiry () =
  let t = fresh_table () in
  Session.Table.add_rule t (snat_rule (Ipaddr.v4 198 51 100 7));
  let s, dir =
    Option.get (Session.Table.resolve t (key ()) ~now:(s_ns 1) ~tcp_flags:0)
  in
  Session.touch s ~now:(s_ns 5) ~dir ~len:100;
  check int_t "inside the udp timeout: kept" 0
    (Session.Table.expire t ~now:(s_ns 60));
  check int_t "still live" 1 (Session.Table.length t);
  Rp_core.Flow_export.clear ();
  check int_t "past the udp timeout: expired" 1
    (Session.Table.expire t ~now:(s_ns 66));
  check int_t "gone" 0 (Session.Table.length t);
  (match Rp_core.Flow_export.drain () with
  | [ r ] ->
    check string_t "export reason" "session-expired" r.Rp_obs.Flowlog.reason;
    check int_t "accounted packets" 1 r.Rp_obs.Flowlog.packets;
    (match r.Rp_obs.Flowlog.translated with
    | Some x ->
      check string_t "translated tuple exported" "198.51.100.7"
        x.Rp_obs.Flowlog.xsrc
    | None -> Alcotest.fail "expected a translated tuple on the export")
  | rs -> Alcotest.failf "expected one export record, got %d" (List.length rs));
  (* the timeout knob applies *)
  let s2, dir2 =
    Option.get (Session.Table.resolve t (key ()) ~now:(s_ns 100) ~tcp_flags:0)
  in
  Session.touch s2 ~now:(s_ns 100) ~dir:dir2 ~len:64;
  Session.Table.set_timeout t `Udp (s_ns 5);
  check int_t "shortened timeout expires sooner" 1
    (Session.Table.expire t ~now:(s_ns 106))

let prop_conntrack_never_leaks =
  qtest "conntrack: sessions never outlive their timeouts"
    QCheck2.Gen.(list_size (int_range 1 40) (pair bool (int_bound 4)))
    (fun ops ->
      let t = fresh_table () in
      let k = key ~proto:Proto.tcp () in
      let now = ref 0L in
      List.iter
        (fun (fwd, fsel) ->
          now := Int64.add !now 1_000_000L;
          let tcp_flags =
            match fsel with
            | 0 -> flags ~syn:true ()
            | 1 -> flags ~syn:true ~ack:true ()
            | 2 -> flags ~ack:true ()
            | 3 -> flags ~fin:true ~ack:true ()
            | _ -> flags ~rst:true ()
          in
          match Session.Table.resolve t k ~now:!now ~tcp_flags with
          | None -> ()
          | Some (s, _) ->
            let dir = if fwd then Flow_key.Fwd else Flow_key.Rev in
            Session.touch s ~now:!now ~dir ~len:64;
            ignore (Session.conntrack_step s ~dir ~tcp_flags))
        ops;
      (* closing states age out on the short tcp-fin timeout (10 s) *)
      let tight =
        match Session.Table.resolve t ~create:false k ~now:!now ~tcp_flags:0 with
        | Some (s, _) -> (
          match Session.state s with
          | Session.Tcp (Session.Tcp_fin | Session.Tcp_closed) ->
            ignore (Session.Table.expire t ~now:(Int64.add !now (s_ns 11)));
            Session.Table.length t = 0
          | _ -> true)
        | None -> true
      in
      (* and whatever the state, nothing survives the longest timeout
         (tcp-est, 300 s) *)
      ignore (Session.Table.expire t ~now:(Int64.add !now (s_ns 301)));
      tight && Session.Table.length t = 0)

(* --- router / engine helpers ----------------------------------------- *)

let mk_router () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~gates:Gate.all ~ifaces () in
  Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r (Prefix.of_string "172.16.0.0/12") ~iface:1 ();
  r

(* Load nat / conntrack / nat-out, one instance each on [table], bound
   to all IPv4 traffic.  Returns the instance ids. *)
let setup_session_plugins r ~table =
  let inst plugin =
    let m = Option.get (Rp_control.Plugin_lib.find plugin) in
    ok (Pcu.modload r.Router.pcu m);
    let i =
      ok (Pcu.create_instance r.Router.pcu ~plugin [ ("table", table) ])
    in
    ok
      (Pcu.register_instance r.Router.pcu ~instance:i.Plugin.instance_id
         (Rp_classifier.Filter.v4 ()));
    i.Plugin.instance_id
  in
  (inst "nat", inst "conntrack", inst "nat-out")

let outcome_repr (res : Rp_engine.Shard.result) =
  let o =
    match res.Rp_engine.Shard.outcome with
    | Rp_engine.Shard.Forwarded i -> Printf.sprintf "fwd:%d" i
    | Rp_engine.Shard.Absorbed -> "absorbed"
    | Rp_engine.Shard.Dropped why -> "drop:" ^ why
  in
  Printf.sprintf "%d %s %s tos=%d" res.Rp_engine.Shard.m.Mbuf.seq o
    (Flow_key.to_string res.Rp_engine.Shard.m.Mbuf.key)
    res.Rp_engine.Shard.m.Mbuf.tos

(* --- end to end on the inline engine --------------------------------- *)

let test_end_to_end_inline () =
  let r = mk_router () in
  let table = "e2e-inline" in
  let t = Session.Table.get table in
  ignore (Session.Table.flush t);
  Session.Table.add_rule t (snat_rule ~tos:0x38 (Ipaddr.v4 198 51 100 7));
  let _ids = setup_session_plugins r ~table in
  let e = Rp_engine.Engine.create Rp_engine.Engine.Inline r in
  let last = ref None in
  let run m now =
    assert (Rp_engine.Engine.submit e ~now m);
    ignore (Rp_engine.Engine.flush e ~f:(fun res -> last := Some res))
  in
  for i = 1 to 5 do
    run (Mbuf.synth ~key:(key ()) ~len:100 ()) (s_ns i)
  done;
  (match !last with
  | Some res ->
    (match res.Rp_engine.Shard.outcome with
    | Rp_engine.Shard.Forwarded 1 -> ()
    | _ -> Alcotest.fail "forward packet not forwarded to if1");
    check string_t "source translated on the wire key" "198.51.100.7"
      (Ipaddr.to_string res.Rp_engine.Shard.m.Mbuf.key.Flow_key.src);
    check int_t "qos class stamped" 0x38 res.Rp_engine.Shard.m.Mbuf.tos
  | None -> Alcotest.fail "no forward result");
  (* replies enter at if1 addressed to the NAT address *)
  let reply_key =
    Flow_key.make ~src:(Ipaddr.v4 192 168 1 9) ~dst:(Ipaddr.v4 198 51 100 7)
      ~proto:Proto.udp ~sport:80 ~dport:4000 ~iface:1
  in
  for i = 6 to 8 do
    run (Mbuf.synth ~key:reply_key ~len:100 ()) (s_ns i)
  done;
  (match !last with
  | Some res ->
    (match res.Rp_engine.Shard.outcome with
    | Rp_engine.Shard.Forwarded 0 -> ()
    | _ -> Alcotest.fail "reply not forwarded to if0");
    check string_t "reply destination restored" "10.0.0.1"
      (Ipaddr.to_string res.Rp_engine.Shard.m.Mbuf.key.Flow_key.dst)
  | None -> Alcotest.fail "no reply result");
  let st = Session.Table.stats t in
  check int_t "one session for both directions" 1 st.Session.Table.live;
  check int_t "per-direction accounting: forward"
    5
    (let s, _ =
       Option.get
         (Session.Table.resolve t ~create:false (key ()) ~now:0L ~tcp_flags:0)
     in
     Atomic.get s.Session.fwd_pkts);
  check int_t "per-direction accounting: reverse" 3
    (let s, _ =
       Option.get
         (Session.Table.resolve t ~create:false (key ()) ~now:0L ~tcp_flags:0)
     in
     Atomic.get s.Session.rev_pkts);
  (* steady state: no further table lookups, only cached soft-pointer
     hits — one more packet adds 3 cached hits (nat, conntrack,
     nat-out) and zero lookups *)
  let before = Session.Table.stats t in
  run (Mbuf.synth ~key:(key ()) ~len:100 ()) (s_ns 9);
  let after = Session.Table.stats t in
  check int_t "steady state does no table lookups"
    before.Session.Table.lookups after.Session.Table.lookups;
  check int_t "steady state rides the cached pointer"
    (before.Session.Table.cached_hits + 3)
    after.Session.Table.cached_hits;
  (* the cached next-hop is installed after the first routed packet of
     each direction *)
  (let s, _ =
     Option.get
       (Session.Table.resolve t ~create:false (key ()) ~now:0L ~tcp_flags:0)
   in
   check bool_t "forward route cached" true
     (Session.route s Flow_key.Fwd = Some (1, Some (Ipaddr.v4 192 168 1 9)));
   check bool_t "reverse route cached" true
     (Session.route s Flow_key.Rev = Some (0, Some (Ipaddr.v4 10 0 0 1))));
  (* flow-export records for NAT'd flows carry the translated tuple *)
  Rp_core.Flow_export.clear ();
  Rp_engine.Engine.flush_flows e;
  let exported = Rp_core.Flow_export.drain () in
  check bool_t "flow export carries the translated tuple" true
    (List.exists
       (fun (rec_ : Rp_obs.Flowlog.record) ->
         match rec_.Rp_obs.Flowlog.translated with
         | Some x -> x.Rp_obs.Flowlog.xsrc = "198.51.100.7"
         | None -> false)
       exported);
  Rp_engine.Engine.stop e;
  ignore (Session.Table.flush t)

(* --- steady-state cost: session path vs bare FIX --------------------- *)

let test_steady_state_accesses () =
  (* baseline: a bare router, no session plugins *)
  let measure_steady setup =
    let r = mk_router () in
    let table = setup r in
    let e = Rp_engine.Engine.create Rp_engine.Engine.Inline r in
    for i = 1 to 5 do
      assert (Rp_engine.Engine.submit e ~now:(s_ns i) (Mbuf.synth ~key:(key ()) ~len:100 ()));
      ignore (Rp_engine.Engine.flush e ~f:(fun _ -> ()))
    done;
    Rp_lpm.Access.set_enabled true;
    let (), accesses =
      Rp_lpm.Access.measure (fun () ->
          assert
            (Rp_engine.Engine.submit e ~now:(s_ns 9)
               (Mbuf.synth ~key:(key ()) ~len:100 ()));
          ignore (Rp_engine.Engine.flush e ~f:(fun _ -> ())))
    in
    Rp_engine.Engine.stop e;
    (match table with
    | Some t -> ignore (Session.Table.flush t)
    | None -> ());
    accesses
  in
  let baseline = measure_steady (fun _ -> None) in
  let session =
    measure_steady (fun r ->
        let t = Session.Table.get "steady" in
        ignore (Session.Table.flush t);
        Session.Table.add_rule t (snat_rule (Ipaddr.v4 198 51 100 7));
        ignore (setup_session_plugins r ~table:"steady");
        Some t)
  in
  (* NAT + conntrack + QoS + route ride on ONE additional charged
     memory access over the bare FIX fast path (the cached next-hop
     saves the LPM walk, so the net can even be lower) *)
  check bool_t
    (Printf.sprintf "session steady state (%d) <= FIX baseline (%d) + 1"
       session baseline)
    true
    (session <= baseline + 1)

(* --- canonical RSS --------------------------------------------------- *)

let test_canonical_rss () =
  let r = mk_router () in
  let e = Rp_engine.Engine.create (Rp_engine.Engine.Sharded 4) r in
  Rp_engine.Engine.set_rss e Session.shard_key;
  let k = key () in
  check int_t "both directions of a flow share a shard"
    (Rp_engine.Engine.shard_of_key e k)
    (Rp_engine.Engine.shard_of_key e (Flow_key.reverse ~iface:1 k));
  Rp_engine.Engine.stop e

(* --- pmgr command surface -------------------------------------------- *)

let test_pmgr_commands () =
  let r = mk_router () in
  let exec cmd = ok (Rp_control.Pmgr.exec r cmd) in
  ignore (Session.Table.flush (Session.Table.get "pm"));
  ignore
    (exec "nat add snat <10.0.0.0/8, *.*.*.*, *, *, *, *> 198.51.100.9 tos=40 table=pm");
  ignore
    (exec "nat add dnat <*.*.*.*, 192.168.0.0/16, UDP, *, *, *> 172.16.9.9 port=9999 table=pm");
  let shown = exec "nat show pm" in
  check bool_t "nat show lists both rules" true
    (String.length shown > 0
    && List.length (String.split_on_char '\n' shown) = 2);
  ignore (exec "sessions timeout udp 5 pm");
  check bool_t "timeout knob applied" true
    (Session.Table.timeout (Session.Table.get "pm") `Udp = s_ns 5);
  (* create a session through the table, then inspect *)
  let t = Session.Table.get "pm" in
  ignore (Session.Table.resolve t (key ()) ~now:(s_ns 1) ~tcp_flags:0);
  let show = exec "sessions show pm" in
  check bool_t "sessions show reports the live session" true
    (List.length (String.split_on_char '\n' show) = 2);
  check bool_t "sessions show includes the NAT mapping" true
    (String.length show > 0
    &&
    let has_sub needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    has_sub "198.51.100.9" show);
  let top = exec "sessions top 1 pm" in
  check bool_t "sessions top prints one line" true
    (List.length (String.split_on_char '\n' top) = 1);
  ignore (exec "sessions expire 100 pm");
  check int_t "expire swept the idle session" 0
    (Session.Table.length (Session.Table.get "pm"));
  ignore (exec "nat del 1 pm");
  ignore (exec "nat del 0 pm");
  check bool_t "nat del empties the rule list" true
    (Session.Table.rules (Session.Table.get "pm") = []);
  check bool_t "nat del on empty errors" true
    (Result.is_error (Rp_control.Pmgr.exec r "nat del 0 pm"))

(* --- inline = sharded equivalence under churn ------------------------ *)

type op =
  | Burst of bool * int * int * int  (* fwd?, flow, count, flag selector *)
  | Unbind_ct
  | Rebind_ct
  | Quarantine_nat
  | Restore_nat

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           ( 8,
             map
               (fun ((fwd, flow), (count, fsel)) ->
                 Burst (fwd, flow, count, fsel))
               (pair (pair bool (int_bound 2))
                  (pair (int_range 1 5) (int_bound 4))) );
           (1, return Unbind_ct);
           (1, return Rebind_ct);
           (1, return Quarantine_nat);
           (1, return Restore_nat);
         ]))

let scenario_flags fsel =
  match fsel with
  | 0 -> flags ~syn:true ()
  | 1 -> flags ~syn:true ~ack:true ()
  | 2 -> flags ~ack:true ()
  | 3 -> flags ~fin:true ~ack:true ()
  | _ -> flags ~rst:true ()

let scenario_pkt ~fwd ~flow ~fsel =
  let tcp_flags = scenario_flags fsel in
  if fwd then
    Mbuf.synth ~tcp_flags
      ~key:
        (Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 9)
           ~proto:Proto.tcp ~sport:(4000 + flow) ~dport:80 ~iface:0)
      ~len:100 ()
  else
    Mbuf.synth ~tcp_flags
      ~key:
        (Flow_key.make ~src:(Ipaddr.v4 192 168 1 9)
           ~dst:(Ipaddr.v4 198 51 100 7) ~proto:Proto.tcp ~sport:80
           ~dport:(4000 + flow) ~iface:1)
      ~len:100 ()

(* Run one op sequence against one engine mode.  Each burst is a
   single flow and direction, flushed before the next op, so packet
   order — and therefore conntrack evolution — is deterministic in
   both modes.  A control change reaches the shards before the next
   burst with no wait: the engine publishes it on submission. *)
let run_scenario mode table ops =
  let r = mk_router () in
  let t = Session.Table.get table in
  ignore (Session.Table.flush t);
  Session.Table.add_rule t (snat_rule ~tos:0x18 (Ipaddr.v4 198 51 100 7));
  let nat_id, ct_id, _ = setup_session_plugins r ~table in
  let e = Rp_engine.Engine.create mode r in
  let ct_filter = Rp_classifier.Filter.to_string (Rp_classifier.Filter.v4 ()) in
  let results = ref [] in
  let now = ref 0L and seq = ref 0 in
  let collect res = results := outcome_repr res :: !results in
  List.iter
    (fun op ->
      match op with
      | Unbind_ct ->
        ignore (Rp_control.Pmgr.exec r (Printf.sprintf "unbind %d %s" ct_id ct_filter))
      | Rebind_ct ->
        ignore (Rp_control.Pmgr.exec r (Printf.sprintf "bind %d %s" ct_id ct_filter))
      | Quarantine_nat ->
        ignore (Rp_control.Pmgr.exec r (Printf.sprintf "plugin quarantine %d" nat_id))
      | Restore_nat ->
        ignore (Rp_control.Pmgr.exec r (Printf.sprintf "plugin restore %d" nat_id))
      | Burst (fwd, flow, count, fsel) ->
        for _ = 1 to count do
          now := Int64.add !now 1_000_000L;
          incr seq;
          let m = scenario_pkt ~fwd ~flow ~fsel in
          m.Mbuf.seq <- !seq;
          ignore (Rp_engine.Engine.submit e ~now:!now m)
        done;
        ignore (Rp_engine.Engine.flush e ~f:collect))
    ops;
  ignore (Rp_engine.Engine.flush e ~f:collect);
  Rp_engine.Engine.stop e;
  ignore (Session.Table.flush t);
  List.rev !results

let prop_inline_equals_sharded =
  let n = ref 0 in
  qtest ~count:15
    "inline = sharded:4 verdict-for-verdict, rewrite-for-rewrite" gen_ops
    (fun ops ->
      incr n;
      let inline =
        run_scenario Rp_engine.Engine.Inline (Printf.sprintf "eq-inl-%d" !n) ops
      in
      let sharded =
        run_scenario (Rp_engine.Engine.Sharded 4)
          (Printf.sprintf "eq-shd-%d" !n)
          ops
      in
      inline = sharded)

let () =
  Alcotest.run "rp_session"
    [
      ( "table",
        [
          Alcotest.test_case "NAT mapping and reply resolution" `Quick
            test_nat_mapping_and_reply;
          Alcotest.test_case "un-NAT'd session has one key" `Quick
            test_un_natted_session_single_key;
          Alcotest.test_case "raw rewrite with checksum fixup" `Quick
            test_rewrite_raw_checksums;
        ] );
      ( "conntrack",
        [
          Alcotest.test_case "TCP lifecycle" `Quick test_conntrack_lifecycle;
          Alcotest.test_case "mid-stream pickup" `Quick test_midstream_pickup;
          prop_conntrack_never_leaks;
        ] );
      ( "expiry",
        [ Alcotest.test_case "UDP timeout and export" `Quick test_udp_timeout_expiry ] );
      ( "data-path",
        [
          Alcotest.test_case "end to end inline" `Quick test_end_to_end_inline;
          Alcotest.test_case "steady-state accesses" `Quick
            test_steady_state_accesses;
          Alcotest.test_case "canonical RSS" `Quick test_canonical_rss;
        ] );
      ( "pmgr",
        [ Alcotest.test_case "sessions and nat commands" `Quick test_pmgr_commands ] );
      ( "equivalence",
        [ prop_inline_equals_sharded ] );
    ]
