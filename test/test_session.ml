(* Tests for the unified session subsystem: the bidirectional session
   table (NAT rewrite + conntrack + QoS behind one hit), its plugins on
   the live data path, sessions' packets riding the flow record's
   route cache, expiry/export, the pmgr command surface, and inline ≡
   sharded equivalence under NAT'd bidirectional traffic with binding
   churn and quarantine. *)

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

let ok_parse buf =
  match Mbuf.of_bytes ~iface:0 buf with
  | Ok m -> m
  | Error e -> Alcotest.failf "parse: %a" Mbuf.pp_error e

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

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
  check bool_t "session is NAT'd" true (Session.nat s);
  check string_t "snat source" "198.51.100.7"
    (Ipaddr.to_string (Session.xlat_src s));
  check string_t "dnat destination" "172.16.5.5"
    (Ipaddr.to_string (Session.xlat_dst s));
  check int_t "dnat port" 8080 (Session.xlat_dport s);
  check bool_t "qos from the rule" true (Session.qos s = Some 0x28);
  (* the reply's ingress tuple — the reverse of the translated tuple —
     resolves to the same session, reverse direction *)
  let reply =
    Flow_key.make ~src:(Ipaddr.v4 172 16 5 5) ~dst:(Ipaddr.v4 198 51 100 7)
      ~proto:Proto.tcp ~sport:8080 ~dport:4000 ~iface:1
  in
  let s2, dir2 =
    Option.get (Session.Table.resolve t reply ~now:0L ~tcp_flags:0)
  in
  check bool_t "reply hits the same session" true (Session.equal s2 s);
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
  check bool_t "post-rewrite forward: same session" true (Session.equal s3 s);
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
  check bool_t "not NAT'd" false (Session.nat s);
  check int_t "one index key" 1 (Session.index_keys s);
  let s2, dir2 =
    Option.get
      (Session.Table.resolve t (Flow_key.reverse ~iface:1 (key ())) ~now:0L
         ~tcp_flags:0)
  in
  check bool_t "reverse resolves to it" true (Session.equal s2 s);
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
  check bool_t "reply direction" true (Session.equal s2 s && dir2 = Flow_key.Rev);
  check bool_t "reply rewritten" true (Session.apply_rewrite s2 dir2 reply);
  check string_t "reply goes to the original source" "10.0.0.1"
    (Ipaddr.to_string reply.Mbuf.key.Flow_key.dst);
  match Ipv4_header.parse (Option.get reply.Mbuf.raw) 0 with
  | Ok h ->
    check string_t "reply wire destination" "10.0.0.1"
      (Ipaddr.to_string h.Ipv4_header.dst)
  | Error _ -> Alcotest.fail "reply IPv4 checksum invalid after rewrite"

(* --- wire rewrite: every family, protocol and header shape ----------- *)

let nat6 = Ipaddr.of_string "2001:db8:ff::7"

(* One datagram with valid checksums: [opt_words] 32-bit words of IPv4
   options (NOPs), or IPv6 hop-by-hop [hbh] options, then a TCP (no
   options) or UDP header and [payload]. *)
let build ~src ~dst ~proto ~sport ~dport ?(opt_words = 0) ?(hbh = []) payload =
  let v6 = Ipaddr.is_v6 src in
  let hdr = if proto = Proto.tcp then 20 else 8 in
  let l4len = hdr + String.length payload in
  let hbh_h = { Ipv6_header.Hop_by_hop.next_header = proto; options = hbh } in
  let hbh_len = if hbh = [] then 0 else Ipv6_header.Hop_by_hop.wire_length hbh_h in
  let l4 = if v6 then 40 + hbh_len else 20 + (4 * opt_words) in
  let buf = Bytes.make (l4 + l4len) '\000' in
  if v6 then begin
    Ipv6_header.serialize
      {
        Ipv6_header.traffic_class = 0;
        flow_label = 0;
        payload_length = hbh_len + l4len;
        next_header = (if hbh = [] then proto else Proto.ipv6_hop_by_hop);
        hop_limit = 64;
        src;
        dst;
      }
      buf 0;
    if hbh <> [] then ignore (Ipv6_header.Hop_by_hop.serialize hbh_h buf 40)
  end
  else begin
    Bytes.set_uint8 buf 0 (0x40 lor (l4 / 4));
    Bytes.set_uint16_be buf 2 (l4 + l4len);
    Bytes.set_uint8 buf 8 64;
    Bytes.set_uint8 buf 9 proto;
    Ipaddr.write src buf 12;
    Ipaddr.write dst buf 16;
    Bytes.fill buf 20 (4 * opt_words) '\001';
    Bytes.set_uint16_be buf 10 (Checksum.compute buf 0 l4)
  end;
  Bytes.set_uint16_be buf l4 sport;
  Bytes.set_uint16_be buf (l4 + 2) dport;
  if proto = Proto.tcp then begin
    Bytes.set_uint8 buf (l4 + 12) 0x50;
    Bytes.set_uint8 buf (l4 + 13) 0x18;
    Bytes.set_uint16_be buf (l4 + 14) 0xFFFF
  end
  else Bytes.set_uint16_be buf (l4 + 4) l4len;
  Bytes.blit_string payload 0 buf (l4 + hdr) (String.length payload);
  let coff = if proto = Proto.tcp then l4 + 16 else l4 + 6 in
  let c = Udp_header.compute_checksum ~src ~dst buf l4 l4len in
  (* [compute_checksum] sums the pseudo-header with UDP's protocol
     number; TCP's differs by 6 - 17 *)
  let c =
    if proto = Proto.udp then c
    else Checksum.adjust c ~old_word:Proto.udp ~new_word:Proto.tcp
  in
  Bytes.set_uint16_be buf coff c;
  (buf, l4, l4len)

(* The L4 checksum a full recompute gives for the datagram now in
   [buf], in the same zero class as the stored one. *)
let full_l4 buf ~src ~dst ~proto ~l4 ~len =
  let coff = if proto = Proto.tcp then l4 + 16 else l4 + 6 in
  let stored = Bytes.get_uint16_be buf coff in
  let c = Udp_header.compute_checksum ~src ~dst buf l4 len in
  if proto = Proto.udp then (stored, c)
  else
    (* TCP: sum the field too; zero means it is consistent *)
    let s =
      Checksum.add
        (Checksum.sum (Ipaddr.to_bytes src) 0 (Ipaddr.width src / 8))
        (Checksum.add
           (Checksum.sum (Ipaddr.to_bytes dst) 0 (Ipaddr.width dst / 8))
           (Proto.tcp + len + Checksum.sum buf l4 len))
    in
    (Checksum.finish s, 0)

let l4_consistent buf ~src ~dst ~proto ~l4 ~len =
  let a, b = full_l4 buf ~src ~dst ~proto ~l4 ~len in
  a mod 0xFFFF = b mod 0xFFFF && not (proto = Proto.udp && a = 0)

let nat_table () =
  let t = fresh_table () in
  Session.Table.add_rule t (snat_rule ~port:40000 (Ipaddr.v4 198 51 100 7));
  Session.Table.add_rule t
    {
      Session.Table.kind = `Snat;
      filter = Rp_classifier.Filter.v6 ~src:(Prefix.of_string "fd00::/8") ();
      addr = nat6;
      port = Some 40000;
      tos = None;
    };
  t

(* A descriptor over [buf] with its key read from the wire (IPv4
   options are beyond [Mbuf.of_bytes]). *)
let descriptor buf ~l4 =
  let m = Mbuf.synth ~key:(key ()) ~len:(Bytes.length buf) () in
  let v6 = Bytes.get_uint8 buf 0 lsr 4 = 6 in
  let rd a = if v6 then Ipaddr.read_v6 buf a else Ipaddr.read_v4 buf a in
  m.Mbuf.key <-
    Flow_key.make ~src:(rd (if v6 then 8 else 12)) ~dst:(rd (if v6 then 24 else 16))
      ~proto:
        (if not v6 then Bytes.get_uint8 buf 9
         else if Bytes.get_uint8 buf 6 = Proto.ipv6_hop_by_hop then Bytes.get_uint8 buf 40
         else Bytes.get_uint8 buf 6)
      ~sport:(Bytes.get_uint16_be buf l4) ~dport:(Bytes.get_uint16_be buf (l4 + 2))
      ~iface:0;
  m.Mbuf.raw <- Some buf;
  m

(* Regression: an IPv6 hop-by-hop header (padding only, or carrying a
   router alert) moves the transport header; the rewrite must find it
   from the wire, so the datagram reparses to the translated key with
   a valid checksum. *)
let test_v6_hop_by_hop_nat () =
  let src = Ipaddr.of_string "fd00::1" and dst = Ipaddr.of_string "2001:db8::9" in
  List.iter
    (fun (label, hbh) ->
      List.iter
        (fun proto ->
          let t = nat_table () in
          let buf, _, l4len =
            build ~src ~dst ~proto ~sport:1234 ~dport:80 ~hbh "hop by hop"
          in
          let m = ok_parse buf in
          let s, dir =
            Option.get (Session.Table.resolve t m.Mbuf.key ~now:0L ~tcp_flags:0)
          in
          let name = Printf.sprintf "%s %s" label (Proto.name proto) in
          check bool_t (name ^ ": translated") true (Session.apply_rewrite s dir m);
          let m' = ok_parse buf in
          check string_t (name ^ ": reparses to the translated key")
            (Flow_key.to_string m.Mbuf.key) (Flow_key.to_string m'.Mbuf.key);
          check int_t (name ^ ": wire source port") 40000 m'.Mbuf.key.Flow_key.sport;
          let l4 = Bytes.length buf - l4len in
          check bool_t (name ^ ": L4 checksum valid") true
            (l4_consistent buf ~src:nat6 ~dst ~proto ~l4 ~len:l4len))
        [ Proto.udp; Proto.tcp ])
    [
      ("no hop-by-hop", []);
      ("padding only", [ Ipv6_header.Option_tlv.Padn 6 ]);
      ("router alert", [ Ipv6_header.Option_tlv.Router_alert 0 ]);
    ]

type wire_case = {
  v6 : bool;
  tcp : bool;
  reply : bool;  (* rewrite the reply direction *)
  opts : int;  (* IPv4 option words, or a hop-by-hop variant for IPv6 *)
  sport : int;
  host : int;
  payload : string;
}

let gen_wire_case =
  let open QCheck2.Gen in
  let* v6 = bool and* tcp = bool and* reply = bool in
  let* opts = int_bound 3 and* sport = int_range 1 65535 in
  let* host = int_range 1 254 and* payload = string_size (int_bound 40) in
  return { v6; tcp; reply; opts; sport; host; payload }

let prop_rewrite_checksums =
  qtest ~count:300 "incremental fixup = full checksum (v4/v6, TCP/UDP, both ways)"
    ~print:(fun c ->
      Printf.sprintf "v6=%b tcp=%b reply=%b opts=%d sport=%d host=%d payload=%S"
        c.v6 c.tcp c.reply c.opts c.sport c.host c.payload)
    gen_wire_case (fun c ->
      let t = nat_table () in
      let proto = if c.tcp then Proto.tcp else Proto.udp in
      let inside, outside, nat_addr =
        if c.v6 then
          ( Ipaddr.of_string (Printf.sprintf "fd00::%x" c.host),
            Ipaddr.of_string "2001:db8::9",
            nat6 )
        else (Ipaddr.v4 10 0 0 c.host, Ipaddr.v4 192 168 1 9, Ipaddr.v4 198 51 100 7)
      in
      let hbh =
        if not c.v6 then []
        else
          match c.opts with
          | 1 -> [ Ipv6_header.Option_tlv.Padn 6 ]
          | 2 -> [ Ipv6_header.Option_tlv.Router_alert 0 ]
          | 3 -> [ Ipv6_header.Option_tlv.Pad1; Ipv6_header.Option_tlv.Router_alert 2 ]
          | _ -> []
      in
      let opt_words = if c.v6 then 0 else c.opts in
      (* the session, opened by the forward packet *)
      let fbuf, fl4, _ =
        build ~src:inside ~dst:outside ~proto ~sport:c.sport ~dport:443 ~opt_words
          ~hbh c.payload
      in
      let fm = descriptor fbuf ~l4:fl4 in
      let s, _ = Option.get (Session.Table.resolve t fm.Mbuf.key ~now:0L ~tcp_flags:0) in
      let src, dst, sport, dport, want_src, want_dst, want_sport, want_dport =
        if c.reply then (outside, nat_addr, 443, 40000, outside, inside, 443, c.sport)
        else (inside, outside, c.sport, 443, nat_addr, outside, 40000, 443)
      in
      let buf, l4, len =
        build ~src ~dst ~proto ~sport ~dport ~opt_words ~hbh c.payload
      in
      let m = descriptor buf ~l4 in
      let dir = if c.reply then Flow_key.Rev else Flow_key.Fwd in
      let rewrote = Session.apply_rewrite s dir m in
      let rd a = if c.v6 then Ipaddr.read_v6 buf a else Ipaddr.read_v4 buf a in
      let ip_ok = c.v6 || Checksum.valid buf 0 l4 in
      rewrote && ip_ok
      && Ipaddr.equal (rd (if c.v6 then 8 else 12)) want_src
      && Ipaddr.equal (rd (if c.v6 then 24 else 16)) want_dst
      && Bytes.get_uint16_be buf l4 = want_sport
      && Bytes.get_uint16_be buf (l4 + 2) = want_dport
      && l4_consistent buf ~src:want_src ~dst:want_dst ~proto ~l4 ~len)

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
  check int_t "exactly one drop counted" 1 (Session.drops s Flow_key.Fwd + Session.drops s Flow_key.Rev)

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
    check string_t "export reason" "session-expired" r.Rp_core.Flow_export.reason;
    check int_t "accounted packets" 1 r.Rp_core.Flow_export.packets;
    (match r.Rp_core.Flow_export.translated with
    | Some x ->
      check string_t "translated tuple exported" "198.51.100.7"
        (Ipaddr.to_string x.Rp_core.Flow_export.xsrc)
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

(* --- bound and expiry cost ------------------------------------------- *)

let plugin_binding () =
  {
    Rp_classifier.Flow_table.instance =
      Plugin.simple ~instance_id:1 ~code:0 ~plugin_name:"test" ~gate:Gate.Firewall
        (fun _ _ -> Plugin.Continue);
    filter = Rp_classifier.Filter.v4 ();
    soft = None;
    owner = Mbuf.no_fix;
    lent = false;
  }

let ctx_of ?(now = s_ns 1) () = { Plugin.now_ns = now; binding = Some (plugin_binding ()) }

let test_capacity_bound () =
  let t = Session.Table.create ~capacity:8 "bounded" in
  check int_t "capacity" 8 (Session.Table.stats t).Session.Table.capacity;
  let open_ sport =
    Session.Table.resolve t (key ~sport ()) ~now:(s_ns 1) ~tcp_flags:0
  in
  for i = 0 to 7 do
    check bool_t (Printf.sprintf "session %d opens" (i + 1)) true (open_ (4000 + i) <> None)
  done;
  check bool_t "the 9th is refused" true (open_ 5000 = None);
  check bool_t "existing sessions still resolve" true (open_ 4003 <> None);
  let st = Session.Table.stats t in
  check int_t "live at capacity" 8 st.Session.Table.live;
  check int_t "one refusal counted" 1 st.Session.Table.refused;
  (* both creating plugins drop a refused packet as session_table_full *)
  List.iter
    (fun (name, handle) ->
      let m = Mbuf.synth ~key:(key ~sport:5001 ()) ~len:64 () in
      let full0 = Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Session_table_full in
      match handle (ctx_of ()) m with
      | Plugin.Drop why ->
        check bool_t (name ^ ": drop reason") true
          (Rp_obs.Drop_reason.of_why why = Rp_obs.Drop_reason.Session_table_full);
        Rp_obs.Drop_reason.count_why why;
        check int_t (name ^ ": counted") (full0 + 1)
          (Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Session_table_full)
      | Plugin.Continue | Plugin.Consumed ->
        Alcotest.failf "%s passed a packet the full table refused" name)
    [
      ("nat", Nat_plugin.In.handle t ~cache:true);
      ("conntrack", Conntrack_plugin.handle t ~cache:true);
    ];
  (* a pass frees the idle sessions; their slots are reused after the
     next pass *)
  check int_t "all expire" 8 (Session.Table.expire t ~now:(s_ns 100));
  check bool_t "freed slots wait one pass" true (open_ 5002 = None);
  ignore (Session.Table.expire t ~now:(s_ns 100));
  check bool_t "then a new session opens" true (open_ 5003 <> None)

(* A pass with k sessions due visits about k sessions, not [live]. *)
let test_expiry_visits_due () =
  let t = fresh_table () in
  Session.Table.set_timeout t `Other (s_ns 5);
  for i = 0 to 999 do
    ignore (Session.Table.resolve t (key ~sport:(1000 + i) ()) ~now:0L ~tcp_flags:0)
  done;
  for i = 0 to 9 do
    ignore
      (Session.Table.resolve t (key ~proto:Proto.icmp ~sport:i ~dport:0 ())
         ~now:0L ~tcp_flags:0)
  done;
  let v0 = (Session.Table.stats t).Session.Table.visited in
  check int_t "the 10 short-lived sessions expire" 10
    (Session.Table.expire t ~now:(s_ns 6));
  let visited = (Session.Table.stats t).Session.Table.visited - v0 in
  check bool_t
    (Printf.sprintf "visited %d of %d live (at most 2 per due session)" visited
       (Session.Table.length t + 10))
    true (visited <= 20);
  check int_t "the rest stay" 1000 (Session.Table.length t);
  check int_t "and expire on their own timeout" 1000
    (Session.Table.expire t ~now:(s_ns 61))

(* --- model-based: the flat table against a Hashtbl reference --------- *)

(* The reference is the table the flat one replaced: a Hashtbl from
   canonical (direction-normalized) keys to sessions, each indexed
   under its forward tuple and, unless that entry is already taken,
   its reply tuple; a key's direction comes from which entry it hit and
   the canonical direction bit. *)
type m_phase = P_syn | P_est | P_fin | P_closed
type m_state = M_udp | M_other | M_tcp of m_phase * bool * bool

type m_session = {
  mutable mid : int;
  k : Flow_key.t;
  x : Flow_key.t option;  (* translated tuple, when NAT'd *)
  fwd_lookup : Flow_key.t;
  fwd_dir : Flow_key.direction;
  rev_lookup : Flow_key.t;
  rev_dir : Flow_key.direction;
  created : int64;
  mutable st : m_state;
  last : int64 array;
  pkts : int array;
  bytes : int array;
  drops : int array;
}

type model = {
  idx : (Flow_key.t, m_session) Hashtbl.t;
  mutable live : m_session list;
  mutable conflicts : int;
  tmo : int64 array;  (* tcp-syn, tcp-est, tcp-fin, udp, other *)
}

let m_nat_addr = Ipaddr.v4 198 51 100 7
let m_inside = Prefix.of_string "10.0.0.0/8"

let m_step st (dir : Flow_key.direction) flags =
  let has b = flags land b <> 0 in
  let syn = has 0x02 and rst = has 0x04 and fin = has 0x01 in
  match st with
  | M_udp | M_other -> Some st
  | M_tcp (phase, ff, fr) ->
    if phase = P_closed && not (syn || rst) then None
    else if rst then Some (M_tcp (P_closed, ff, fr))
    else if syn && phase = P_closed then Some (M_tcp (P_syn, false, false))
    else
      let ff = ff || (fin && dir = Fwd) and fr = fr || (fin && dir = Rev) in
      let phase =
        if ff && fr then P_closed
        else if fin then P_fin
        else if phase = P_syn && dir = Rev then P_est
        else phase
      in
      Some (M_tcp (phase, ff, fr))

let m_timeout m = function
  | M_tcp (P_syn, _, _) -> m.tmo.(0)
  | M_tcp (P_est, _, _) -> m.tmo.(1)
  | M_tcp ((P_fin | P_closed), _, _) -> m.tmo.(2)
  | M_udp -> m.tmo.(3)
  | M_other -> m.tmo.(4)

let m_resolve m (key : Flow_key.t) ~create ~now ~flags =
  let ck, d = Flow_key.canonical key in
  match Hashtbl.find_opt m.idx ck with
  | Some ms ->
    let dir : Flow_key.direction =
      if Flow_key.equal ck ms.fwd_lookup then if d = ms.fwd_dir then Fwd else Rev
      else if d = ms.rev_dir then Rev
      else Fwd
    in
    `Hit (ms, dir)
  | None when not create -> `None
  | None ->
    let x =
      if Ipaddr.is_v4 key.src && Prefix.matches m_inside key.src then
        Some { key with src = m_nat_addr }
      else None
    in
    let xk = Option.value x ~default:key in
    let fwd_lookup, fwd_dir = Flow_key.canonical key in
    let rev_lookup, rev_dir = Flow_key.canonical (Flow_key.reverse ~iface:0 xk) in
    let st =
      if key.proto = Proto.tcp then
        if flags land 0x02 <> 0 && flags land 0x10 = 0 then M_tcp (P_syn, false, false)
        else M_tcp (P_est, false, false)
      else if key.proto = Proto.udp then M_udp
      else M_other
    in
    let ms =
      { mid = -1; k = key; x; fwd_lookup; fwd_dir; rev_lookup; rev_dir;
        created = now; st; last = [| now; now |]; pkts = [| 0; 0 |];
        bytes = [| 0; 0 |]; drops = [| 0; 0 |] }
    in
    Hashtbl.replace m.idx fwd_lookup ms;
    if not (Flow_key.equal rev_lookup fwd_lookup) then
      if Hashtbl.mem m.idx rev_lookup then m.conflicts <- m.conflicts + 1
      else Hashtbl.replace m.idx rev_lookup ms;
    m.live <- ms :: m.live;
    `Created ms

let m_record ms ~reason =
  let packets = ms.pkts.(0) + ms.pkts.(1) and dropped = ms.drops.(0) + ms.drops.(1) in
  {
    Rp_core.Flow_export.src = Ipaddr.to_string ms.k.src;
    dst = Ipaddr.to_string ms.k.dst;
    proto = ms.k.proto;
    sport = ms.k.sport;
    dport = ms.k.dport;
    iface = ms.k.iface;
    packets;
    bytes = ms.bytes.(0) + ms.bytes.(1);
    forwarded = packets - dropped;
    dropped;
    absorbed = 0;
    created_ns = ms.created;
    last_ns = max ms.last.(0) ms.last.(1);
    bindings = [ ("session", ms.mid) ];
    reason;
    translated =
      Option.map
        (fun (x : Flow_key.t) ->
          { Rp_core.Flow_export.xsrc = x.src; xdst = x.dst; xsport = x.sport;
            xdport = x.dport })
        ms.x;
  }

(* Remove the sessions [dead] selects; their export records. *)
let m_evict m ~reason dead =
  let gone, kept = List.partition dead m.live in
  m.live <- kept;
  List.iter
    (fun ms ->
      List.iter
        (fun k ->
          match Hashtbl.find_opt m.idx k with
          | Some ms' when ms' == ms -> Hashtbl.remove m.idx k
          | Some _ | None -> ())
        [ ms.fwd_lookup; ms.rev_lookup ])
    gone;
  List.map (m_record ~reason) gone

type m_op =
  | M_resolve of int * int * bool * int  (* flow, variant, create, flags *)
  | M_touch of int * int * int  (* flow, variant, length *)
  | M_step of int * int * int  (* flow, variant, flags *)
  | M_set_timeout of int * int  (* class, seconds *)
  | M_advance of int  (* seconds *)
  | M_expire
  | M_flush

(* Flows 0-7 are inside the SNAT prefix — hosts 1 and 2 with the same
   ports translate to the same tuple, so the second one's reply tuple
   conflicts — and 8-9 are not NAT'd.  Variant 0 is the forward
   ingress tuple, 1 the reply's, 2 the forward tuple after the
   rewrite, 3 the reply after it. *)
let m_key flow variant =
  let proto = if flow land 4 = 0 then Proto.udp else Proto.tcp in
  let src =
    if flow >= 8 then Ipaddr.v4 172 16 0 1 else Ipaddr.v4 10 0 0 (1 + (flow land 1))
  in
  let proto = if flow >= 8 then Proto.udp else proto in
  let sport = 4000 + ((flow lsr 1) land 1) and dst = Ipaddr.v4 192 168 1 9 in
  let xsrc = if flow >= 8 then src else m_nat_addr in
  match variant with
  | 0 -> Flow_key.make ~src ~dst ~proto ~sport ~dport:80 ~iface:0
  | 1 -> Flow_key.make ~src:dst ~dst:xsrc ~proto ~sport:80 ~dport:sport ~iface:1
  | 2 -> Flow_key.make ~src:xsrc ~dst ~proto ~sport ~dport:80 ~iface:0
  | _ -> Flow_key.make ~src:dst ~dst:src ~proto ~sport:80 ~dport:sport ~iface:1

let gen_m_ops =
  let open QCheck2.Gen in
  let fl = int_bound 9 and var = int_bound 3 and flags = oneofl [ 0x02; 0x12; 0x10; 0x11; 0x04 ] in
  list_size (int_range 1 40)
    (frequency
       [
         (6, map (fun (((f, v), c), g) -> M_resolve (f, v, c, g))
               (pair (pair (pair fl var) (frequencyl [ (3, true); (1, false) ])) flags));
         (3, map (fun ((f, v), l) -> M_touch (f, v, l)) (pair (pair fl var) (int_range 40 1500)));
         (3, map (fun ((f, v), g) -> M_step (f, v, g)) (pair (pair fl var) flags));
         (1, map (fun (c, s) -> M_set_timeout (c, s)) (pair (int_bound 4) (oneofl [ 1; 2; 5; 10; 30; 60 ])));
         (3, map (fun s -> M_advance s) (int_bound 20));
         (2, return M_expire);
         (1, return M_flush);
       ])

let print_m_op = function
  | M_resolve (f, v, c, g) -> Printf.sprintf "resolve(%d,%d,%b,%x)" f v c g
  | M_touch (f, v, l) -> Printf.sprintf "touch(%d,%d,%d)" f v l
  | M_step (f, v, g) -> Printf.sprintf "step(%d,%d,%x)" f v g
  | M_set_timeout (c, s) -> Printf.sprintf "timeout(%d,%ds)" c s
  | M_advance s -> Printf.sprintf "advance(%ds)" s
  | M_expire -> "expire"
  | M_flush -> "flush"

let classes = [| `Tcp_syn; `Tcp_est; `Tcp_fin; `Udp; `Other |]

let sorted_records l = List.sort compare l

let session_exports () =
  List.filter
    (fun (r : Rp_core.Flow_export.record) -> r.Rp_core.Flow_export.bindings <> []
      && fst (List.hd r.Rp_core.Flow_export.bindings) = "session")
    (Rp_core.Flow_export.drain ())

let prop_model =
  qtest ~count:200 "flat table = Hashtbl reference (resolve, touch, state, expiry)"
    ~print:(fun ops -> String.concat "; " (List.map print_m_op ops))
    gen_m_ops (fun ops ->
      let t = fresh_table () in
      Session.Table.add_rule t
        { Session.Table.kind = `Snat;
          filter = Rp_classifier.Filter.v4 ~src:m_inside ();
          addr = m_nat_addr; port = None; tos = None };
      let m =
        { idx = Hashtbl.create 16; live = []; conflicts = 0;
          tmo = Array.map (Session.Table.timeout t) classes }
      in
      Rp_core.Flow_export.clear ();
      let now = ref (s_ns 1) in
      let agree = ref true in
      let expect b = if not b then agree := false in
      let same_session s ms = Session.id s = ms.mid in
      let both key =
        ( Session.Table.resolve t ~create:false key ~now:!now ~tcp_flags:0,
          m_resolve m key ~create:false ~now:!now ~flags:0 )
      in
      let step op =
        (match op with
        | M_resolve (f, v, create, flags) -> (
          let key = m_key f v in
          match
            ( Session.Table.resolve t ~create key ~now:!now ~tcp_flags:flags,
              m_resolve m key ~create ~now:!now ~flags )
          with
          | None, `None -> ()
          | Some (s, dir), `Created ms ->
            ms.mid <- Session.id s;
            expect (dir = Flow_key.Fwd)
          | Some (s, dir), `Hit (ms, mdir) -> expect (same_session s ms && dir = mdir)
          | _ -> expect false)
        | M_touch (f, v, len) -> (
          match both (m_key f v) with
          | None, `None -> ()
          | Some (s, dir), `Hit (ms, mdir) when same_session s ms && dir = mdir ->
            Session.touch s ~now:!now ~dir ~len;
            let d = if dir = Flow_key.Fwd then 0 else 1 in
            ms.last.(d) <- !now;
            ms.pkts.(d) <- ms.pkts.(d) + 1;
            ms.bytes.(d) <- ms.bytes.(d) + len
          | _ -> expect false)
        | M_step (f, v, flags) -> (
          match both (m_key f v) with
          | None, `None -> ()
          | Some (s, dir), `Hit (ms, mdir) when same_session s ms && dir = mdir -> (
            let d = if dir = Flow_key.Fwd then 0 else 1 in
            match (Session.conntrack_step s ~dir ~tcp_flags:flags, m_step ms.st dir flags) with
            | `Pass, Some st -> ms.st <- st
            | `Drop _, None -> ms.drops.(d) <- ms.drops.(d) + 1
            | _ -> expect false)
          | _ -> expect false)
        | M_set_timeout (c, secs) ->
          Session.Table.set_timeout t classes.(c) (s_ns secs);
          m.tmo.(c) <- s_ns secs
        | M_advance secs -> now := Int64.add !now (s_ns secs)
        | M_expire ->
          let n = Session.Table.expire t ~now:!now in
          let want =
            m_evict m ~reason:"session-expired" (fun ms ->
                Int64.sub !now (max ms.last.(0) ms.last.(1)) > m_timeout m ms.st)
          in
          expect (n = List.length want);
          expect (sorted_records (session_exports ()) = sorted_records want)
        | M_flush ->
          let n = Session.Table.flush t in
          let want = m_evict m ~reason:"session-flushed" (fun _ -> true) in
          expect (n = List.length want);
          expect (sorted_records (session_exports ()) = sorted_records want));
        (* the same live sessions, each exactly once *)
        let ids = ref [] in
        Session.Table.iter (fun s -> ids := Session.id s :: !ids) t;
        expect (List.sort compare !ids = List.sort compare (List.map (fun ms -> ms.mid) m.live));
        expect (Session.Table.length t = List.length m.live)
      in
      List.iter (fun op -> if !agree then step op) ops;
      !agree
      && (Session.Table.stats t).Session.Table.key_conflicts = m.conflicts)

(* --- allocation pins ------------------------------------------------- *)

let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)
let route_hits () = counter "route_table.cache_hits"
let route_walks () = counter "route_table.lookups"

(* Minor words per call of [f], after one warm-up call. *)
let words_per n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* nat and conntrack on one table, each with its own binding, as the
   gates run them. *)
let session_path t =
  let nat = Nat_plugin.In.handle t ~cache:true
  and ct = Conntrack_plugin.handle t ~cache:true in
  let c1 = ctx_of () and c2 = ctx_of () in
  fun m ->
    ignore (nat c1 m);
    ignore (ct c2 m)

let test_hit_path_allocates_nothing () =
  let t = fresh_table () in
  let path = session_path t in
  let m = Mbuf.synth ~key:(key ()) ~len:100 () in
  let hits0 = (Session.Table.stats t).Session.Table.cached_hits in
  let words = words_per 1000 (fun () -> path m) in
  check int_t "soft-slot hits" (2 * 1000)
    ((Session.Table.stats t).Session.Table.cached_hits - hits0);
  check bool_t
    (Printf.sprintf "%.3f minor words per packet (ceiling 0.1)" words)
    true (words <= 0.1)

let test_rewrite_allocation () =
  let t = nat_table () in
  let m =
    Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 9) ~sport:4000
      ~dport:80 ~iface:0 ~payload:"pinned" ()
  in
  let buf = Option.get m.Mbuf.raw in
  let wire = Bytes.copy buf and k0 = m.Mbuf.key in
  let s, dir = Option.get (Session.Table.resolve t k0 ~now:0L ~tcp_flags:0) in
  let words =
    words_per 1000 (fun () ->
        Bytes.blit wire 0 buf 0 (Bytes.length wire);
        m.Mbuf.key <- k0;
        ignore (Session.apply_rewrite s dir m))
  in
  check bool_t
    (Printf.sprintf "%.2f minor words per rewrite (ceiling 0.01)" words)
    true (words <= 0.01);
  (* the rewritten key is the view's own, built once *)
  let x = m.Mbuf.key in
  Bytes.blit wire 0 buf 0 (Bytes.length wire);
  m.Mbuf.key <- k0;
  ignore (Session.apply_rewrite s dir m);
  check bool_t "later rewrites share one key" true (m.Mbuf.key == x);
  check bool_t "the rewritten key" true
    (Flow_key.equal x { k0 with src = Ipaddr.v4 198 51 100 7; sport = 40000 });
  (* a packet on another interface gets a key of its own, which the
     view then keeps *)
  Bytes.blit wire 0 buf 0 (Bytes.length wire);
  m.Mbuf.key <- { k0 with iface = 3 };
  ignore (Session.apply_rewrite s dir m);
  check bool_t "another interface, another key" true
    (m.Mbuf.key != x && m.Mbuf.key.Flow_key.iface = 3);
  (* and the whole NAT'd hit path allocates nothing *)
  let path = session_path t in
  let words =
    words_per 1000 (fun () ->
        Bytes.blit wire 0 buf 0 (Bytes.length wire);
        m.Mbuf.key <- k0;
        path m)
  in
  check bool_t
    (Printf.sprintf "%.2f minor words per NAT'd packet (ceiling 0.01)" words)
    true (words <= 0.01)

(* A NAT'd reply routes by its translated destination through the
   route cached in its flow record (keyed on the pre-rewrite tuple):
   after the first walk, resolve neither walks nor allocates. *)
let test_nat_reply_resolve_allocation () =
  let t = fresh_table () in
  Session.Table.add_rule t (snat_rule (Ipaddr.v4 198 51 100 7));
  ignore (Session.Table.resolve t (key ()) ~now:0L ~tcp_flags:0);
  let reply =
    Flow_key.make ~src:(Ipaddr.v4 192 168 1 9) ~dst:(Ipaddr.v4 198 51 100 7)
      ~proto:Proto.udp ~sport:80 ~dport:4000 ~iface:1
  in
  let s, dir = Option.get (Session.Table.resolve t reply ~now:0L ~tcp_flags:0) in
  let rt = Route_table.create () in
  Route_table.add rt
    { Route_table.prefix = Prefix.of_string "10.0.0.0/8"; next_hop = None;
      iface = 0; metric = 0 };
  let flows = Rp_classifier.Flow_table.create ~gates:1 () in
  let m = Mbuf.synth ~key:reply ~len:100 () in
  m.Mbuf.fix <-
    Rp_classifier.Flow_table.fix_of_record
      (Rp_classifier.Flow_table.insert flows reply ~now:0L);
  check bool_t "reply translated" true (Session.apply_rewrite s dir m);
  check int_t "first resolve walks to if0" 0 (Route_table.resolve rt flows m);
  let hits0 = route_hits () and walks0 = route_walks () in
  let n = 10_000 in
  let words = words_per n (fun () -> ignore (Route_table.resolve rt flows m)) in
  check int_t "every later resolve hits the flow's route" (n + 1)
    (route_hits () - hits0);
  check int_t "and none walks" 0 (route_walks () - walks0);
  check bool_t "next hop is the translated destination" true
    (m.Mbuf.out_iface = Some 0 && Ipaddr.equal m.Mbuf.next_hop (Ipaddr.v4 10 0 0 1));
  check bool_t
    (Printf.sprintf "%.4f minor words per resolve (ceiling 0.01)" words)
    true (words <= 0.01)

(* --- router / engine helpers ----------------------------------------- *)

let mk_router () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~gates:Gate.all ~ifaces () in
  Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route r (Prefix.of_string "172.16.0.0/12") ~iface:1 ();
  r

(* Load nat / conntrack, one instance each on [table], bound to all
   IPv4 traffic.  Returns the instance ids. *)
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
  (inst "nat", inst "conntrack")

let outcome_str (res : Rp_engine.Shard.result) =
  match res.Rp_engine.Shard.outcome with
  | Rp_engine.Shard.Forwarded i -> Printf.sprintf "fwd:%d" i
  | Rp_engine.Shard.Absorbed -> "absorbed"
  | Rp_engine.Shard.Dropped why -> "drop:" ^ why

let outcome_repr (res : Rp_engine.Shard.result) =
  Printf.sprintf "%d %s %s tos=%d" res.Rp_engine.Shard.m.Mbuf.seq (outcome_str res)
    (Flow_key.to_string res.Rp_engine.Shard.m.Mbuf.key)
    res.Rp_engine.Shard.m.Mbuf.tos

(* --- end to end on the inline engine --------------------------------- *)

(* A NAT'd TCP conversation through nat, conntrack and DRR on the
   inline engine, as perf's nat-drr runs it: one DRR instance bound to
   every flow and attached to if1, a second attached to if0.  Once each
   direction has sent its first packet (the session, both flow
   records, both DRR queues and the reply's translated key are built),
   a packet allocates nothing from submit to transmit: the rewrite
   reuses its view's key, each DRR queue is its flow's, and every
   dequeue returns the packet itself. *)
let test_nat_drr_conversation_allocates_nothing () =
  let r = mk_router () in
  let table = "gc-silent" in
  let t = Session.Table.get table in
  ignore (Session.Table.flush t);
  Session.Table.add_rule t (snat_rule (Ipaddr.v4 198 51 100 7));
  ignore (setup_session_plugins r ~table);
  let pmgr cmd = ok (Rp_control.Pmgr.exec r cmd) in
  ignore (pmgr "modload drr");
  List.iteri
    (fun i ifc ->
      let id = Scanf.sscanf (pmgr "create drr") "instance %d" Fun.id in
      if i = 0 then
        ignore (pmgr (Printf.sprintf "bind %d <*, *, *, *, *, *>" id));
      ignore (pmgr (Printf.sprintf "attach %d %d" id ifc)))
    [ 1; 0 ];
  let e = Rp_engine.Engine.create Rp_engine.Engine.Inline r in
  let wire_pkt ~src ~dst ~sport ~dport ~iface =
    let buf, _, _ =
      build ~src ~dst ~proto:Proto.tcp ~sport ~dport "gc-silent"
    in
    match Mbuf.of_bytes ~iface buf with
    | Ok m -> (m, Bytes.copy buf, m.Mbuf.key)
    | Error err -> Alcotest.failf "parse: %a" Mbuf.pp_error err
  in
  let fwd, fwd_wire, fwd_key =
    wire_pkt ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 9) ~sport:4000
      ~dport:80 ~iface:0
  and rev, rev_wire, rev_key =
    wire_pkt ~src:(Ipaddr.v4 192 168 1 9) ~dst:(Ipaddr.v4 198 51 100 7)
      ~sport:80 ~dport:4000 ~iface:1
  in
  let batch = [| fwd; rev |] in
  let reset m wire key =
    Bytes.blit wire 0 (Option.get m.Mbuf.raw) 0 (Bytes.length wire);
    m.Mbuf.key <- key;
    m.Mbuf.ttl <- 64;
    m.Mbuf.fix <- Mbuf.no_fix;
    m.Mbuf.out_iface <- None;
    m.Mbuf.next_hop <- Mbuf.no_hop
  in
  let forwarded = ref 0 in
  let count (res : Rp_engine.Shard.result) =
    match res.Rp_engine.Shard.outcome with
    | Rp_engine.Shard.Forwarded _ -> incr forwarded
    | _ -> ()
  in
  let now = s_ns 1 in
  let round () =
    reset fwd fwd_wire fwd_key;
    reset rev rev_wire rev_key;
    ignore (Rp_engine.Engine.submit_batch e ~now batch ~n:2);
    ignore (Rp_engine.Engine.drain e ~f:count)
  in
  (* the handshake: a SYN out, its answer back *)
  fwd.Mbuf.tcp_flags <- flags ~syn:true ();
  rev.Mbuf.tcp_flags <- flags ~syn:true ~ack:true ();
  round ();
  fwd.Mbuf.tcp_flags <- flags ~ack:true ();
  rev.Mbuf.tcp_flags <- flags ~ack:true ();
  round ();
  forwarded := 0;
  let n = 1000 in
  let words = words_per n round /. 2. in
  check int_t "every packet forwarded" (2 * (n + 1)) !forwarded;
  let st = Session.Table.stats t in
  check int_t "one session" 1 st.Session.Table.live;
  check bool_t "both directions rewritten" true
    (st.Session.Table.rewrites >= 2 * (n + 2));
  check bool_t "the conversation is established" true
    (let s, _ =
       Option.get
         (Session.Table.resolve t ~create:false fwd_key ~now:0L ~tcp_flags:0)
     in
     Session.state s = Session.Tcp Session.Tcp_est);
  check bool_t
    (Printf.sprintf "%.4f minor words per packet (ceiling 0.01)" words)
    true (words <= 0.01);
  Rp_engine.Engine.stop e;
  ignore (Session.Table.flush t)

let test_end_to_end_inline () =
  let r = mk_router () in
  let table = "e2e-inline" in
  let t = Session.Table.get table in
  ignore (Session.Table.flush t);
  Session.Table.add_rule t (snat_rule ~tos:0x38 (Ipaddr.v4 198 51 100 7));
  let _ids = setup_session_plugins r ~table in
  let e = Rp_engine.Engine.create Rp_engine.Engine.Inline r in
  (* A result is valid only during [f]: keep copies of its fields. *)
  let last = ref None in
  let run m now =
    assert (Rp_engine.Engine.submit e ~now m);
    ignore
      (Rp_engine.Engine.flush e ~f:(fun res ->
           last := Some (res.Rp_engine.Shard.outcome, res.Rp_engine.Shard.m)))
  in
  for i = 1 to 5 do
    run (Mbuf.synth ~key:(key ()) ~len:100 ()) (s_ns i)
  done;
  (match !last with
  | Some (outcome, m) ->
    (match outcome with
    | Rp_engine.Shard.Forwarded 1 -> ()
    | _ -> Alcotest.fail "forward packet not forwarded to if1");
    check string_t "source translated on the wire key" "198.51.100.7"
      (Ipaddr.to_string m.Mbuf.key.Flow_key.src);
    check int_t "qos class stamped" 0x38 m.Mbuf.tos
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
  | Some (outcome, m) ->
    (match outcome with
    | Rp_engine.Shard.Forwarded 0 -> ()
    | _ -> Alcotest.fail "reply not forwarded to if0");
    check string_t "reply destination restored" "10.0.0.1"
      (Ipaddr.to_string m.Mbuf.key.Flow_key.dst)
  | None -> Alcotest.fail "no reply result");
  let st = Session.Table.stats t in
  check int_t "one session for both directions" 1 st.Session.Table.live;
  check int_t "per-direction accounting: forward"
    5
    (let s, _ =
       Option.get
         (Session.Table.resolve t ~create:false (key ()) ~now:0L ~tcp_flags:0)
     in
     Session.packets s Flow_key.Fwd);
  check int_t "per-direction accounting: reverse" 3
    (let s, _ =
       Option.get
         (Session.Table.resolve t ~create:false (key ()) ~now:0L ~tcp_flags:0)
     in
     Session.packets s Flow_key.Rev);
  (* steady state: no further table lookups, only cached soft-pointer
     hits — one more packet adds 2 cached hits (nat, conntrack) and
     zero lookups *)
  let before = Session.Table.stats t in
  run (Mbuf.synth ~key:(key ()) ~len:100 ()) (s_ns 9);
  let after = Session.Table.stats t in
  check int_t "steady state does no table lookups"
    before.Session.Table.lookups after.Session.Table.lookups;
  check int_t "steady state rides the cached pointer"
    (before.Session.Table.cached_hits + 2)
    after.Session.Table.cached_hits;
  (* both directions ride the route cached in their flow records, the
     reply's for its translated destination *)
  let hits0 = route_hits () and walks0 = route_walks () in
  run (Mbuf.synth ~key:(key ()) ~len:100 ()) (s_ns 10);
  run (Mbuf.synth ~key:reply_key ~len:100 ()) (s_ns 11);
  (match !last with
  | Some (Rp_engine.Shard.Forwarded 0, m) ->
    check bool_t "reply's next hop is its translated destination" true
      (Ipaddr.equal m.Mbuf.next_hop (Ipaddr.v4 10 0 0 1))
  | _ -> Alcotest.fail "steady reply not forwarded to if0");
  check int_t "steady packets hit the flow route cache" 2 (route_hits () - hits0);
  check int_t "and walk no route" 0 (route_walks () - walks0);
  (* flow-export records for NAT'd flows carry the translated tuple *)
  Rp_core.Flow_export.clear ();
  Rp_engine.Engine.flush_flows e;
  let exported = Rp_core.Flow_export.drain () in
  check bool_t "flow export carries the translated tuple" true
    (List.exists
       (fun (rec_ : Rp_core.Flow_export.record) ->
         match rec_.Rp_core.Flow_export.translated with
         | Some x -> Ipaddr.to_string x.Rp_core.Flow_export.xsrc = "198.51.100.7"
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
  (* NAT + conntrack + QoS ride on ONE additional charged memory
     access over the bare FIX fast path, and both route through their
     flow's cached route *)
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

(* --- routing: a session's packets follow the route table ------------- *)

(* Three interfaces: 10/8 and 172.16/12 behind if0, 192.168/16 behind
   if1, and if2 for the routes the tests add.  nat and conntrack on
   [table], with SNAT of 10/8 sources only, so 172.16/12 conversations
   are sessions without a rewrite. *)
let routing_router ~table =
  let ifaces = List.init 3 (fun id -> Iface.create ~id ()) in
  let r = Router.create ~gates:Gate.all ~ifaces () in
  List.iter
    (fun (p, i) -> Router.add_route r (Prefix.of_string p) ~iface:i ())
    [ ("10.0.0.0/8", 0); ("172.16.0.0/12", 0); ("192.168.0.0/16", 1) ];
  let t = Session.Table.get table in
  ignore (Session.Table.flush t);
  Session.Table.add_rule t
    { (snat_rule (Ipaddr.v4 198 51 100 7)) with
      filter = Rp_classifier.Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") () };
  let nat_id, _ = setup_session_plugins r ~table in
  (r, t, nat_id)

(* The four packets of a NAT'd and an un-NAT'd conversation, built
   fresh per send. *)
let pkt k = Mbuf.synth ~len:100 ~key:k ()
let nat_fwd () = pkt (key ())

let nat_rev () =
  pkt
    (key ~src:(Ipaddr.v4 192 168 1 9) ~dst:(Ipaddr.v4 198 51 100 7) ~sport:80
       ~dport:4000 ~iface:1 ())

let plain_fwd () = pkt (key ~src:(Ipaddr.v4 172 16 0 5) ~sport:5000 ())

let plain_rev () =
  pkt
    (key ~src:(Ipaddr.v4 192 168 1 9) ~dst:(Ipaddr.v4 172 16 0 5) ~sport:80
       ~dport:5000 ~iface:1 ())

(* Submit one packet and return its outcome and descriptor. *)
let send1 e ~now m =
  assert (Rp_engine.Engine.submit e ~now m);
  let got = ref [] in
  ignore
    (Rp_engine.Engine.flush e ~f:(fun res ->
         got := (outcome_str res, res.Rp_engine.Shard.m) :: !got));
  match !got with
  | [ res ] -> res
  | _ -> Alcotest.fail "expected one result"

let routing_modes = [ Rp_engine.Engine.Inline; Rp_engine.Engine.Sharded 2 ]

(* Route changes reach established sessions at once, NAT'd or not, in
   both directions: a more specific route takes their next packet, its
   removal gives them back to the covering route, and with no route
   left they drop as unroutable. *)
let test_route_changes_reach_sessions () =
  List.iteri
    (fun n mode ->
      let label = Rp_engine.Engine.mode_to_string mode ^ ": " in
      let r, t, _ = routing_router ~table:(Printf.sprintf "rt-change-%d" n) in
      let e = Rp_engine.Engine.create mode r in
      let now = ref 0L in
      let stage name want =
        List.iter
          (fun (what, pkt, out) ->
            (* the first packet may walk, the second rides the cache *)
            for i = 1 to 2 do
              now := Int64.add !now 1_000_000L;
              check string_t
                (Printf.sprintf "%s%s: %s packet %d" label name what i)
                out
                (fst (send1 e ~now:!now (pkt ())))
            done)
          [
            ("NAT'd forward", nat_fwd, fst want);
            ("NAT'd reply", nat_rev, snd want);
            ("un-NAT'd forward", plain_fwd, fst want);
            ("un-NAT'd reply", plain_rev, snd want);
          ]
      in
      let pmgr cmd = ignore (ok (Rp_control.Pmgr.exec r cmd)) in
      let specific = [ "192.168.1.0/24"; "10.0.0.0/24"; "172.16.0.0/24" ] in
      stage "covering routes" ("fwd:1", "fwd:0");
      List.iter (fun p -> pmgr ("route add " ^ p ^ " 2")) specific;
      stage "more specific routes added" ("fwd:2", "fwd:2");
      List.iter (fun p -> pmgr ("route del " ^ p)) specific;
      stage "more specific routes removed" ("fwd:1", "fwd:0");
      List.iter
        (fun p -> pmgr ("route del " ^ p))
        [ "192.168.0.0/16"; "10.0.0.0/8"; "172.16.0.0/12" ];
      let unroutable = "drop:no route to destination" in
      stage "covering routes removed" (unroutable, unroutable);
      check int_t (label ^ "two sessions") 2 (Session.Table.length t);
      Rp_engine.Engine.stop e;
      ignore (Session.Table.flush t))
    routing_modes

(* A reply whose rewrite is skipped (nat quarantined) routes by the
   destination it carries, and never leaves that route cached for the
   translated destination: after the restore it routes by the
   translated one again. *)
let test_quarantine_routes_by_carried_dst () =
  List.iteri
    (fun n mode ->
      let label = Rp_engine.Engine.mode_to_string mode ^ ": " in
      let r, t, nat_id = routing_router ~table:(Printf.sprintf "rt-quar-%d" n) in
      let pmgr cmd = ignore (ok (Rp_control.Pmgr.exec r cmd)) in
      pmgr "route add 198.51.100.0/24 2";
      let e = Rp_engine.Engine.create mode r in
      let now = ref 0L in
      let stage name ~fwd ~rev ~rev_dst =
        for i = 1 to 2 do
          now := Int64.add !now 1_000_000L;
          check string_t
            (Printf.sprintf "%s%s: forward %d" label name i)
            fwd
            (fst (send1 e ~now:!now (nat_fwd ())));
          now := Int64.add !now 1_000_000L;
          let out, m = send1 e ~now:!now (nat_rev ()) in
          check string_t
            (Printf.sprintf "%s%s: reply %d" label name i)
            rev out;
          check string_t
            (Printf.sprintf "%s%s: reply %d destination" label name i)
            rev_dst
            (Ipaddr.to_string m.Mbuf.key.Flow_key.dst)
        done
      in
      stage "nat bound" ~fwd:"fwd:1" ~rev:"fwd:0" ~rev_dst:"10.0.0.1";
      pmgr (Printf.sprintf "plugin quarantine %d" nat_id);
      stage "nat quarantined" ~fwd:"fwd:1" ~rev:"fwd:2" ~rev_dst:"198.51.100.7";
      pmgr (Printf.sprintf "plugin restore %d" nat_id);
      stage "nat restored" ~fwd:"fwd:1" ~rev:"fwd:0" ~rev_dst:"10.0.0.1";
      Rp_engine.Engine.stop e;
      ignore (Session.Table.flush t))
    routing_modes

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
let run_scenario ?(nat_out = false) mode table ops =
  let r = mk_router () in
  let t = Session.Table.get table in
  ignore (Session.Table.flush t);
  Session.Table.add_rule t (snat_rule ~tos:0x18 (Ipaddr.v4 198 51 100 7));
  let nat_id, ct_id = setup_session_plugins r ~table in
  (if nat_out then
     let pmgr cmd = ok (Rp_control.Pmgr.exec r cmd) in
     ignore (pmgr "modload nat-out");
     let id =
       Scanf.sscanf (pmgr ("create nat-out table=" ^ table)) "instance %d" Fun.id
     in
     ignore (pmgr (Printf.sprintf "bind %d <*, *, *, *, *, *>" id)));
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
  let stats = Session.Table.stats t in
  ignore (Session.Table.flush t);
  (List.rev !results, stats)

let prop_inline_equals_sharded =
  let n = ref 0 in
  qtest ~count:15
    "inline = sharded:4 verdict-for-verdict, rewrite-for-rewrite" gen_ops
    (fun ops ->
      incr n;
      let inline, _ =
        run_scenario Rp_engine.Engine.Inline (Printf.sprintf "eq-inl-%d" !n) ops
      in
      let sharded, _ =
        run_scenario (Rp_engine.Engine.Sharded 4)
          (Printf.sprintf "eq-shd-%d" !n)
          ops
      in
      inline = sharded)

(* [nat-out] stays loadable, and binding it changes nothing: the same
   verdicts, rewrites and session counters. *)
let prop_nat_out_inert =
  let n = ref 0 in
  qtest ~count:10 "binding nat-out changes nothing" gen_ops (fun ops ->
      incr n;
      let without =
        run_scenario Rp_engine.Engine.Inline (Printf.sprintf "no-out-%d" !n) ops
      in
      let bound =
        run_scenario ~nat_out:true Rp_engine.Engine.Inline
          (Printf.sprintf "out-%d" !n)
          ops
      in
      without = bound)

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
        [
          Alcotest.test_case "UDP timeout and export" `Quick test_udp_timeout_expiry;
          Alcotest.test_case "a pass visits the due sessions" `Quick
            test_expiry_visits_due;
        ] );
      ("model", [ prop_model ]);
      ( "bound",
        [ Alcotest.test_case "capacity refuses and counts" `Quick test_capacity_bound ] );
      ( "rewrite",
        [
          Alcotest.test_case "IPv6 hop-by-hop NAT" `Quick test_v6_hop_by_hop_nat;
          prop_rewrite_checksums;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "soft-slot hit path allocates nothing" `Quick
            test_hit_path_allocates_nothing;
          Alcotest.test_case "rewrite reuses the view's key" `Quick
            test_rewrite_allocation;
          Alcotest.test_case "a NAT'd reply's resolve allocates nothing" `Quick
            test_nat_reply_resolve_allocation;
          Alcotest.test_case "nat + conntrack + DRR conversation is GC-silent"
            `Quick test_nat_drr_conversation_allocates_nothing;
        ] );
      ( "data-path",
        [
          Alcotest.test_case "end to end inline" `Quick test_end_to_end_inline;
          Alcotest.test_case "steady-state accesses" `Quick
            test_steady_state_accesses;
          Alcotest.test_case "canonical RSS" `Quick test_canonical_rss;
        ] );
      ( "routing",
        [
          Alcotest.test_case "route changes reach sessions" `Quick
            test_route_changes_reach_sessions;
          Alcotest.test_case "quarantine routes by carried dst" `Quick
            test_quarantine_routes_by_carried_dst;
        ] );
      ( "pmgr",
        [ Alcotest.test_case "sessions and nat commands" `Quick test_pmgr_commands ] );
      ( "equivalence",
        [ prop_inline_equals_sharded; prop_nat_out_inert ] );
    ]
