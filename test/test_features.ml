(* Tests for the extension features: ICMP generation, IPv4
   fragmentation/reassembly, and the L4-switching routing plugin
   (the paper's section 8 future work). *)

open Rp_pkt
open Rp_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* --- ICMP wire format -------------------------------------------------- *)

let test_icmp_roundtrip () =
  let cases =
    [
      Icmp.Echo_request { ident = 42; seq = 7 };
      Icmp.Echo_reply { ident = 42; seq = 7 };
      Icmp.Dest_unreachable Icmp.Net_unreachable;
      Icmp.Dest_unreachable Icmp.Port_unreachable;
      Icmp.Dest_unreachable Icmp.Admin_prohibited;
      Icmp.Time_exceeded;
      Icmp.Packet_too_big 1500;
      Icmp.Param_problem 8;
    ]
  in
  List.iter
    (fun (src, dst) ->
      let src = Ipaddr.of_string src and dst = Ipaddr.of_string dst in
      List.iter
        (fun message ->
          let t = { Icmp.message; payload = "original header bytes here.." } in
          let wire = Icmp.serialize ~src ~dst t in
          match Icmp.parse ~src ~dst wire with
          | Ok t' ->
            check bool_t
              (Format.asprintf "%a roundtrip" Icmp.pp t)
              true
              (t'.Icmp.message = message && t'.Icmp.payload = t.Icmp.payload)
          | Error e -> Alcotest.failf "parse: %a" Icmp.pp_error e)
        cases)
    [ ("10.0.0.1", "172.31.0.1"); ("2001:db8::1", "2001:db8::2") ]

let v4_a = Ipaddr.v4 10 0 0 1 and v4_b = Ipaddr.v4 172 31 0 1

let test_icmp_checksum_detects () =
  let wire =
    Icmp.serialize ~src:v4_a ~dst:v4_b
      { Icmp.message = Icmp.Time_exceeded; payload = "xyz" }
  in
  Bytes.set wire 9 'Q';
  check bool_t "corruption detected" true
    (match Icmp.parse ~src:v4_a ~dst:v4_b wire with
     | Error Icmp.Bad_checksum -> true
     | Ok _ | Error _ -> false)

(* --- ICMP generation by the core --------------------------------------- *)

let mk_router ?(mtu1 = 9180) () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 ~mtu:mtu1 () ] in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  (* Route back to sources, and a local address to send errors from. *)
  Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
  Router.add_local_addr r (Ipaddr.v4 172 31 0 1);
  Router.add_route r (Prefix.of_string "2001:db8:1::/48") ~iface:1 ();
  Router.add_route r (Prefix.of_string "fd00::/8") ~iface:0 ();
  Router.add_local_addr r (Ipaddr.of_string "2001:db8:ffff::1");
  r

let mk_pkt ?(ttl = 64) ?(len = 1000) ?(dst = "192.168.1.1") () =
  Mbuf.synth ~ttl
    ~key:
      (Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.of_string dst)
         ~proto:Proto.udp ~sport:5000 ~dport:9000 ~iface:0)
    ~len ()

(* The ICMP message a router-made datagram carries, read at its
   transport offset. *)
let icmp_of (m : Mbuf.t) =
  match Mbuf.l4_message m with
  | Some msg -> Icmp.parse ~src:m.Mbuf.key.Flow_key.src ~dst:m.Mbuf.key.Flow_key.dst msg
  | None -> Alcotest.fail "no ICMP message"

let test_icmp_ttl_exceeded () =
  let r = mk_router () in
  (match Ip_core.process r ~now:0L (mk_pkt ~ttl:1 ()) with
   | Ip_core.Dropped _ -> ()
   | v -> Alcotest.failf "expected drop, got %a" Ip_core.pp_verdict v);
  check int_t "icmp generated" 1 r.Router.icmp_sent;
  (* The error went out toward the source (if0). *)
  match Iface.dequeue (Router.iface r 0) ~now:0L with
  | Some icmp_pkt ->
    check int_t "icmp proto" Proto.icmp icmp_pkt.Mbuf.key.Flow_key.proto;
    check bool_t "addressed to source" true
      (Ipaddr.equal icmp_pkt.Mbuf.key.Flow_key.dst (Ipaddr.v4 10 0 0 1));
    (match icmp_of icmp_pkt with
     | Ok { Icmp.message = Icmp.Time_exceeded; _ } -> ()
     | Ok t -> Alcotest.failf "wrong message: %a" Icmp.pp t
     | Error e -> Alcotest.failf "parse: %a" Icmp.pp_error e)
  | None -> Alcotest.fail "no icmp on if0"

let test_icmp_no_route () =
  let r = mk_router () in
  (match Ip_core.process r ~now:0L (mk_pkt ~dst:"8.8.8.8" ()) with
   | Ip_core.Dropped _ -> ()
   | v -> Alcotest.failf "expected drop, got %a" Ip_core.pp_verdict v);
  check int_t "icmp generated" 1 r.Router.icmp_sent;
  match Iface.dequeue (Router.iface r 0) ~now:0L with
  | Some icmp_pkt ->
    (match icmp_of icmp_pkt with
     | Ok { Icmp.message = Icmp.Dest_unreachable Icmp.Net_unreachable; _ } -> ()
     | Ok t -> Alcotest.failf "wrong message: %a" Icmp.pp t
     | Error e -> Alcotest.failf "parse: %a" Icmp.pp_error e)
  | None -> Alcotest.fail "no icmp on if0"

let test_icmp_never_about_icmp () =
  let r = mk_router () in
  let m = mk_pkt ~dst:"8.8.8.8" () in
  m.Mbuf.key <- { m.Mbuf.key with Flow_key.proto = Proto.icmp };
  ignore (Ip_core.process r ~now:0L m);
  check int_t "no icmp about icmp" 0 r.Router.icmp_sent

let test_icmp_needs_local_addr () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  ignore (Ip_core.process r ~now:0L (mk_pkt ~ttl:1 ()));
  check int_t "silent without local address" 0 r.Router.icmp_sent

let test_icmp_echo_responder () =
  let r = mk_router () in
  let router_addr = Ipaddr.v4 172 31 0 1 in
  let src = Ipaddr.v4 10 0 0 1 in
  let body =
    Icmp.serialize ~src ~dst:router_addr
      { Icmp.message = Icmp.Echo_request { ident = 5; seq = 2 };
        payload = "ping payload" }
  in
  let m = Mbuf.datagram ~src ~dst:router_addr ~proto:Proto.icmp ~iface:0 body in
  (match Ip_core.process r ~now:0L m with
   | Ip_core.Delivered_local -> ()
   | v -> Alcotest.failf "expected local delivery, got %a" Ip_core.pp_verdict v);
  (* The reply went back out toward the source. *)
  match Iface.dequeue (Router.iface r 0) ~now:0L with
  | Some reply ->
    check bool_t "to the pinger" true
      (Ipaddr.equal reply.Mbuf.key.Flow_key.dst (Ipaddr.v4 10 0 0 1));
    (match icmp_of reply with
     | Ok { Icmp.message = Icmp.Echo_reply { ident = 5; seq = 2 }; payload } ->
       check bool_t "payload echoed" true (payload = "ping payload")
     | Ok t -> Alcotest.failf "wrong reply: %a" Icmp.pp t
     | Error e -> Alcotest.failf "parse: %a" Icmp.pp_error e)
  | None -> Alcotest.fail "no echo reply sent"

(* The hosts and the router's own address, in both families. *)
let host4 = Ipaddr.v4 10 0 0 1 and router4 = Ipaddr.v4 172 31 0 1
let host6 = Ipaddr.of_string "fd00::1" and router6 = Ipaddr.of_string "2001:db8:ffff::1"

(* An echo request as a host puts it on the wire: built here from the
   IP header serializers and the Internet checksum alone, the ICMPv6
   one over the RFC 4443 pseudo-header, independently of [Icmp]. *)
let wire_echo ~src ~dst ~ident ~seq payload =
  let v6 = Ipaddr.is_v6 src in
  let mlen = 8 + String.length payload in
  let msg = Bytes.make mlen '\000' in
  Bytes.set_uint8 msg 0 (if v6 then 128 else 8);
  Bytes.set_uint16_be msg 4 ident;
  Bytes.set_uint16_be msg 6 seq;
  Bytes.blit_string payload 0 msg 8 (String.length payload);
  let pseudo =
    if not v6 then 0
    else
      let p = Bytes.make 40 '\000' in
      Ipaddr.write src p 0;
      Ipaddr.write dst p 16;
      Bytes.set_int32_be p 32 (Int32.of_int mlen);
      Bytes.set_uint8 p 39 Proto.icmpv6;
      Checksum.sum p 0 40
  in
  Bytes.set_uint16_be msg 2 (Checksum.finish (pseudo + Checksum.sum msg 0 mlen));
  let hdr = if v6 then Ipv6_header.size else Ipv4_header.size in
  let buf = Bytes.create (hdr + mlen) in
  if v6 then
    Ipv6_header.serialize
      (Ipv6_header.default ~payload_length:mlen ~next_header:Proto.icmpv6 ~src ~dst ())
      buf 0
  else
    Ipv4_header.serialize
      (Ipv4_header.default ~total_length:(hdr + mlen) ~proto:Proto.icmp ~src ~dst ())
      buf 0;
  Bytes.blit msg 0 buf hdr mlen;
  buf

let parse_wire buf =
  match Mbuf.of_bytes ~iface:0 buf with
  | Ok m -> m
  | Error e -> Alcotest.failf "of_bytes: %a" Mbuf.pp_error e

(* Everything the router queued on [iface]. *)
let queued r iface =
  let rec go acc =
    match Iface.dequeue (Router.iface r iface) ~now:0L with
    | Some m -> go (m :: acc)
    | None -> List.rev acc
  in
  go []

(* A datagram the router made is its own bytes: they parse to the same
   key, and [len] is their count. *)
let check_reparses label (m : Mbuf.t) =
  match m.Mbuf.raw with
  | None -> Alcotest.failf "%s: no bytes" label
  | Some raw ->
    check int_t (label ^ ": len = byte count") (Bytes.length raw) m.Mbuf.len;
    (match Mbuf.of_bytes ~iface:m.Mbuf.key.Flow_key.iface raw with
     | Ok m' ->
       check bool_t (label ^ ": same key") true (Flow_key.equal m.Mbuf.key m'.Mbuf.key);
       check int_t (label ^ ": same len") m.Mbuf.len m'.Mbuf.len
     | Error e -> Alcotest.failf "%s: reparse: %a" label Mbuf.pp_error e)

(* Regression: a ping that arrives as wire bytes, in either family
   (the ICMPv6 one with its pseudo-header checksum), is answered once,
   and the reply is a datagram of its own. *)
let test_wire_ping () =
  List.iter
    (fun (label, src, dst) ->
      let r = mk_router () in
      let m = parse_wire (wire_echo ~src ~dst ~ident:9 ~seq:4 "wire ping") in
      (match Ip_core.process r ~now:0L m with
       | Ip_core.Delivered_local -> ()
       | v -> Alcotest.failf "%s: %a" label Ip_core.pp_verdict v);
      match queued r 0 with
      | [ reply ] ->
        check_reparses label reply;
        check bool_t (label ^ ": to the pinger") true
          (Ipaddr.equal reply.Mbuf.key.Flow_key.dst src);
        (match icmp_of reply with
         | Ok { Icmp.message = Icmp.Echo_reply { ident = 9; seq = 4 }; payload } ->
           check bool_t (label ^ ": payload echoed") true (payload = "wire ping")
         | Ok t -> Alcotest.failf "%s: wrong reply: %a" label Icmp.pp t
         | Error e -> Alcotest.failf "%s: reply: %a" label Icmp.pp_error e)
      | l -> Alcotest.failf "%s: %d replies" label (List.length l))
    [ ("v4", host4, router4); ("v6", host6, router6) ]

(* Regression: every ICMP error the router makes, in either family, is
   a whole datagram that reparses with [len] equal to its byte count. *)
let test_icmp_errors_reparse () =
  List.iter
    (fun (label, src, dst, ttl, len, df, want) ->
      let r = mk_router ~mtu1:576 () in
      let m =
        if Ipaddr.is_v4 src then
          Mbuf.udp_v4 ~ttl ~src ~dst ~sport:5000 ~dport:9000 ~iface:0
            ~payload:(String.make len 'x') ()
        else
          Mbuf.udp_v6 ~hop_limit:ttl ~src ~dst ~sport:5000 ~dport:9000 ~iface:0
            ~payload:(String.make len 'x') ()
      in
      m.Mbuf.dont_fragment <- df;
      (match Ip_core.process r ~now:0L m with
       | Ip_core.Dropped _ -> ()
       | v -> Alcotest.failf "%s: %a" label Ip_core.pp_verdict v);
      match queued r 0 with
      | [ err ] ->
        check_reparses label err;
        (match icmp_of err with
         | Ok { Icmp.message; _ } ->
           check bool_t (label ^ ": the error") true (message = want)
         | Error e -> Alcotest.failf "%s: %a" label Icmp.pp_error e)
      | l -> Alcotest.failf "%s: %d errors" label (List.length l))
    [
      ("v4 time exceeded", host4, Ipaddr.v4 192 168 1 1, 1, 100, false, Icmp.Time_exceeded);
      ("v6 time exceeded", host6, Ipaddr.of_string "2001:db8:1::1", 1, 100, false,
       Icmp.Time_exceeded);
      ("v4 no route", host4, Ipaddr.v4 8 8 8 8, 64, 100, false,
       Icmp.Dest_unreachable Icmp.Net_unreachable);
      ("v6 no route", host6, Ipaddr.of_string "2001:4860::8888", 64, 100, false,
       Icmp.Dest_unreachable Icmp.Net_unreachable);
      ("v4 too big", host4, Ipaddr.v4 192 168 1 1, 64, 1000, true, Icmp.Packet_too_big 576);
      ("v6 too big", host6, Ipaddr.of_string "2001:db8:1::1", 64, 1000, false,
       Icmp.Packet_too_big 576);
    ]

(* --- fragmentation ------------------------------------------------------ *)

let test_fragment_basic () =
  let m = mk_pkt ~len:4020 () in
  m.Mbuf.ident <- 777;
  match Frag.fragment m ~mtu:1500 with
  | Error _ -> Alcotest.fail "should fragment"
  | Ok frags ->
    check int_t "three fragments" 3 (List.length frags);
    List.iter
      (fun (f : Mbuf.t) ->
        check bool_t "fits mtu" true (f.Mbuf.len <= 1500);
        check int_t "ident inherited" 777 f.Mbuf.ident)
      frags;
    (* Offsets contiguous, multiple of 8, last has more=false. *)
    let infos = List.filter_map (fun (f : Mbuf.t) -> f.Mbuf.frag) frags in
    check int_t "all marked" 3 (List.length infos);
    let payload_total = 4020 - Ipv4_header.size in
    let covered =
      List.fold_left
        (fun acc (f : Mbuf.t) -> acc + (f.Mbuf.len - Ipv4_header.size))
        0 frags
    in
    check int_t "payload conserved" payload_total covered;
    (match List.rev infos with
     | last :: earlier ->
       check bool_t "last not more" false last.Mbuf.more;
       List.iter (fun i -> check bool_t "more set" true i.Mbuf.more) earlier
     | [] -> Alcotest.fail "no fragments");
    List.iter
      (fun i -> check int_t "8-aligned" 0 (i.Mbuf.offset mod 8))
      infos

let test_fragment_df_and_v6 () =
  let m = mk_pkt ~len:4020 () in
  m.Mbuf.dont_fragment <- true;
  check bool_t "df refused" true (Frag.fragment m ~mtu:1500 = Error `Dont_fragment);
  let k6 =
    Flow_key.make ~src:(Ipaddr.of_string "2001:db8::1")
      ~dst:(Ipaddr.of_string "2001:db8::2") ~proto:Proto.udp ~sport:1 ~dport:2
      ~iface:0
  in
  let m6 = Mbuf.synth ~key:k6 ~len:4020 () in
  check bool_t "v6 refused" true
    (Frag.fragment m6 ~mtu:1500 = Error `V6_never_fragments);
  (* Small packets pass through untouched. *)
  let small = mk_pkt ~len:500 () in
  check bool_t "no-op" true (Frag.fragment small ~mtu:1500 = Ok [ small ])

let test_fragment_raw_bytes () =
  let payload = String.init 3000 (fun i -> Char.chr (i land 0xFF)) in
  let m =
    Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
      ~sport:1 ~dport:2 ~iface:0 ~payload ()
  in
  m.Mbuf.ident <- 4242;
  let frags = ok (Result.map_error (fun _ -> "frag") (Frag.fragment m ~mtu:576)) in
  (* Every fragment is a valid IPv4 packet on the wire. *)
  List.iter
    (fun (f : Mbuf.t) ->
      match f.Mbuf.raw with
      | Some raw ->
        (match Ipv4_header.parse raw 0 with
         | Ok h ->
           check int_t "wire length" f.Mbuf.len h.Ipv4_header.total_length;
           check int_t "ident" 4242 h.Ipv4_header.ident
         | Error e -> Alcotest.failf "fragment header: %a" Ipv4_header.pp_error e)
      | None -> Alcotest.fail "fragment lost raw bytes")
    frags;
  (* Reassembly restores the exact original bytes. *)
  let reasm = Frag.Reassembly.create () in
  let result =
    List.fold_left
      (fun acc f ->
        match Frag.Reassembly.offer reasm ~now:0L f with
        | Some whole -> Some whole
        | None -> acc)
      None frags
  in
  match result, m.Mbuf.raw with
  | Some whole, Some original ->
    check int_t "length restored" m.Mbuf.len whole.Mbuf.len;
    (match whole.Mbuf.raw with
     | Some rebuilt ->
       (* Headers differ in flags/checksum/udp-checksum treatment only
          beyond the IP header; compare payloads. *)
       check bool_t "payload bytes restored" true
         (Bytes.sub rebuilt Ipv4_header.size (Bytes.length rebuilt - Ipv4_header.size)
          = Bytes.sub original Ipv4_header.size (Bytes.length original - Ipv4_header.size))
     | None -> Alcotest.fail "no rebuilt bytes")
  | None, _ -> Alcotest.fail "reassembly incomplete"
  | _, None -> Alcotest.fail "no original bytes"

let prop_fragment_reassemble =
  qtest ~count:200 "fragment + reassemble (any order) = identity"
    QCheck2.Gen.(
      triple (int_range 1300 9000) (int_range 600 1500) (int_range 0 1000))
    (fun (len, mtu, shuffle_seed) ->
      let m = mk_pkt ~len () in
      m.Mbuf.ident <- 9;
      match Frag.fragment m ~mtu with
      | Error _ -> false
      | Ok frags ->
        let rng = Random.State.make [| shuffle_seed |] in
        let shuffled =
          List.map (fun f -> (Random.State.bits rng, f)) frags
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        in
        let reasm = Frag.Reassembly.create () in
        let complete = ref None in
        let premature = ref false in
        List.iteri
          (fun i f ->
            match Frag.Reassembly.offer reasm ~now:0L f with
            | Some whole ->
              if i < List.length shuffled - 1 then premature := false;
              complete := Some whole
            | None -> ())
          shuffled;
        (not !premature)
        &&
        (match !complete with
         | Some whole ->
           whole.Mbuf.len = len && Frag.Reassembly.pending reasm = 0
         | None -> List.length frags = 1))

let test_reassembly_timeout () =
  let reasm = Frag.Reassembly.create ~timeout_ns:1000L () in
  let m = mk_pkt ~len:3000 () in
  let frags = ok (Result.map_error (fun _ -> "frag") (Frag.fragment m ~mtu:1500)) in
  (match frags with
   | first :: _ -> ignore (Frag.Reassembly.offer reasm ~now:0L first)
   | [] -> Alcotest.fail "no fragments");
  check int_t "pending" 1 (Frag.Reassembly.pending reasm);
  check int_t "expired" 1 (Frag.Reassembly.expire reasm ~now:5000L);
  check int_t "gone" 0 (Frag.Reassembly.pending reasm)

(* A fragment of datagram [ident], at [offset], with more to come. *)
let mk_frag ~ident ~offset =
  let m = mk_pkt ~len:100 () in
  m.Mbuf.ident <- ident;
  m.Mbuf.frag <- Some { Mbuf.offset; more = true };
  m

(* A flood of first fragments that never complete stays within the
   datagram cap, each datagram beyond it evicting the oldest; a
   datagram offered more fragments than its cap is dropped whole; and
   the timeout applies from [offer] alone, with no [expire] call. *)
let test_reassembly_bounded () =
  let module R = Frag.Reassembly in
  let count name = Rp_obs.Counter.get (Rp_obs.Registry.counter ("frag.reasm_" ^ name)) in
  let evicted0 = count "evicted" and refused0 = count "refused" in
  let expired0 = count "expired" in
  let reasm = R.create () in
  for i = 0 to 9_999 do
    ignore (R.offer reasm ~now:(Int64.of_int i) (mk_frag ~ident:i ~offset:0))
  done;
  check int_t "pending at the cap" R.max_pending (R.pending reasm);
  check int_t "the rest evicted" (10_000 - R.max_pending) (count "evicted" - evicted0);
  let reasm = R.create () in
  for j = 0 to R.max_frags do
    ignore (R.offer reasm ~now:0L (mk_frag ~ident:1 ~offset:(8 * j)))
  done;
  check int_t "one fragment too many refuses the datagram" 1 (count "refused" - refused0);
  check int_t "nothing pending after a refusal" 0 (R.pending reasm);
  let reasm = R.create ~timeout_ns:1000L () in
  ignore (R.offer reasm ~now:0L (mk_frag ~ident:1 ~offset:0));
  ignore (R.offer reasm ~now:500L (mk_frag ~ident:2 ~offset:0));
  ignore (R.offer reasm ~now:1200L (mk_frag ~ident:3 ~offset:0));
  check int_t "the datagram past its timeout went at the next offer" 2
    (R.pending reasm);
  check int_t "expired" 1 (count "expired" - expired0)

let frag_evicted () = Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Frag_evicted

(* Every fragment offered ends in exactly one place: a reassembled
   datagram, the [frag_evicted] drop reason (timed out, refused,
   evicted or replaced by a duplicate), or the buffer.  Datagrams of wire bytes
   fragmented at random MTUs (small ones pass the 64-fragment cap),
   offered in a random order with duplicates and time jumps past the
   timeout. *)
let prop_reassembly_conserves =
  qtest ~count:300 "reassembly: offered = reassembled + discarded + buffered"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 4) (pair (int_range 100 1500) (int_range 28 600)))
        (list_size (int_range 0 200) (triple (int_bound 3) (int_bound 500) (int_bound 9))))
    (fun (datagrams, ops) ->
      let frags =
        Array.of_list
          (List.mapi
             (fun i (len, mtu) ->
               let m =
                 Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
                   ~sport:1 ~dport:2 ~iface:0 ~payload:(String.make len 'f') ()
               in
               m.Mbuf.ident <- i;
               match Frag.fragment m ~mtu with
               | Ok fs -> Array.of_list fs
               | Error _ -> [||])
             datagrams)
      in
      let e0 = frag_evicted () in
      let r = Frag.Reassembly.create ~timeout_ns:100L () in
      let now = ref 0L and offered = ref 0 and reassembled = ref 0 in
      List.iter
        (fun (d, j, jump) ->
          let fs = frags.(d mod Array.length frags) in
          now := Int64.add !now (if jump = 0 then 200L else 1L);
          incr offered;
          match Frag.Reassembly.offer r ~now:!now fs.(j mod Array.length fs) with
          | Some _ -> reassembled := !reassembled + Array.length fs
          | None -> ())
        ops;
      !offered = !reassembled + (frag_evicted () - e0) + Frag.Reassembly.buffered r)

(* Evicted datagrams are reported with their fragments too. *)
let test_reassembly_reports_evictions () =
  let e0 = frag_evicted () in
  let r = Frag.Reassembly.create () in
  for i = 0 to 1_999 do
    ignore (Frag.Reassembly.offer r ~now:(Int64.of_int i) (mk_frag ~ident:i ~offset:0))
  done;
  check int_t "one fragment per evicted datagram"
    (2_000 - Frag.Reassembly.max_pending) (frag_evicted () - e0);
  check int_t "the rest buffered" Frag.Reassembly.max_pending (Frag.Reassembly.buffered r)

let test_router_fragments_at_egress () =
  (* Egress MTU 1500, 4 KB datagrams: the router fragments; DF makes
     it drop with an ICMP packet-too-big. *)
  let r = mk_router ~mtu1:1500 () in
  (match Ip_core.process r ~now:0L (mk_pkt ~len:4000 ()) with
   | Ip_core.Enqueued 1 -> ()
   | v -> Alcotest.failf "expected enqueue, got %a" Ip_core.pp_verdict v);
  check int_t "three fragments queued" 3 (Iface.backlog (Router.iface r 1));
  let df = mk_pkt ~len:4000 () in
  df.Mbuf.dont_fragment <- true;
  (match Ip_core.process r ~now:0L df with
   | Ip_core.Dropped "needs fragmentation" -> ()
   | v -> Alcotest.failf "expected df drop, got %a" Ip_core.pp_verdict v);
  check int_t "icmp too-big sent" 1 r.Router.icmp_sent

(* --- L4 routing plugin --------------------------------------------------- *)

let test_l4_policy_routing () =
  (* Default route sends everything to if1; a routing-plugin binding
     steers one application flow to if2 (policy routing). *)
  let ifaces = List.init 3 (fun id -> Iface.create ~id ()) in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  ok (Pcu.modload r.Router.pcu (module Route_plugin));
  let via2 =
    ok
      (Pcu.create_instance r.Router.pcu ~plugin:"l4-route"
         [ ("iface", "2"); ("nexthop", "172.16.0.9") ])
  in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:via2.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.udp ~dport:(Rp_classifier.Filter.Port 4433) ()));
  (* The special flow goes to if2 with the configured next hop... *)
  let special = mk_pkt () in
  special.Mbuf.key <- { special.Mbuf.key with Flow_key.dport = 4433 };
  (match Ip_core.process r ~now:0L special with
   | Ip_core.Enqueued 2 -> ()
   | v -> Alcotest.failf "expected if2, got %a" Ip_core.pp_verdict v);
  check bool_t "next hop set" true
    (Ipaddr.equal special.Mbuf.next_hop (Ipaddr.v4 172 16 0 9));
  (* ...ordinary traffic still follows the table. *)
  match Ip_core.process r ~now:0L (mk_pkt ()) with
  | Ip_core.Enqueued 1 -> ()
  | v -> Alcotest.failf "expected if1, got %a" Ip_core.pp_verdict v

let test_l4_blackhole () =
  let r = mk_router () in
  ok (Pcu.modload r.Router.pcu (module Route_plugin));
  let bh =
    ok
      (Pcu.create_instance r.Router.pcu ~plugin:"l4-route"
         [ ("action", "blackhole") ])
  in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:bh.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~src:(Prefix.of_string "10.0.0.0/24") ()));
  (match Ip_core.process r ~now:0L (mk_pkt ()) with
   | Ip_core.Dropped "null route" -> ()
   | v -> Alcotest.failf "expected blackhole, got %a" Ip_core.pp_verdict v);
  match Route_plugin.totals_of ~instance_id:bh.Plugin.instance_id with
  | Some t -> check int_t "counted" 1 t.Route_plugin.blackholed
  | None -> Alcotest.fail "no totals"

let test_l4_route_cached () =
  (* Second packet of the flow routes via the FIX — no extra filter
     lookups. *)
  let ifaces = List.init 3 (fun id -> Iface.create ~id ()) in
  let r = Router.create ~gates:[ Gate.Routing ] ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  ok (Pcu.modload r.Router.pcu (module Route_plugin));
  let via2 = ok (Pcu.create_instance r.Router.pcu ~plugin:"l4-route" [ ("iface", "2") ]) in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:via2.Plugin.instance_id
       (Rp_classifier.Filter.v4 ()));
  ignore (Ip_core.process r ~now:0L (mk_pkt ()));
  let ft = Rp_classifier.Aiu.flow_table (Router.aiu r) in
  let misses_before = (Rp_classifier.Flow_table.stats ft).Rp_classifier.Flow_table.misses in
  (match Ip_core.process r ~now:1L (mk_pkt ()) with
   | Ip_core.Enqueued 2 -> ()
   | v -> Alcotest.failf "expected if2, got %a" Ip_core.pp_verdict v);
  let misses_after = (Rp_classifier.Flow_table.stats ft).Rp_classifier.Flow_table.misses in
  check int_t "no new classification misses" misses_before misses_after

let test_l4_config_errors () =
  (match Route_plugin.create_instance ~instance_id:1 ~code:0 ~config:[] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing iface accepted");
  (match
     Route_plugin.create_instance ~instance_id:1 ~code:0
       ~config:[ ("action", "teleport") ]
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad action accepted");
  match
    Route_plugin.create_instance ~instance_id:1 ~code:0
      ~config:[ ("iface", "zero") ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad iface accepted"

(* --- data-path conservation ---------------------------------------------- *)

(* Whatever the configuration, every received packet is accounted for
   exactly once: enqueued, delivered locally, absorbed, or dropped —
   and everything enqueued is either still backlogged or transmitted. *)
let prop_packet_conservation =
  qtest ~count:150 "ip_core: every packet accounted exactly once"
    QCheck2.Gen.(
      triple (int_bound 2) (list_size (int_range 1 40) (pair (int_bound 7) (int_bound 3)))
        (int_bound 2))
    (fun (config, packets, _salt) ->
      let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:8 () ] in
      let r = Router.create ~ifaces () in
      Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
      Router.add_local_addr r (Ipaddr.v4 172 31 0 1);
      (* Configurations: plain, deny-some firewall, ipsec-in expecting
         protection (drops everything unprotected). *)
      (match config with
       | 1 ->
         (match Pcu.modload r.Router.pcu (module Firewall_plugin) with
          | Ok () ->
            (match
               Pcu.create_instance r.Router.pcu ~plugin:"firewall"
                 [ ("policy", "deny") ]
             with
             | Ok inst ->
               ignore
                 (Pcu.register_instance r.Router.pcu
                    ~instance:inst.Plugin.instance_id
                    (Rp_classifier.Filter.v4 ~proto:Proto.tcp ()))
             | Error _ -> ())
          | Error _ -> ())
       | 2 ->
         Rp_crypto.Ipsec_plugin.add_sa ~name:"conserve"
           (Rp_crypto.Sa.create ~spi:1l ~transform:Rp_crypto.Sa.Ah
              ~auth_key:"k" ());
         (match Pcu.modload r.Router.pcu (module Rp_crypto.Ipsec_plugin.In) with
          | Ok () ->
            (match
               Pcu.create_instance r.Router.pcu ~plugin:"ipsec-in"
                 [ ("sa", "conserve") ]
             with
             | Ok inst ->
               ignore
                 (Pcu.register_instance r.Router.pcu
                    ~instance:inst.Plugin.instance_id
                    (Rp_classifier.Filter.v4 ~proto:Proto.udp ()))
             | Error _ -> ())
          | Error _ -> ())
       | _ -> ());
      let enqueued = ref 0 and delivered = ref 0 and dropped = ref 0
      and absorbed = ref 0 in
      List.iter
        (fun (i, proto_sel) ->
          let proto =
            match proto_sel with
            | 0 -> Proto.udp
            | 1 -> Proto.tcp
            | _ -> Proto.icmp
          in
          let dst =
            if i = 7 then Ipaddr.v4 8 8 8 8  (* no route *)
            else Ipaddr.v4 192 168 1 (1 + i)
          in
          let m =
            Mbuf.synth
              ~key:
                (Flow_key.make ~src:(Ipaddr.v4 10 0 0 (1 + i)) ~dst ~proto
                   ~sport:(1000 + i) ~dport:2000 ~iface:0)
              ~len:500 ()
          in
          match Ip_core.process r ~now:0L m with
          | Ip_core.Enqueued _ -> incr enqueued
          | Ip_core.Delivered_local -> incr delivered
          | Ip_core.Absorbed -> incr absorbed
          | Ip_core.Dropped _ -> incr dropped)
        packets;
      let accounted = !enqueued + !delivered + !dropped + !absorbed in
      (* ICMP errors are self-generated extras on if0/if1; drain both
         queues and check the data-plane totals stay consistent. *)
      let drained = ref 0 in
      List.iter
        (fun ifc ->
          let continue = ref true in
          while !continue do
            match Iface.dequeue ifc ~now:0L with
            | Some _ -> incr drained
            | None -> continue := false
          done)
        [ Router.iface r 0; Router.iface r 1 ];
      accounted = List.length packets && !drained >= !enqueued - 8 (* fifo_limit drops *))

let () =
  Alcotest.run "features"
    [
      ( "icmp",
        [
          Alcotest.test_case "wire roundtrip" `Quick test_icmp_roundtrip;
          Alcotest.test_case "checksum" `Quick test_icmp_checksum_detects;
          Alcotest.test_case "ttl exceeded" `Quick test_icmp_ttl_exceeded;
          Alcotest.test_case "no route" `Quick test_icmp_no_route;
          Alcotest.test_case "never about icmp" `Quick test_icmp_never_about_icmp;
          Alcotest.test_case "needs local addr" `Quick test_icmp_needs_local_addr;
          Alcotest.test_case "echo responder" `Quick test_icmp_echo_responder;
          Alcotest.test_case "wire-bytes ping is answered" `Quick test_wire_ping;
          Alcotest.test_case "router-made errors reparse" `Quick
            test_icmp_errors_reparse;
        ] );
      ( "frag",
        [
          Alcotest.test_case "basic split" `Quick test_fragment_basic;
          Alcotest.test_case "df and v6 refused" `Quick test_fragment_df_and_v6;
          Alcotest.test_case "raw wire fragments" `Quick test_fragment_raw_bytes;
          prop_fragment_reassemble;
          Alcotest.test_case "reassembly timeout" `Quick test_reassembly_timeout;
          Alcotest.test_case "reassembly is bounded" `Quick test_reassembly_bounded;
          prop_reassembly_conserves;
          Alcotest.test_case "reassembly reports evictions" `Quick
            test_reassembly_reports_evictions;
          Alcotest.test_case "router fragments at egress" `Quick
            test_router_fragments_at_egress;
        ] );
      ( "conservation",
        [ prop_packet_conservation ] );
      ( "l4-route",
        [
          Alcotest.test_case "policy routing" `Quick test_l4_policy_routing;
          Alcotest.test_case "blackhole" `Quick test_l4_blackhole;
          Alcotest.test_case "route decision cached" `Quick test_l4_route_cached;
          Alcotest.test_case "config errors" `Quick test_l4_config_errors;
        ] );
    ]
