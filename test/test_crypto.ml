(* Tests for the security substrate: MD5 against the RFC 1321 test
   suite, HMAC-MD5 against RFC 2202, RC4 against the classic vectors,
   SA replay windows, and the IPsec plugins end to end (raw-bytes and
   synthetic paths, including tamper and replay rejection). *)

open Rp_pkt
open Rp_crypto

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- MD5 -------------------------------------------------------------- *)

(* RFC 1321, appendix A.5. *)
let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_md5_rfc_vectors () =
  List.iter
    (fun (input, expect) ->
      check string_t
        (Printf.sprintf "md5(%S)" input)
        expect
        (Md5.to_hex (Md5.digest_string input)))
    md5_vectors

let prop_md5_incremental =
  qtest "md5: incremental = one-shot at any split"
    QCheck2.Gen.(pair (string_size (int_range 0 300)) (int_bound 300))
    (fun (s, split) ->
      let split = min split (String.length s) in
      let ctx = Md5.init () in
      Md5.update_string ctx (String.sub s 0 split);
      Md5.update_string ctx (String.sub s split (String.length s - split));
      Md5.final ctx = Md5.digest_string s)

let test_md5_block_boundaries () =
  (* Lengths around the 55/56/64 padding edges are the classic MD5
     implementation traps. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Md5.init () in
      String.iter (fun c -> Md5.update_string ctx (String.make 1 c)) s;
      check string_t
        (Printf.sprintf "byte-at-a-time, len %d" n)
        (Md5.to_hex (Md5.digest_string s))
        (Md5.to_hex (Md5.final ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

(* --- HMAC-MD5 ----------------------------------------------------------- *)

(* RFC 2202, test cases 1-3 and 6 (long key). *)
let test_hmac_rfc2202 () =
  let cases =
    [
      (String.make 16 '\x0b', "Hi There", "9294727a3638bb1c13f48ef8158bfc9d");
      ("Jefe", "what do ya want for nothing?", "750c783e6ab0b503eaa86e310a5db738");
      ( String.make 16 '\xaa',
        String.make 50 '\xdd',
        "56be34521d144c88dbb8c733f0e8b3f6" );
      ( String.make 80 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd" );
    ]
  in
  List.iter
    (fun (key, data, expect) ->
      check string_t "hmac-md5" expect (Md5.to_hex (Hmac.md5 ~key data)))
    cases

let test_hmac_verify () =
  let mac = Hmac.md5 ~key:"k" "data" in
  check bool_t "accepts equal" true (Hmac.verify ~expected:mac mac);
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) mac in
  check bool_t "rejects different" false (Hmac.verify ~expected:mac bad);
  check bool_t "rejects length mismatch" false (Hmac.verify ~expected:mac "short")

let prop_hmac_key_sensitivity =
  qtest "hmac: different keys give different macs"
    QCheck2.Gen.(triple (string_size (int_range 1 40)) (string_size (int_range 1 40)) string)
    (fun (k1, k2, data) ->
      QCheck2.assume (k1 <> k2);
      Hmac.md5 ~key:k1 data <> Hmac.md5 ~key:k2 data)

(* --- RC4 ------------------------------------------------------------------ *)

let test_rc4_vectors () =
  (* Classic vectors (e.g. from the original posting / RFC 6229 spirit). *)
  let hex s = Md5.to_hex s in
  let ks key n = hex (Bytes.to_string (Rc4.keystream (Rc4.create key) n)) in
  check string_t "key 'Key'" "eb9f7781b734ca72a719" (ks "Key" 10);
  check string_t "key 'Wiki'" "6044db6d41b7" (ks "Wiki" 6);
  check string_t "key 'Secret'" "04d46b053ca87b59" (ks "Secret" 8);
  (* Plaintext XOR: 'Plaintext' under 'Key'. *)
  let ct = Rc4.apply_string (Rc4.create "Key") "Plaintext" in
  check string_t "encrypt" "bbf316e8d940af0ad3" (hex ct)

let prop_rc4_roundtrip =
  qtest "rc4: decrypt (encrypt x) = x"
    QCheck2.Gen.(pair (string_size (int_range 1 32)) (string_size (int_range 0 200)))
    (fun (k, data) ->
      let ct = Rc4.apply_string (Rc4.create k) data in
      Rc4.apply_string (Rc4.create k) ct = data)

(* --- SA / replay window ----------------------------------------------------- *)

let mk_sa ?(transform = Sa.Esp) () =
  Sa.create ~spi:0xDEADBEEFl ~transform ~auth_key:"auth-key"
    ~enc_key:"enc-key" ()

let test_sa_seq () =
  let sa = mk_sa () in
  check int_t "first" 1 (Sa.next_seq sa);
  check int_t "second" 2 (Sa.next_seq sa)

let test_replay_window () =
  let sa = mk_sa () in
  check bool_t "fresh 1" true (Sa.replay_check sa 1);
  check bool_t "fresh 2" true (Sa.replay_check sa 2);
  check bool_t "replay 2" false (Sa.replay_check sa 2);
  check bool_t "replay 1" false (Sa.replay_check sa 1);
  (* Out of order within the window. *)
  check bool_t "jump to 70" true (Sa.replay_check sa 70);
  check bool_t "late 50" true (Sa.replay_check sa 50);
  check bool_t "replay 50" false (Sa.replay_check sa 50);
  (* Older than the 64-wide window. *)
  check bool_t "too old 5" false (Sa.replay_check sa 5);
  check bool_t "zero invalid" false (Sa.replay_check sa 0)

let prop_replay_no_double_accept =
  qtest ~count:100 "replay window: no sequence accepted twice"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 1 80))
    (fun seqs ->
      let sa = mk_sa () in
      let accepted = Hashtbl.create 32 in
      List.for_all
        (fun seq ->
          let fresh = Sa.replay_check sa seq in
          if fresh && Hashtbl.mem accepted seq then false
          else begin
            if fresh then Hashtbl.add accepted seq ();
            true
          end)
        seqs)

(* --- IPsec plugins ------------------------------------------------------------ *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let mk_pair ~sa_name ~transform =
  Ipsec_plugin.add_sa ~name:sa_name
    (Sa.create ~spi:77l ~transform ~auth_key:("ak-" ^ sa_name)
       ~enc_key:("ek-" ^ sa_name) ());
  let out =
    ok
      (Ipsec_plugin.Out.create_instance ~instance_id:10 ~code:0
         ~config:[ ("sa", sa_name) ])
  in
  let inp =
    ok
      (Ipsec_plugin.In.create_instance ~instance_id:11 ~code:0
         ~config:[ ("sa", sa_name) ])
  in
  (out, inp)

let ctx : Rp_core.Plugin.ctx = { Rp_core.Plugin.now_ns = 0L; binding = None }

let mk_raw_packet payload =
  Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2) ~sport:4000
    ~dport:5000 ~iface:0 ~payload ()

let payload_of (m : Mbuf.t) =
  match m.Mbuf.raw with
  | Some raw ->
    let off = Ipv4_header.size + Udp_header.size in
    Bytes.sub_string raw off (Bytes.length raw - off)
  | None -> Alcotest.fail "no raw bytes"

let test_esp_roundtrip_raw () =
  let out, inp = mk_pair ~sa_name:"esp-rt" ~transform:Sa.Esp in
  let secret = "attack at dawn, attack at dawn!" in
  let m = mk_raw_packet secret in
  let original_len = m.Mbuf.len in
  (match out.Rp_core.Plugin.handle ctx m with
   | Rp_core.Plugin.Continue | Rp_core.Plugin.Consumed -> ()
   | Rp_core.Plugin.Drop r -> Alcotest.failf "protect dropped: %s" r);
  check int_t "grew by overhead" (original_len + Ipsec_plugin.overhead) m.Mbuf.len;
  (* Ciphertext: the cleartext payload must not appear on the wire. *)
  let wire = payload_of m in
  check bool_t "payload encrypted" false
    (String.length wire >= String.length secret
     && String.sub wire 0 (String.length secret) = secret);
  (* The wire packet still parses (headers were rewritten). *)
  (match m.Mbuf.raw with
   | Some raw ->
     (match Mbuf.of_bytes ~iface:0 raw with
      | Ok m' -> check int_t "wire length consistent" m.Mbuf.len m'.Mbuf.len
      | Error e -> Alcotest.failf "wire reparse: %a" Mbuf.pp_error e)
   | None -> Alcotest.fail "no raw");
  (match inp.Rp_core.Plugin.handle ctx m with
   | Rp_core.Plugin.Continue | Rp_core.Plugin.Consumed -> ()
   | Rp_core.Plugin.Drop r -> Alcotest.failf "unprotect dropped: %s" r);
  check int_t "length restored" original_len m.Mbuf.len;
  check string_t "plaintext back" secret (payload_of m)

let test_esp_tamper_detected () =
  let out, inp = mk_pair ~sa_name:"esp-tamper" ~transform:Sa.Esp in
  let m = mk_raw_packet "integrity matters" in
  ignore (out.Rp_core.Plugin.handle ctx m);
  (match m.Mbuf.raw with
   | Some raw ->
     let pos = Ipv4_header.size + Udp_header.size + 3 in
     Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0xFF))
   | None -> Alcotest.fail "no raw");
  match inp.Rp_core.Plugin.handle ctx m with
  | Rp_core.Plugin.Drop reason ->
    check string_t "bad icv" "ipsec: bad ICV" reason;
    (match Ipsec_plugin.in_failures ~instance_id:11 with
     | Some (bad_icv, _) -> check int_t "counted" 1 bad_icv
     | None -> Alcotest.fail "no failure counters")
  | Rp_core.Plugin.Consumed | Rp_core.Plugin.Continue -> Alcotest.fail "tampered packet accepted"

let test_esp_replay_detected () =
  let out, inp = mk_pair ~sa_name:"esp-replay" ~transform:Sa.Esp in
  let m = mk_raw_packet "once only" in
  ignore (out.Rp_core.Plugin.handle ctx m);
  let replayed =
    match m.Mbuf.raw with
    | Some raw ->
      let copy = Mbuf.synth ~key:m.Mbuf.key ~len:m.Mbuf.len () in
      copy.Mbuf.raw <- Some (Bytes.copy raw);
      copy
    | None -> Alcotest.fail "no raw"
  in
  (match inp.Rp_core.Plugin.handle ctx m with
   | Rp_core.Plugin.Continue | Rp_core.Plugin.Consumed -> ()
   | Rp_core.Plugin.Drop r -> Alcotest.failf "first copy dropped: %s" r);
  match inp.Rp_core.Plugin.handle ctx replayed with
  | Rp_core.Plugin.Drop reason -> check string_t "replay" "ipsec: replayed sequence" reason
  | Rp_core.Plugin.Consumed | Rp_core.Plugin.Continue -> Alcotest.fail "replay accepted"

let test_ah_authenticates_without_encrypting () =
  let out, inp = mk_pair ~sa_name:"ah-rt" ~transform:Sa.Ah in
  let text = "authentic cleartext" in
  let m = mk_raw_packet text in
  ignore (out.Rp_core.Plugin.handle ctx m);
  let wire = payload_of m in
  check bool_t "payload in clear under AH" true
    (String.sub wire 0 (String.length text) = text);
  match inp.Rp_core.Plugin.handle ctx m with
  | Rp_core.Plugin.Continue -> check string_t "payload intact" text (payload_of m)
  | Rp_core.Plugin.Consumed -> Alcotest.fail "AH consumed the packet"
  | Rp_core.Plugin.Drop r -> Alcotest.failf "AH verify failed: %s" r

let test_ipsec_synthetic_path () =
  let out, inp = mk_pair ~sa_name:"esp-synth" ~transform:Sa.Esp in
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2)
      ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0
  in
  let m = Mbuf.synth ~key ~len:500 () in
  ignore (out.Rp_core.Plugin.handle ctx m);
  check int_t "len grew" (500 + Ipsec_plugin.overhead) m.Mbuf.len;
  check bool_t "tagged" true (m.Mbuf.tags <> []);
  (match inp.Rp_core.Plugin.handle ctx m with
   | Rp_core.Plugin.Continue | Rp_core.Plugin.Consumed -> ()
   | Rp_core.Plugin.Drop r -> Alcotest.failf "synthetic unprotect: %s" r);
  check int_t "len restored" 500 m.Mbuf.len;
  (* An unprotected packet at the inbound gate is rejected. *)
  let naked = Mbuf.synth ~key ~len:100 () in
  match inp.Rp_core.Plugin.handle ctx naked with
  | Rp_core.Plugin.Drop _ -> ()
  | Rp_core.Plugin.Consumed | Rp_core.Plugin.Continue -> Alcotest.fail "unprotected packet accepted"

(* Regression: on an IPv6/UDP datagram with a hop-by-hop header, the
   protection starts after the UDP header, wherever the hop-by-hop
   header puts it: the protected datagram reparses with its ports and
   its option, and the round trip restores the payload. *)
let test_esp_v6_hop_by_hop () =
  let out, inp = mk_pair ~sa_name:"esp-v6-hbh" ~transform:Sa.Esp in
  let secret = "the hop-by-hop header moves the ports" in
  let alert = Ipv6_header.Option_tlv.Router_alert 0 in
  let m =
    Mbuf.udp_v6 ~options:[ alert ] ~src:(Ipaddr.of_string "fd00::1")
      ~dst:(Ipaddr.of_string "2001:db8::2") ~sport:4000 ~dport:5000 ~iface:0
      ~payload:secret ()
  in
  let original_len = m.Mbuf.len in
  (match out.Rp_core.Plugin.handle ctx m with
   | Rp_core.Plugin.Continue -> ()
   | _ -> Alcotest.fail "protect did not continue");
  let raw = Option.get m.Mbuf.raw in
  (match Mbuf.of_bytes ~iface:0 raw with
   | Ok m' ->
     check int_t "source port in the clear" 4000 m'.Mbuf.key.Flow_key.sport;
     check int_t "destination port in the clear" 5000 m'.Mbuf.key.Flow_key.dport;
     check bool_t "hop-by-hop option in the clear" true (m'.Mbuf.options = [ alert ]);
     check int_t "length" m.Mbuf.len m'.Mbuf.len
   | Error e -> Alcotest.failf "protected datagram: %a" Mbuf.pp_error e);
  let clear = Bytes.to_string raw in
  let rec contains i =
    i + String.length secret <= String.length clear
    && (String.sub clear i (String.length secret) = secret || contains (i + 1))
  in
  check bool_t "payload encrypted" false (contains 0);
  (match inp.Rp_core.Plugin.handle ctx m with
   | Rp_core.Plugin.Continue -> ()
   | Rp_core.Plugin.Drop r -> Alcotest.failf "unprotect dropped: %s" r
   | Rp_core.Plugin.Consumed -> Alcotest.fail "unprotect consumed");
  check int_t "length restored" original_len m.Mbuf.len;
  match Mbuf.l4_message m with
  | Some msg ->
    check string_t "payload restored" secret
      (Bytes.sub_string msg Udp_header.size (Bytes.length msg - Udp_header.size))
  | None -> Alcotest.fail "no UDP message"

(* Bytes without a UDP header to keep in the clear (a non-initial
   fragment, another protocol) are refused, never carried as a tag:
   the packet leaves untouched or not at all. *)
let test_no_udp_header_refused () =
  let out, _ = mk_pair ~sa_name:"esp-no-udp" ~transform:Sa.Esp in
  let m = mk_raw_packet (String.make 1200 'q') in
  m.Mbuf.ident <- 9;
  let later =
    match Frag.fragment m ~mtu:576 with
    | Ok (_ :: rest) -> rest
    | _ -> Alcotest.fail "fragment"
  in
  let icmp =
    Mbuf.datagram ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2)
      ~proto:Proto.icmp ~iface:0 (Bytes.make 40 'i')
  in
  List.iter
    (fun (m : Mbuf.t) ->
      let before = Bytes.copy (Option.get m.Mbuf.raw) and len = m.Mbuf.len in
      (match out.Rp_core.Plugin.handle ctx m with
       | Rp_core.Plugin.Drop _ -> ()
       | _ -> Alcotest.fail "a packet without a UDP header was passed on");
      check bool_t "bytes untouched" true (Option.get m.Mbuf.raw = before);
      check int_t "length untouched" len m.Mbuf.len;
      check bool_t "not tagged" true (m.Mbuf.tags = []))
    (icmp :: later)

(* Fragments the inbound plugin buffers are absorbed; when their
   datagram times out, is refused or a duplicate replaces one, each
   counts once under [frag_evicted], so every fragment offered ends
   in a reassembled datagram, a counted drop or the buffer. *)
let test_frag_evicted () =
  let out, inp = mk_pair ~sa_name:"esp-frag" ~transform:Sa.Esp in
  let frags ~ident ~len ~mtu =
    let m = mk_raw_packet (String.make len 'p') in
    m.Mbuf.ident <- ident;
    ignore (out.Rp_core.Plugin.handle ctx m);
    match Frag.fragment m ~mtu with
    | Ok fs -> fs
    | Error _ -> Alcotest.fail "fragment"
  in
  let evicted () = Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Frag_evicted in
  let at now (m : Mbuf.t) =
    inp.Rp_core.Plugin.handle { ctx with Rp_core.Plugin.now_ns = now } m
  in
  let consumed now ms =
    List.iter
      (fun m ->
        match at now m with
        | Rp_core.Plugin.Consumed -> ()
        | _ -> Alcotest.fail "a fragment was not absorbed")
      ms
  in
  let e0 = evicted () in
  let a = frags ~ident:1 ~len:3000 ~mtu:576 and b = frags ~ident:2 ~len:1000 ~mtu:576 in
  let c = frags ~ident:3 ~len:600 ~mtu:28 in
  (* all of [a] but its last, then time passes *)
  let a_held = List.filteri (fun i _ -> i < List.length a - 1) a in
  consumed 0L a_held;
  check int_t "nothing lost yet" 0 (evicted () - e0);
  let b_first = List.hd b and b_rest = List.tl b in
  consumed 31_000_000_000L [ b_first ];
  check int_t "the timed-out datagram's fragments" (List.length a_held) (evicted () - e0);
  (* a duplicate replaces the fragment buffered *)
  consumed 31_000_000_000L [ b_first ];
  check int_t "the replaced duplicate" (List.length a_held + 1) (evicted () - e0);
  (* the rest of [b] completes it: verified and passed on *)
  let last = List.nth b_rest (List.length b_rest - 1) in
  consumed 31_000_000_000L (List.filter (fun m -> m != last) b_rest);
  (match at 31_000_000_000L last with
   | Rp_core.Plugin.Continue -> ()
   | _ -> Alcotest.fail "the reassembled datagram did not continue");
  (* one fragment past the per-datagram cap refuses the datagram *)
  let cap = Frag.Reassembly.max_frags in
  check bool_t "enough fragments" true (List.length c > cap);
  consumed 31_000_000_000L (List.filteri (fun i _ -> i <= cap) c);
  let offered = List.length a_held + 2 + List.length b_rest + cap + 1 in
  let reassembled = List.length b in
  check int_t "offered = reassembled + frag_evicted" offered
    (reassembled + (evicted () - e0));
  check int_t "the refused datagram's fragments" (List.length a_held + 1 + cap + 1)
    (evicted () - e0)

let test_sa_config_errors () =
  (match Ipsec_plugin.Out.create_instance ~instance_id:1 ~code:0 ~config:[] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing sa accepted");
  match
    Ipsec_plugin.Out.create_instance ~instance_id:1 ~code:0
      ~config:[ ("sa", "no-such-sa") ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown sa accepted"

let prop_esp_roundtrip_random_payloads =
  qtest ~count:60 "esp: protect then unprotect restores any payload"
    QCheck2.Gen.(string_size (int_range 0 512))
    (fun payload ->
      let name = "esp-prop" in
      Ipsec_plugin.add_sa ~name
        (Sa.create ~spi:5l ~transform:Sa.Esp ~auth_key:"a" ~enc_key:"e" ());
      match
        ( Ipsec_plugin.Out.create_instance ~instance_id:20 ~code:0
            ~config:[ ("sa", name) ],
          Ipsec_plugin.In.create_instance ~instance_id:21 ~code:0
            ~config:[ ("sa", name) ] )
      with
      | Ok out, Ok inp ->
        let m = mk_raw_packet payload in
        (match out.Rp_core.Plugin.handle ctx m with
         | Rp_core.Plugin.Continue ->
           (match inp.Rp_core.Plugin.handle ctx m with
            | Rp_core.Plugin.Continue -> payload_of m = payload
            | Rp_core.Plugin.Drop _ | Rp_core.Plugin.Consumed -> false)
         | Rp_core.Plugin.Drop _ | Rp_core.Plugin.Consumed -> false)
      | _, _ -> false)

let () =
  Alcotest.run "rp_crypto"
    [
      ( "md5",
        [
          Alcotest.test_case "rfc 1321 vectors" `Quick test_md5_rfc_vectors;
          Alcotest.test_case "block boundaries" `Quick test_md5_block_boundaries;
          prop_md5_incremental;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc 2202 vectors" `Quick test_hmac_rfc2202;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          prop_hmac_key_sensitivity;
        ] );
      ( "rc4",
        [
          Alcotest.test_case "known vectors" `Quick test_rc4_vectors;
          prop_rc4_roundtrip;
        ] );
      ( "sa",
        [
          Alcotest.test_case "sequence numbers" `Quick test_sa_seq;
          Alcotest.test_case "replay window" `Quick test_replay_window;
          prop_replay_no_double_accept;
        ] );
      ( "ipsec",
        [
          Alcotest.test_case "esp roundtrip (raw)" `Quick test_esp_roundtrip_raw;
          Alcotest.test_case "esp tamper detected" `Quick test_esp_tamper_detected;
          Alcotest.test_case "esp replay detected" `Quick test_esp_replay_detected;
          Alcotest.test_case "ah cleartext auth" `Quick
            test_ah_authenticates_without_encrypting;
          Alcotest.test_case "synthetic path" `Quick test_ipsec_synthetic_path;
          Alcotest.test_case "v6 hop-by-hop stays in the clear" `Quick
            test_esp_v6_hop_by_hop;
          Alcotest.test_case "no udp header is refused" `Quick
            test_no_udp_header_refused;
          Alcotest.test_case "buffered fragments end in frag_evicted" `Quick
            test_frag_evicted;
          Alcotest.test_case "config errors" `Quick test_sa_config_errors;
          prop_esp_roundtrip_random_payloads;
        ] );
    ]
