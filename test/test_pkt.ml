(* Tests for the rp_pkt substrate: addresses, prefixes, headers,
   checksums, and the mbuf parse/build round trip. *)

open Rp_pkt

let check = Alcotest.check
let string_t = Alcotest.string
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- generators ----------------------------------------------------- *)

let gen_v4_full =
  QCheck2.Gen.map
    (fun (a, b) ->
      Ipaddr.v4_of_int32
        (Int32.logor (Int32.shift_left (Int32.of_int a) 16) (Int32.of_int b)))
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 0xFFFF) (QCheck2.Gen.int_bound 0xFFFF))

let gen_v6 =
  QCheck2.Gen.map
    (fun (a, b, c, d) ->
      Ipaddr.v6 (Int32.of_int a) (Int32.of_int b) (Int32.of_int c) (Int32.of_int d))
    (QCheck2.Gen.quad (QCheck2.Gen.int_bound 0xFFFFFF) (QCheck2.Gen.int_bound 0xFFFFFF)
       (QCheck2.Gen.int_bound 0xFFFFFF) (QCheck2.Gen.int_bound 0xFFFFFF))

let gen_addr = QCheck2.Gen.oneof [ gen_v4_full; gen_v6 ]

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Ipaddr --------------------------------------------------------- *)

let test_v4_to_string () =
  check string_t "dotted quad" "129.132.19.40"
    (Ipaddr.to_string (Ipaddr.v4 129 132 19 40));
  check string_t "zero" "0.0.0.0" (Ipaddr.to_string Ipaddr.zero_v4);
  check string_t "broadcast" "255.255.255.255"
    (Ipaddr.to_string (Ipaddr.v4 255 255 255 255))

let test_v4_of_string () =
  check bool_t "roundtrip" true
    (Ipaddr.equal (Ipaddr.of_string "192.94.233.10") (Ipaddr.v4 192 94 233 10));
  check bool_t "reject octet" true (Ipaddr.of_string_opt "256.0.0.1" = None);
  check bool_t "reject short" true (Ipaddr.of_string_opt "10.0.0" = None);
  check bool_t "reject empty octet" true (Ipaddr.of_string_opt "10..0.1" = None)

let test_v6_strings () =
  let cases =
    [
      "::1";
      "fe80::1";
      "2001:db8::8:800:200c:417a";
      "ff01::101";
      "::";
      "1:2:3:4:5:6:7:8";
    ]
  in
  List.iter
    (fun s ->
      match Ipaddr.of_string_opt s with
      | None -> Alcotest.failf "failed to parse %s" s
      | Some a ->
        check string_t (Printf.sprintf "canonical %s" s) s (Ipaddr.to_string a))
    cases

let test_v6_parse_variants () =
  (* Non-canonical spellings parse to the same address. *)
  let eq a b =
    Ipaddr.equal (Ipaddr.of_string a) (Ipaddr.of_string b)
  in
  check bool_t "leading zeros" true (eq "2001:0db8::1" "2001:db8::1");
  check bool_t "full form" true (eq "0:0:0:0:0:0:0:1" "::1");
  check bool_t "reject double ::" true (Ipaddr.of_string_opt "1::2::3" = None);
  check bool_t "reject 9 groups" true
    (Ipaddr.of_string_opt "1:2:3:4:5:6:7:8:9" = None)

let test_bits () =
  let a = Ipaddr.v4 128 0 0 1 in
  check bool_t "bit 0 set" true (Ipaddr.bit a 0);
  check bool_t "bit 1 clear" false (Ipaddr.bit a 1);
  check bool_t "bit 31 set" true (Ipaddr.bit a 31);
  let six = Ipaddr.of_string "8000::1" in
  check bool_t "v6 bit 0" true (Ipaddr.bit six 0);
  check bool_t "v6 bit 127" true (Ipaddr.bit six 127);
  check bool_t "v6 bit 64" false (Ipaddr.bit six 64)

let test_prefix_bits () =
  let a = Ipaddr.v4 129 132 19 40 in
  check string_t "/8" "129.0.0.0" (Ipaddr.to_string (Ipaddr.prefix_bits a 8));
  check string_t "/16" "129.132.0.0" (Ipaddr.to_string (Ipaddr.prefix_bits a 16));
  check string_t "/0" "0.0.0.0" (Ipaddr.to_string (Ipaddr.prefix_bits a 0));
  check string_t "/32" "129.132.19.40" (Ipaddr.to_string (Ipaddr.prefix_bits a 32))

let test_common_prefix_len () =
  let a = Ipaddr.v4 129 132 19 40 and b = Ipaddr.v4 129 132 19 41 in
  check int_t "one bit differs at 31" 31 (Ipaddr.common_prefix_len a b);
  check int_t "equal" 32 (Ipaddr.common_prefix_len a a);
  check int_t "disjoint" 0
    (Ipaddr.common_prefix_len (Ipaddr.v4 128 0 0 0) (Ipaddr.v4 1 0 0 0));
  let x = Ipaddr.of_string "2001:db8::1" and y = Ipaddr.of_string "2001:db8::2" in
  check int_t "v6 lower word" 126 (Ipaddr.common_prefix_len x y)

let prop_string_roundtrip =
  qtest "ipaddr: of_string (to_string a) = a" gen_addr (fun a ->
      Ipaddr.equal a (Ipaddr.of_string (Ipaddr.to_string a)))

let prop_bytes_roundtrip =
  qtest "ipaddr: read (write a) = a" gen_addr (fun a ->
      let b = Ipaddr.to_bytes a in
      let a' =
        if Ipaddr.is_v4 a then Ipaddr.read_v4 b 0 else Ipaddr.read_v6 b 0
      in
      Ipaddr.equal a a')

let prop_common_prefix_symmetric =
  qtest "ipaddr: common_prefix_len symmetric" (QCheck2.Gen.pair gen_v4_full gen_v4_full)
    (fun (a, b) -> Ipaddr.common_prefix_len a b = Ipaddr.common_prefix_len b a)

(* --- Prefix --------------------------------------------------------- *)

let test_prefix_basics () =
  let p = Prefix.of_string "129.0.0.0/8" in
  check bool_t "matches inside" true (Prefix.matches p (Ipaddr.v4 129 1 2 3));
  check bool_t "no match outside" false (Prefix.matches p (Ipaddr.v4 130 1 2 3));
  check bool_t "wildcard matches" true
    (Prefix.matches Prefix.any_v4 (Ipaddr.v4 1 2 3 4));
  check bool_t "family mismatch" false
    (Prefix.matches Prefix.any_v4 (Ipaddr.of_string "::1"))

let test_prefix_normalize () =
  let p = Prefix.make (Ipaddr.v4 129 132 19 40) 8 in
  check string_t "host bits dropped" "129.0.0.0/8" (Prefix.to_string p)

let test_prefix_subsumes () =
  let sub = Prefix.subsumes in
  let p8 = Prefix.of_string "128.0.0.0/8"
  and p16 = Prefix.of_string "128.252.0.0/16"
  and q16 = Prefix.of_string "129.252.0.0/16" in
  check bool_t "/8 subsumes /16" true (sub p8 p16);
  check bool_t "/16 not subsumes /8" false (sub p16 p8);
  check bool_t "disjoint" false (sub p8 q16);
  check bool_t "self" true (sub p16 p16);
  check bool_t "any subsumes all" true (sub Prefix.any_v4 p16)

let gen_prefix_v4 =
  QCheck2.Gen.map
    (fun (a, len) -> Prefix.make a len)
    (QCheck2.Gen.pair gen_v4_full (QCheck2.Gen.int_bound 32))

let prop_prefix_matches_self =
  qtest "prefix: matches own address" gen_prefix_v4 (fun p ->
      Prefix.matches p p.Prefix.addr)

let prop_prefix_subsumes_matches =
  qtest "prefix: subsumes => matches superset"
    (QCheck2.Gen.triple gen_prefix_v4 gen_prefix_v4 gen_v4_full)
    (fun (p, q, a) ->
      (* If p subsumes q and q matches a, then p matches a. *)
      QCheck2.assume (Prefix.subsumes p q);
      (not (Prefix.matches q a)) || Prefix.matches p a)

let prop_prefix_string_roundtrip =
  qtest "prefix: of_string (to_string p) = p" gen_prefix_v4 (fun p ->
      Prefix.equal p (Prefix.of_string (Prefix.to_string p)))

(* --- Checksum ------------------------------------------------------- *)

let test_checksum_rfc1071 () =
  (* Example from RFC 1071 section 3. *)
  let buf = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check int_t "rfc1071 example" (lnot 0xddf2 land 0xFFFF)
    (Checksum.compute buf 0 8)

let test_checksum_verifies () =
  let buf = Bytes.of_string "\x45\x00\x00\x1cabcdefghij\x00\x00\x00\x00\x00\x00" in
  (* The checksum field must be zero while computing. *)
  Bytes.set buf 10 '\000';
  Bytes.set buf 11 '\000';
  let c = Checksum.compute buf 0 20 in
  Bytes.set buf 10 (Char.chr (c lsr 8));
  Bytes.set buf 11 (Char.chr (c land 0xFF));
  check bool_t "embeds and verifies" true (Checksum.valid buf 0 20)

let prop_checksum_detects_flip =
  qtest "checksum: detects single-byte corruption"
    QCheck2.Gen.(pair (bytes_size (int_range 21 64)) (int_bound 1000))
    (fun (raw, pos) ->
      let buf = Bytes.copy raw in
      let len = Bytes.length buf in
      (* Embed a checksum at offset 0-1. *)
      Bytes.set buf 0 '\000';
      Bytes.set buf 1 '\000';
      let c = Checksum.compute buf 0 len in
      Bytes.set buf 0 (Char.chr (c lsr 8));
      Bytes.set buf 1 (Char.chr (c land 0xFF));
      QCheck2.assume (Checksum.valid buf 0 len);
      let pos = 2 + (pos mod (len - 2)) in
      let original = Char.code (Bytes.get buf pos) in
      (* Flip to a value whose 16-bit word changes the sum. *)
      let flipped = original lxor 0x5A in
      QCheck2.assume (flipped <> original);
      Bytes.set buf pos (Char.chr flipped);
      not (Checksum.valid buf 0 len))

(* RFC 1624 incremental update: adjusting the embedded checksum for a
   16-bit word change must agree with recomputing over the whole
   buffer.  One's-complement checksums have two representations of
   zero (0x0000 / 0xFFFF), so equality is modulo that class. *)
let prop_checksum_adjust =
  qtest "checksum: RFC 1624 adjust = full recompute"
    QCheck2.Gen.(
      triple (bytes_size (int_range 20 64)) (int_bound 1000) (int_bound 0xFFFF))
    (fun (raw, pos, new_word) ->
      let buf = Bytes.copy raw in
      let len = Bytes.length buf land lnot 1 in
      Bytes.set_uint16_be buf 0 0;
      let c = Checksum.compute buf 0 len in
      Bytes.set_uint16_be buf 0 c;
      (* pick an even offset past the checksum field *)
      let off = 2 + (2 * (pos mod ((len - 2) / 2))) in
      let old_word = Bytes.get_uint16_be buf off in
      let adjusted = Checksum.adjust c ~old_word ~new_word in
      Bytes.set_uint16_be buf off new_word;
      Bytes.set_uint16_be buf 0 0;
      let full = Checksum.compute buf 0 len in
      let norm x = x mod 0xFFFF in
      (* the adjusted checksum also still verifies in place *)
      Bytes.set_uint16_be buf 0 adjusted;
      norm adjusted = norm full && Checksum.valid buf 0 len)

let test_checksum_adjust_identity () =
  (* replacing a word with itself must not change the checksum (mod
     the zero class) *)
  check int_t "identity" (0x1234 mod 0xFFFF)
    (Checksum.adjust 0x1234 ~old_word:0xBEEF ~new_word:0xBEEF mod 0xFFFF)

(* --- IPv4 header ---------------------------------------------------- *)

let test_ipv4_roundtrip () =
  let h =
    Ipv4_header.default ~tos:0x10 ~ident:4242 ~ttl:17 ~total_length:1500
      ~proto:Proto.udp ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2) ()
  in
  let buf = Bytes.create 20 in
  Ipv4_header.serialize h buf 0;
  match Ipv4_header.parse buf 0 with
  | Error e -> Alcotest.failf "parse: %a" Ipv4_header.pp_error e
  | Ok h' ->
    check int_t "tos" h.Ipv4_header.tos h'.Ipv4_header.tos;
    check int_t "len" 1500 h'.Ipv4_header.total_length;
    check int_t "ttl" 17 h'.Ipv4_header.ttl;
    check bool_t "src" true (Ipaddr.equal h.Ipv4_header.src h'.Ipv4_header.src)

let test_ipv4_bad_checksum () =
  let h =
    Ipv4_header.default ~total_length:100 ~proto:Proto.tcp
      ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2) ()
  in
  let buf = Bytes.create 20 in
  Ipv4_header.serialize h buf 0;
  Bytes.set buf 8 '\xAA';
  check bool_t "detected" true
    (match Ipv4_header.parse buf 0 with
     | Error Ipv4_header.Bad_checksum -> true
     | Ok _ | Error _ -> false)

let test_ipv4_truncated () =
  check bool_t "truncated" true
    (match Ipv4_header.parse (Bytes.create 10) 0 with
     | Error Ipv4_header.Truncated -> true
     | Ok _ | Error _ -> false)

(* --- IPv6 header and options ---------------------------------------- *)

let test_ipv6_roundtrip () =
  let h =
    Ipv6_header.default ~traffic_class:0xB8 ~flow_label:0xABCDE ~hop_limit:3
      ~payload_length:512 ~next_header:Proto.udp
      ~src:(Ipaddr.of_string "2001:db8::1") ~dst:(Ipaddr.of_string "2001:db8::2") ()
  in
  let buf = Bytes.create 40 in
  Ipv6_header.serialize h buf 0;
  match Ipv6_header.parse buf 0 with
  | Error e -> Alcotest.failf "parse: %a" Ipv6_header.pp_error e
  | Ok h' ->
    check int_t "tclass" 0xB8 h'.Ipv6_header.traffic_class;
    check int_t "flow label" 0xABCDE h'.Ipv6_header.flow_label;
    check int_t "plen" 512 h'.Ipv6_header.payload_length;
    check bool_t "dst" true (Ipaddr.equal h.Ipv6_header.dst h'.Ipv6_header.dst)

let test_hop_by_hop_roundtrip () =
  let open Ipv6_header in
  let hbh =
    {
      Hop_by_hop.next_header = Proto.udp;
      options = [ Option_tlv.Router_alert 0; Option_tlv.Jumbo_payload 100000 ];
    }
  in
  let len = Hop_by_hop.wire_length hbh in
  check int_t "multiple of 8" 0 (len mod 8);
  let buf = Bytes.create len in
  let written = Hop_by_hop.serialize hbh buf 0 in
  check int_t "written" len written;
  match Hop_by_hop.parse buf 0 with
  | Error e -> Alcotest.failf "parse: %a" pp_error e
  | Ok (hbh', len') ->
    check int_t "length back" len len';
    check int_t "next header" Proto.udp hbh'.Hop_by_hop.next_header;
    let alerts =
      List.filter
        (function Option_tlv.Router_alert _ -> true | _ -> false)
        hbh'.Hop_by_hop.options
    in
    check int_t "router alert survives" 1 (List.length alerts)

(* --- UDP / TCP ------------------------------------------------------ *)

let test_udp_roundtrip () =
  let u = { Udp_header.sport = 5000; dport = 6000; length = 108; checksum = 0 } in
  let buf = Bytes.create 8 in
  Udp_header.serialize u buf 0;
  match Udp_header.parse buf 0 with
  | Error e -> Alcotest.failf "parse: %a" Udp_header.pp_error e
  | Ok u' ->
    check int_t "sport" 5000 u'.Udp_header.sport;
    check int_t "dport" 6000 u'.Udp_header.dport;
    check int_t "length" 108 u'.Udp_header.length

let test_tcp_roundtrip () =
  let t =
    {
      Tcp_header.sport = 80;
      dport = 43210;
      seq = 0x12345678l;
      ack_seq = 0x9ABCDEF0l;
      flags = { Tcp_header.no_flags with syn = true; ack = true };
      window = 8192;
      checksum = 0;
      urgent = 0;
    }
  in
  let buf = Bytes.create 20 in
  Tcp_header.serialize t buf 0;
  match Tcp_header.parse buf 0 with
  | Error e -> Alcotest.failf "parse: %a" Tcp_header.pp_error e
  | Ok t' ->
    check bool_t "syn" true t'.Tcp_header.flags.Tcp_header.syn;
    check bool_t "fin" false t'.Tcp_header.flags.Tcp_header.fin;
    check int_t "window" 8192 t'.Tcp_header.window;
    check bool_t "seq" true (t'.Tcp_header.seq = 0x12345678l)

(* --- Flow_key ------------------------------------------------------- *)

let test_flow_key_equal_hash () =
  let k1 =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2)
      ~proto:Proto.udp ~sport:1000 ~dport:2000 ~iface:0
  in
  let k2 = { k1 with Flow_key.iface = 0 } in
  check bool_t "equal" true (Flow_key.equal k1 k2);
  check int_t "hash equal" (Flow_key.hash k1) (Flow_key.hash k2);
  let k3 = { k1 with Flow_key.dport = 2001 } in
  check bool_t "different" false (Flow_key.equal k1 k3)

(* Regression: the hash used to omit [iface] while [equal] includes
   it, so flows differing only by incoming interface — distinct flows
   of the paper's 6-tuple — systematically collided into the same
   bucket. *)
let test_flow_key_iface_hashes_apart () =
  let k iface =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2)
      ~proto:Proto.udp ~sport:1000 ~dport:2000 ~iface
  in
  check bool_t "iface-differing keys are distinct flows" false
    (Flow_key.equal (k 0) (k 1));
  check bool_t "iface participates in the hash" true
    (Flow_key.hash (k 0) <> Flow_key.hash (k 1));
  (* The difference must reach the low bits that pick the bucket
     (default table: 32768 buckets). *)
  List.iter
    (fun other ->
      check bool_t
        (Printf.sprintf "if0 and if%d land in different buckets" other)
        true
        (Flow_key.hash (k 0) mod 32768 <> Flow_key.hash (k other) mod 32768))
    [ 1; 2; 3; 7; 15 ]

let test_flow_key_reverse () =
  let k =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 9)
      ~proto:Proto.tcp ~sport:4000 ~dport:80 ~iface:3
  in
  let r = Flow_key.reverse k in
  check bool_t "src/dst swapped" true
    (Ipaddr.equal r.Flow_key.src k.Flow_key.dst
    && Ipaddr.equal r.Flow_key.dst k.Flow_key.src);
  check int_t "sport" 80 r.Flow_key.sport;
  check int_t "dport" 4000 r.Flow_key.dport;
  check int_t "iface kept by default" 3 r.Flow_key.iface;
  check int_t "iface override" 7 (Flow_key.reverse ~iface:7 k).Flow_key.iface;
  check bool_t "involution" true
    (Flow_key.equal (Flow_key.reverse (Flow_key.reverse k)) k)

let test_flow_key_canonical () =
  let k =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 9)
      ~proto:Proto.tcp ~sport:4000 ~dport:80 ~iface:3
  in
  let ck, d = Flow_key.canonical k in
  let cr, dr = Flow_key.canonical (Flow_key.reverse ~iface:5 k) in
  check bool_t "both directions canonicalize to one key" true
    (Flow_key.equal ck cr);
  check bool_t "direction bits differ" true (d <> dr);
  check int_t "canonical zeroes the iface" 0 ck.Flow_key.iface;
  check int_t "canonical_hash is direction-blind" (Flow_key.canonical_hash k)
    (Flow_key.canonical_hash (Flow_key.reverse ~iface:5 k));
  (* canonical is idempotent and reports Fwd on an already-canonical
     key *)
  let ck2, d2 = Flow_key.canonical ck in
  check bool_t "idempotent" true (Flow_key.equal ck ck2 && d2 = Flow_key.Fwd)

let gen_sym_key_v4 =
  QCheck2.Gen.map
    (fun ((a, b), (sp, dp), (tcp, ifc)) ->
      Flow_key.make ~src:(Ipaddr.v4 10 0 0 a) ~dst:(Ipaddr.v4 10 0 0 b)
        ~proto:(if tcp then Proto.tcp else Proto.udp) ~sport:sp ~dport:dp
        ~iface:ifc)
    (QCheck2.Gen.triple
       (QCheck2.Gen.pair (QCheck2.Gen.int_bound 3) (QCheck2.Gen.int_bound 3))
       (QCheck2.Gen.pair (QCheck2.Gen.int_bound 0xFFFF) (QCheck2.Gen.int_bound 3))
       (QCheck2.Gen.pair QCheck2.Gen.bool (QCheck2.Gen.int_bound 7)))

let gen_sym_key_v6 =
  QCheck2.Gen.map
    (fun ((src, dst), (sp, dp), ifc) ->
      Flow_key.make ~src ~dst ~proto:Proto.tcp ~sport:sp ~dport:dp ~iface:ifc)
    (QCheck2.Gen.triple (QCheck2.Gen.pair gen_v6 gen_v6)
       (QCheck2.Gen.pair (QCheck2.Gen.int_bound 0xFFFF) (QCheck2.Gen.int_bound 0xFFFF))
       (QCheck2.Gen.int_bound 7))

let gen_sym_key = QCheck2.Gen.oneof [ gen_sym_key_v4; gen_sym_key_v6 ]

let prop_canonical_collapses_direction =
  qtest "flow_key: canonical collapses direction" gen_sym_key (fun k ->
      let r = Flow_key.reverse ~iface:(7 - k.Flow_key.iface) k in
      let ck, d = Flow_key.canonical k in
      let cr, dr = Flow_key.canonical r in
      Flow_key.equal ck cr
      && Flow_key.canonical_hash k = Flow_key.canonical_hash r
      (* the direction bits are opposite unless the tuple is perfectly
         symmetric (src = dst and sport = dport) *)
      && (d <> dr
         || (Ipaddr.equal k.Flow_key.src k.Flow_key.dst
            && k.Flow_key.sport = k.Flow_key.dport)))

let prop_reverse_involution =
  qtest "flow_key: reverse (reverse k) = k" gen_sym_key (fun k ->
      Flow_key.equal (Flow_key.reverse (Flow_key.reverse k)) k)

(* --- Mbuf ----------------------------------------------------------- *)

let test_mbuf_udp_v4_roundtrip () =
  let m =
    Mbuf.udp_v4 ~src:(Ipaddr.v4 192 168 1 1) ~dst:(Ipaddr.v4 192 168 1 2)
      ~sport:1234 ~dport:4321 ~iface:2 ~payload:"hello world" ()
  in
  match m.Mbuf.raw with
  | None -> Alcotest.fail "no raw bytes"
  | Some raw ->
    (match Mbuf.of_bytes ~iface:2 raw with
     | Error e -> Alcotest.failf "parse: %a" Mbuf.pp_error e
     | Ok m' ->
       check bool_t "key" true (Flow_key.equal m.Mbuf.key m'.Mbuf.key);
       check int_t "len" m.Mbuf.len m'.Mbuf.len)

let test_mbuf_udp_v6_roundtrip () =
  let m =
    Mbuf.udp_v6 ~flow_label:99
      ~options:[ Ipv6_header.Option_tlv.Router_alert 0 ]
      ~src:(Ipaddr.of_string "2001:db8::1") ~dst:(Ipaddr.of_string "2001:db8::2")
      ~sport:53 ~dport:53 ~iface:1 ~payload:"dns-ish" ()
  in
  match m.Mbuf.raw with
  | None -> Alcotest.fail "no raw bytes"
  | Some raw ->
    (match Mbuf.of_bytes ~iface:1 raw with
     | Error e -> Alcotest.failf "parse: %a" Mbuf.pp_error e
     | Ok m' ->
       check bool_t "key" true (Flow_key.equal m.Mbuf.key m'.Mbuf.key);
       check int_t "flow label" 99 m'.Mbuf.flow_label;
       check int_t "options" 1 (List.length m'.Mbuf.options))

let test_mbuf_udp_checksum_valid () =
  let src = Ipaddr.v4 10 1 1 1 and dst = Ipaddr.v4 10 1 1 2 in
  let m = Mbuf.udp_v4 ~src ~dst ~sport:7 ~dport:7 ~iface:0 ~payload:"payload" () in
  match m.Mbuf.raw with
  | None -> Alcotest.fail "no raw"
  | Some raw ->
    let udp_len = m.Mbuf.len - Ipv4_header.size in
    (* Recomputing over the datagram with its embedded checksum
       treated as zero must reproduce the embedded value. *)
    let embedded =
      Char.code (Bytes.get raw (Ipv4_header.size + 6)) * 256
      + Char.code (Bytes.get raw (Ipv4_header.size + 7))
    in
    let expect = Udp_header.compute_checksum ~src ~dst raw Ipv4_header.size udp_len in
    check int_t "udp checksum" expect embedded

let prop_mbuf_v4_roundtrip =
  qtest ~count:200 "mbuf: udp_v4 build/parse roundtrip"
    QCheck2.Gen.(
      tup5 gen_v4_full gen_v4_full (int_bound 65535) (int_bound 65535)
        (string_size (int_range 0 100)))
    (fun (src, dst, sport, dport, payload) ->
      let m = Mbuf.udp_v4 ~src ~dst ~sport ~dport ~iface:0 ~payload () in
      match m.Mbuf.raw with
      | None -> false
      | Some raw ->
        (match Mbuf.of_bytes ~iface:0 raw with
         | Ok m' -> Flow_key.equal m.Mbuf.key m'.Mbuf.key && m.Mbuf.len = m'.Mbuf.len
         | Error _ -> false))

(* --- Mbuf.of_bytes against the header parsers ----------------------- *)

(* The reference datagram parser: the header parsers composed, each
   record copied into the descriptor, with [of_bytes]'s datagram-length
   check after the IP header.  Only an IPv4 fragment at offset 0 holds
   a transport header (RFC 791), so a later fragment's ports and TCP
   flags are 0, unparsed.  [of_bytes] must agree with it on every
   field, and on every error. *)
let reference_of_bytes ~iface buf =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let ports ~proto off =
    if proto = Proto.udp then
      let* u = Result.map_error (fun e -> Mbuf.Udp_error e) (Udp_header.parse buf off) in
      Ok (u.Udp_header.sport, u.Udp_header.dport, 0)
    else if proto = Proto.tcp then
      let* t = Result.map_error (fun e -> Mbuf.Tcp_error e) (Tcp_header.parse buf off) in
      Ok (t.Tcp_header.sport, t.Tcp_header.dport, Tcp_header.byte_of_flags t.Tcp_header.flags)
    else Ok (0, 0, 0)
  in
  let fresh ~key ~version ~len ~ttl ~tos =
    let m = Mbuf.synth ~ttl ~tos ~key ~len () in
    m.Mbuf.version <- version;
    m.Mbuf.raw <- Some buf;
    m
  in
  if Bytes.length buf = 0 then Error Mbuf.Empty
  else
    let version = Char.code (Bytes.get buf 0) lsr 4 in
    if version = 4 then
      let* h = Result.map_error (fun e -> Mbuf.V4_error e) (Ipv4_header.parse buf 0) in
      let len = h.Ipv4_header.total_length in
      if len > Bytes.length buf then Error (Mbuf.V4_error (Ipv4_header.Bad_length len))
      else
        let proto = h.Ipv4_header.proto in
        let* sport, dport, tcp_flags =
          if h.Ipv4_header.fragment_offset <> 0 then Ok (0, 0, 0)
          else ports ~proto Ipv4_header.size
        in
        let key =
          Flow_key.make ~src:h.Ipv4_header.src ~dst:h.Ipv4_header.dst ~proto ~sport
            ~dport ~iface
        in
        let m = fresh ~key ~version:Mbuf.V4 ~len ~ttl:h.Ipv4_header.ttl ~tos:h.Ipv4_header.tos in
        m.Mbuf.ident <- h.Ipv4_header.ident;
        m.Mbuf.dont_fragment <- h.Ipv4_header.dont_fragment;
        m.Mbuf.tcp_flags <- tcp_flags;
        if h.Ipv4_header.fragment_offset <> 0 || h.Ipv4_header.more_fragments then
          m.Mbuf.frag <-
            Some
              {
                Mbuf.offset = h.Ipv4_header.fragment_offset * 8;
                more = h.Ipv4_header.more_fragments;
              };
        Ok m
    else if version = 6 then
      let* h = Result.map_error (fun e -> Mbuf.V6_error e) (Ipv6_header.parse buf 0) in
      let len = Ipv6_header.size + h.Ipv6_header.payload_length in
      if len > Bytes.length buf then Error (Mbuf.V6_error Ipv6_header.Truncated)
      else
        let* options, proto, off =
          if h.Ipv6_header.next_header = Proto.ipv6_hop_by_hop then
            let* hbh, hbh_len =
              Result.map_error (fun e -> Mbuf.V6_error e)
                (Ipv6_header.Hop_by_hop.parse buf Ipv6_header.size)
            in
            Ok
              ( List.filter
                  (function
                    | Ipv6_header.Option_tlv.Pad1 | Ipv6_header.Option_tlv.Padn _ -> false
                    | _ -> true)
                  hbh.Ipv6_header.Hop_by_hop.options,
                hbh.Ipv6_header.Hop_by_hop.next_header,
                Ipv6_header.size + hbh_len )
          else Ok ([], h.Ipv6_header.next_header, Ipv6_header.size)
        in
        let* sport, dport, tcp_flags = ports ~proto off in
        let key =
          Flow_key.make ~src:h.Ipv6_header.src ~dst:h.Ipv6_header.dst ~proto ~sport
            ~dport ~iface
        in
        let m =
          fresh ~key ~version:Mbuf.V6 ~len ~ttl:h.Ipv6_header.hop_limit
            ~tos:h.Ipv6_header.traffic_class
        in
        m.Mbuf.flow_label <- h.Ipv6_header.flow_label;
        m.Mbuf.options <- options;
        m.Mbuf.dont_fragment <- true;
        m.Mbuf.tcp_flags <- tcp_flags;
        Ok m
    else Error (Mbuf.V4_error (Ipv4_header.Bad_version version))

(* Valid datagrams of every shape [of_bytes] knows: v4 (fragments
   included) and v6 (with or without a hop-by-hop header), carrying
   UDP, TCP or another protocol, in a buffer that may be longer than
   the datagram. *)
let gen_option =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Ipv6_header.Option_tlv.Router_alert v) (int_bound 0xFFFF);
        map (fun v -> Ipv6_header.Option_tlv.Jumbo_payload v) (int_bound 0xFFFFFF);
        map (fun n -> Ipv6_header.Option_tlv.Padn n) (int_range 2 6);
        return Ipv6_header.Option_tlv.Pad1;
        map2
          (fun ty body -> Ipv6_header.Option_tlv.Unknown (ty, body))
          (int_range 6 0xBF) (string_size (int_bound 6));
      ])

let gen_datagram =
  QCheck2.Gen.(
    let* v6 = bool in
    let* proto = oneofl [ Proto.udp; Proto.tcp; Proto.icmp; 47 ] in
    let* sport = int_bound 0xFFFF and* dport = int_bound 0xFFFF in
    let* flags = int_bound 0x3F and* payload = string_size (int_bound 40) in
    let* tos = int_bound 255 and* ttl = int_bound 255 and* ident = int_bound 0xFFFF in
    let* df = bool and* mf = bool and* frag_off = oneof [ return 0; int_bound 0x1FFF ] in
    let* flow_label = int_bound 0xFFFFF and* options = list_size (int_bound 3) gen_option in
    let* slack = int_bound 8 in
    let* src4 = gen_v4_full and* dst4 = gen_v4_full in
    let* src6 = gen_v6 and* dst6 = gen_v6 in
    let l4 =
      if proto = Proto.tcp then Tcp_header.size
      else if proto = Proto.udp then Udp_header.size
      else 0
    in
    let hbh =
      if v6 && options <> [] then
        Some { Ipv6_header.Hop_by_hop.next_header = proto; options }
      else None
    in
    let hbh_len = Option.fold ~none:0 ~some:Ipv6_header.Hop_by_hop.wire_length hbh in
    let l3 = if v6 then Ipv6_header.size + hbh_len else Ipv4_header.size in
    let len = l3 + l4 + String.length payload in
    let buf = Bytes.make (len + slack) '\000' in
    if v6 then begin
      Ipv6_header.serialize
        (Ipv6_header.default ~traffic_class:tos ~flow_label ~hop_limit:ttl
           ~payload_length:(len - Ipv6_header.size)
           ~next_header:(if hbh = None then proto else Proto.ipv6_hop_by_hop)
           ~src:src6 ~dst:dst6 ())
        buf 0;
      Option.iter
        (fun h -> ignore (Ipv6_header.Hop_by_hop.serialize h buf Ipv6_header.size))
        hbh
    end
    else
      Ipv4_header.serialize
        {
          (Ipv4_header.default ~tos ~ident ~ttl ~total_length:len ~proto ~src:src4
             ~dst:dst4 ())
          with
          Ipv4_header.dont_fragment = df;
          more_fragments = mf;
          fragment_offset = frag_off;
        }
        buf 0;
    if proto = Proto.udp then
      Udp_header.serialize
        { Udp_header.sport; dport; length = l4 + String.length payload; checksum = 0 }
        buf l3
    else if proto = Proto.tcp then
      Tcp_header.serialize
        {
          Tcp_header.sport;
          dport;
          seq = 1l;
          ack_seq = 2l;
          flags = Tcp_header.flags_of_byte flags;
          window = 512;
          checksum = 0;
          urgent = 0;
        }
        buf l3;
    Bytes.blit_string payload 0 buf (l3 + l4) (String.length payload);
    return buf)

(* A valid datagram with up to four bytes overwritten, then possibly
   cut short. *)
let gen_mangled =
  QCheck2.Gen.(
    let* buf = gen_datagram in
    let* pokes = list_size (int_bound 4) (pair (int_bound 1000) (int_bound 255)) in
    let* cut = opt (int_bound 1000) in
    let buf = Bytes.copy buf in
    List.iter
      (fun (i, b) -> Bytes.set buf (i mod Bytes.length buf) (Char.chr b))
      pokes;
    return
      (match cut with
       | Some k -> Bytes.sub buf 0 (k mod (Bytes.length buf + 1))
       | None -> buf))

let print_bytes b =
  String.concat " "
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* Same descriptor (every field, the key compared as a key too) or the
   same error, and never an exception. *)
let agrees buf =
  match (Mbuf.of_bytes ~iface:3 buf, reference_of_bytes ~iface:3 buf) with
  | Ok m, Ok r -> Flow_key.equal m.Mbuf.key r.Mbuf.key && m = r
  | Error e, Error e' -> e = e'
  | Ok _, Error _ | Error _, Ok _ -> false
  | exception _ -> false

let prop_of_bytes_valid =
  QCheck2.Test.make ~count:1000 ~name:"mbuf: of_bytes = header parsers on valid datagrams"
    ~print:print_bytes gen_datagram (fun buf ->
      agrees buf && Result.is_ok (Mbuf.of_bytes ~iface:3 buf))
  |> QCheck_alcotest.to_alcotest

let prop_of_bytes_mangled =
  QCheck2.Test.make ~count:3000 ~name:"mbuf: of_bytes = header parsers on mangled bytes"
    ~print:print_bytes gen_mangled agrees
  |> QCheck_alcotest.to_alcotest

(* A datagram claiming more bytes than arrived is refused, by its IP
   header's own length field; a header-only IPv4 buffer still parses at
   the header level (an ICMP error quotes one). *)
let test_of_bytes_overlong () =
  let m =
    Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2) ~sport:1
      ~dport:2 ~iface:0 ~payload:"0123456789" ()
  in
  let raw = Option.get m.Mbuf.raw in
  let short = Bytes.sub raw 0 (Bytes.length raw - 1) in
  (match Mbuf.of_bytes ~iface:0 short with
   | Error (Mbuf.V4_error (Ipv4_header.Bad_length n)) ->
     check int_t "claimed length" (Bytes.length raw) n
   | _ -> Alcotest.fail "v4: overlong datagram accepted");
  check bool_t "header parser takes the header alone" true
    (Result.is_ok (Ipv4_header.parse (Bytes.sub raw 0 Ipv4_header.size) 0));
  let m6 =
    Mbuf.udp_v6 ~src:(Ipaddr.of_string "2001:db8::1") ~dst:(Ipaddr.of_string "2001:db8::2")
      ~sport:1 ~dport:2 ~iface:0 ~payload:"0123456789" ()
  in
  let raw6 = Option.get m6.Mbuf.raw in
  match Mbuf.of_bytes ~iface:0 (Bytes.sub raw6 0 (Bytes.length raw6 - 1)) with
  | Error (Mbuf.V6_error Ipv6_header.Truncated) -> ()
  | _ -> Alcotest.fail "v6: overlong datagram accepted"

(* The direct parser's whole bill for a valid IPv4/UDP datagram: the
   [Ok] (2 words), the 23-field descriptor (24), [Some buf] (2), the key
   (7) and its two boxed addresses (5 each).  A header record, a
   [Result] chain or a port tuple coming back shows up here. *)
let of_bytes_words_v4_udp = 45.

let test_of_bytes_alloc () =
  let m =
    Mbuf.udp_v4 ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 10 0 0 2) ~sport:1
      ~dport:2 ~iface:0 ~payload:(String.make 22 'x') ()
  in
  let raw = Option.get m.Mbuf.raw in
  let n = 10_000 in
  let last = ref (Mbuf.of_bytes ~iface:0 raw) in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    last := Mbuf.of_bytes ~iface:0 raw
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check bool_t "parsed" true (Result.is_ok !last);
  check bool_t
    (Printf.sprintf "%.2f minor words per datagram (ceiling %.0f)" words
       of_bytes_words_v4_udp)
    true
    (words <= of_bytes_words_v4_udp)

(* --- the datagrams the router builds ---------------------------------- *)

open Rp_core

(* Hosts behind if0, destinations behind if1 (MTU 576), and the
   router's own address, in both families. *)
let host ~v6 i =
  if v6 then Ipaddr.of_string (Printf.sprintf "fd00::%x" (1 + i))
  else Ipaddr.v4 10 0 (i lsr 8 land 0xFF) (1 + (i land 0x7F))

let far ~v6 i =
  if v6 then Ipaddr.of_string (Printf.sprintf "2001:db8:1::%x" (1 + i))
  else Ipaddr.v4 192 168 (i lsr 8 land 0xFF) (1 + (i land 0x7F))

let router_addr ~v6 =
  if v6 then Ipaddr.of_string "2001:db8:ffff::1" else Ipaddr.v4 172 31 0 1

let mk_router () =
  let r =
    Router.create ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 ~mtu:576 () ] ()
  in
  List.iter
    (fun (p, iface) -> Router.add_route r (Prefix.of_string p) ~iface ())
    [ ("10.0.0.0/8", 0); ("fd00::/8", 0); ("192.168.0.0/16", 1); ("2001:db8:1::/48", 1) ];
  Router.add_local_addr r (router_addr ~v6:false);
  Router.add_local_addr r (router_addr ~v6:true);
  r

(* What the router queued on [iface]. *)
let queued r iface =
  let rec go acc =
    match Iface.dequeue (Router.iface r iface) ~now:0L with
    | Some m -> go (m :: acc)
    | None -> List.rev acc
  in
  go []

(* [m]'s bytes, if it has any, are its datagram: they reparse to its
   key, its length and its hop-by-hop options. *)
let reparses (m : Mbuf.t) =
  match m.Mbuf.raw with
  | None -> true
  | Some raw ->
    (match Mbuf.of_bytes ~iface:m.Mbuf.key.Flow_key.iface raw with
     | Ok m' ->
       Flow_key.equal m.Mbuf.key m'.Mbuf.key && m.Mbuf.len = m'.Mbuf.len
       && m.Mbuf.options = m'.Mbuf.options
     | Error _ -> false)

let icmp_proto ~v6 = if v6 then Proto.icmpv6 else Proto.icmp

(* The datagrams one scenario makes the router build: UDP datagrams
   (hop-by-hop options on IPv6), an echo reply, each ICMP error the
   router sends, SSP SETUP/TEARDOWN, RSVP PATH (as sent and as an RSVP
   router forwards it, on IPv6 also behind a Router Alert) and RESV, a
   reassembled datagram (IPv4; IPv6 routers never fragment) and an
   IPsec-protected one. *)
let built_datagrams (v6, i, sport, dport, payload, options) =
  let src = host ~v6 i and dst = far ~v6 i and me = router_addr ~v6 in
  let udp ?(ttl = 64) ?(options = []) payload =
    if v6 then
      Mbuf.udp_v6 ~hop_limit:ttl ~options ~src ~dst ~sport ~dport ~iface:0 ~payload ()
    else Mbuf.udp_v4 ~ttl ~src ~dst ~sport ~dport ~iface:0 ~payload ()
  in
  let from_router ?(setup = ignore) ?(out = 0) m =
    let r = mk_router () in
    setup r;
    ignore (Ip_core.process r ~now:0L m);
    queued r out
  in
  let echo =
    Mbuf.datagram ~src ~dst:me ~proto:(icmp_proto ~v6) ~iface:0
      (Icmp.serialize ~src ~dst:me
         { Icmp.message = Icmp.Echo_request { ident = i; seq = sport }; payload })
  in
  let too_big =
    let m = udp (String.make 1000 'b') in
    m.Mbuf.dont_fragment <- true;
    m
  in
  let unroutable =
    if v6 then Mbuf.udp_v6 ~src ~dst:(Ipaddr.of_string "2001:4860::1") ~sport ~dport ~iface:0 ~payload ()
    else Mbuf.udp_v4 ~src ~dst:(Ipaddr.v4 8 8 8 8) ~sport ~dport ~iface:0 ~payload ()
  in
  let flow = Flow_key.make ~src ~dst ~proto:Proto.udp ~sport ~dport ~iface:0 in
  let reassembled =
    let m = Mbuf.udp_v4 ~src:(host ~v6:false i) ~dst:(far ~v6:false i) ~sport ~dport
        ~iface:0 ~payload:(payload ^ String.make 1200 'r') ()
    in
    m.Mbuf.ident <- i;
    match Frag.fragment m ~mtu:576 with
    | Ok frags ->
      let reasm = Frag.Reassembly.create () in
      List.filter_map (fun f -> Frag.Reassembly.offer reasm ~now:0L f) (List.rev frags)
    | Error _ -> []
  in
  let protected =
    Rp_crypto.Ipsec_plugin.add_sa ~name:"built"
      (Rp_crypto.Sa.create ~spi:7l ~transform:Rp_crypto.Sa.Esp ~auth_key:"a"
         ~enc_key:"e" ());
    let out =
      match
        Rp_crypto.Ipsec_plugin.Out.create_instance ~instance_id:99 ~code:0
          ~config:[ ("sa", "built") ]
      with
      | Ok inst -> inst
      | Error e -> failwith e
    in
    let m = udp ~options payload in
    ignore (out.Plugin.handle { Plugin.now_ns = 0L; binding = None } m);
    m
  in
  let rsvp_forwarded path =
    from_router ~out:1 ~setup:(fun r -> ignore (Rp_control.Rsvp.attach r)) path
  in
  (* On IPv6, a PATH behind a hop-by-hop Router Alert keeps it when
     forwarded. *)
  let path_alert () =
    let p = Rp_control.Rsvp.path_packet ~sender:src ~flow in
    if not v6 then p
    else
      Mbuf.datagram ~options:[ Ipv6_header.Option_tlv.Router_alert 0 ] ~src ~dst
        ~proto:Proto.rsvp ~iface:0 (Option.get (Mbuf.l4_message p))
  in
  [ ("udp", [ udp payload ]);
    ("udp with options", [ udp ~options payload ]);
    ("echo reply", from_router echo);
    ("time exceeded", from_router (udp ~ttl:1 payload));
    ("net unreachable", from_router unroutable);
    ("packet too big", from_router too_big);
    ("ssp setup", [ Rp_control.Ssp.setup_packet ~src ~flow ~rate_bps:1000 ]);
    ("ssp teardown", [ Rp_control.Ssp.teardown_packet ~src ~flow ]);
    ("rsvp path", [ Rp_control.Rsvp.path_packet ~sender:src ~flow ]);
    ("rsvp path forwarded",
     rsvp_forwarded (Rp_control.Rsvp.path_packet ~sender:src ~flow));
    ("rsvp path with router alert", [ path_alert () ]);
    ("rsvp path with router alert forwarded", rsvp_forwarded (path_alert ()));
    ("rsvp resv", [ Rp_control.Rsvp.resv_packet ~receiver:dst ~to_hop:me ~flow ~rate_bps:1000 ]);
    ("reassembled", reassembled);
    ("ipsec", [ protected ]) ]

let gen_built =
  QCheck2.Gen.(
    let* v6 = bool and* i = int_bound 1000 in
    let* sport = int_range 1 0xFFFF and* dport = int_range 1 0xFFFF in
    let* payload = string_size ~gen:printable (int_bound 60) in
    let* options = list_size (int_bound 2) gen_option in
    return (v6, i, sport, dport, payload, if v6 then options else []))

let prop_built_datagrams_reparse =
  QCheck2.Test.make ~count:100
    ~name:"every datagram the router builds reparses to its key and length"
    gen_built (fun c ->
      List.for_all
        (fun (label, ms) ->
          (ms <> [] || QCheck2.Test.fail_reportf "%s: nothing built" label)
          && List.for_all
               (fun m -> reparses m || QCheck2.Test.fail_reportf "%s: %a" label Mbuf.pp m)
               ms)
        (built_datagrams c))
  |> QCheck_alcotest.to_alcotest

(* --- ICMP on the whole pipeline, valid and mangled ---------------------- *)

(* An ICMP or ICMPv6 message to the router, from the header serializers
   and the Internet checksum alone (ICMPv6's over the RFC 4443
   pseudo-header), independently of [Icmp]: type, code and the second
   word as generated, optionally behind a hop-by-hop header. *)
let icmp_wire ~v6 ~src ~dst ~ttl ~options (ty, code, word2) payload =
  let mlen = 8 + String.length payload in
  let msg = Bytes.make mlen '\000' in
  Bytes.set_uint8 msg 0 ty;
  Bytes.set_uint8 msg 1 code;
  Bytes.set_int32_be msg 4 (Int32.of_int word2);
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
  let hbh =
    if v6 && options <> [] then
      Some { Ipv6_header.Hop_by_hop.next_header = Proto.icmpv6; options }
    else None
  in
  let hbh_len = Option.fold ~none:0 ~some:Ipv6_header.Hop_by_hop.wire_length hbh in
  let l4 = (if v6 then Ipv6_header.size else Ipv4_header.size) + hbh_len in
  let buf = Bytes.create (l4 + mlen) in
  if v6 then begin
    Ipv6_header.serialize
      (Ipv6_header.default ~hop_limit:ttl ~payload_length:(hbh_len + mlen)
         ~next_header:(if hbh = None then Proto.icmpv6 else Proto.ipv6_hop_by_hop)
         ~src ~dst ())
      buf 0;
    Option.iter (fun h -> ignore (Ipv6_header.Hop_by_hop.serialize h buf Ipv6_header.size)) hbh
  end
  else
    Ipv4_header.serialize
      (Ipv4_header.default ~ttl ~total_length:(l4 + mlen) ~proto:Proto.icmp ~src ~dst ())
      buf 0;
  Bytes.blit msg 0 buf l4 mlen;
  buf

(* Echo requests (most of them), echo replies, errors and unknown
   types, to the router's own address. *)
let gen_icmp_datagram =
  QCheck2.Gen.(
    let* v6 = bool and* i = int_bound 1000 in
    let* kind =
      frequency
        [ (6, return `Echo); (1, return `Reply); (1, return `Error); (1, return `Other) ]
    in
    let* word2 = int_bound 0x7FFFFFFF and* code = int_bound 3 and* other = int_bound 255 in
    let* ttl = frequency [ (8, return 64); (1, int_bound 2) ] in
    let* payload = string_size (int_bound 48) in
    let* options = list_size (int_bound 2) gen_option in
    let ty =
      match kind, v6 with
      | `Echo, false -> (8, 0) | `Echo, true -> (128, 0)
      | `Reply, false -> (0, 0) | `Reply, true -> (129, 0)
      | `Error, false -> (11, code) | `Error, true -> (3, code)
      | `Other, _ -> (other, code)
    in
    let src = host ~v6 i in
    return
      ( icmp_wire ~v6 ~src ~dst:(router_addr ~v6) ~ttl ~options
          (fst ty, snd ty, word2) payload,
        (* an [`Other] type may draw an echo request too *)
        if ty = (if v6 then (128, 0) else (8, 0)) && ttl > 1 then
          Some (src, word2 lsr 16, word2 land 0xFFFF, payload)
        else None ))

(* A datagram, and the echo request it is by construction: [None] for
   other messages and for mangled bytes, whose answer only the parsers
   can tell. *)
let gen_icmp_mangled =
  QCheck2.Gen.(
    let* buf, echo = gen_icmp_datagram in
    let* mangle = bool in
    if not mangle then return (buf, `Built echo)
    else
      let* pokes = list_size (int_range 1 3) (pair (int_bound 1000) (int_bound 255)) in
      let* cut = opt (int_bound 1000) in
      let buf = Bytes.copy buf in
      List.iter (fun (i, b) -> Bytes.set buf (i mod Bytes.length buf) (Char.chr b)) pokes;
      return
        ( (match cut with
           | Some k -> Bytes.sub buf 0 (k mod (Bytes.length buf + 1))
           | None -> buf),
          `Mangled ))

(* The echo request a parsed datagram is, if it is a well-formed one
   the router must answer: to a local address, not a fragment, with
   TTL to spare and a message [Icmp] accepts.  It must agree with what
   a datagram was built as. *)
let echo_request r (m : Mbuf.t) =
  let k = m.Mbuf.key in
  if
    Router.is_local r k.Flow_key.dst && m.Mbuf.frag = None && m.Mbuf.ttl > 1
    && k.Flow_key.proto = icmp_proto ~v6:(Ipaddr.is_v6 k.Flow_key.src)
  then
    match Mbuf.l4_message m with
    | Some msg -> (
      match Icmp.parse ~src:k.Flow_key.src ~dst:k.Flow_key.dst msg with
      | Ok { Icmp.message = Icmp.Echo_request { ident; seq }; payload } ->
        Some (k.Flow_key.src, ident, seq, payload)
      | Ok _ | Error _ -> None)
    | None -> None
  else None

let echo_reply (m : Mbuf.t) =
  let k = m.Mbuf.key in
  match Mbuf.l4_message m with
  | Some msg -> (
    match Icmp.parse ~src:k.Flow_key.src ~dst:k.Flow_key.dst msg with
    | Ok { Icmp.message = Icmp.Echo_reply { ident; seq }; payload } ->
      Some (k.Flow_key.dst, ident, seq, payload)
    | Ok _ | Error _ -> None)
  | None -> None

(* The datagrams through a fresh router on [mode]: nothing raises; each
   one [of_bytes] accepts ends in exactly one result, a drop counted
   under its reason; each well-formed echo request gets exactly one
   reply; and everything the router sends reparses.  The router's own
   datagrams (its ICMP errors and echo replies) that never leave are
   drops too: one to a source without a route is counted under
   [No_route]. *)
let icmp_pipeline mode bufs =
  let module E = Rp_engine.Engine in
  let r = mk_router () in
  let e = E.create mode r in
  let sent = ref [] in
  Array.iteri
    (fun i ifc ->
      E.set_transmitter e ~iface:i (fun ~now ->
          let rec go () =
            let m = Iface.pull ifc ~now in
            if m != Mbuf.dummy then begin
              sent := m :: !sent;
              go ()
            end
          in
          go ()))
    r.Router.ifaces;
  let verdict_drops () =
    List.fold_left (fun n why -> n + Rp_obs.Drop_reason.get why) 0
      Rp_obs.Drop_reason.verdict_reasons
  in
  let drops0 = verdict_drops () in
  let n = List.length bufs in
  let results = Array.make n 0 and dropped = ref 0 and submitted = ref 0 in
  let forwarded = ref 0 in
  let expected = ref [] in
  let record (res : Rp_engine.Shard.result) =
    let i = res.Rp_engine.Shard.m.Mbuf.seq in
    results.(i) <- results.(i) + 1;
    match res.Rp_engine.Shard.outcome with
    | Rp_engine.Shard.Dropped _ -> incr dropped
    | Rp_engine.Shard.Forwarded _ -> incr forwarded
    | Rp_engine.Shard.Absorbed -> ()
  in
  let outcome =
    match
      List.iteri
        (fun i (buf, built) ->
          (* the router writes into the bytes it forwards (the TTL),
             so each run gets its own copy *)
          match Mbuf.of_bytes ~iface:0 (Bytes.copy buf) with
          | Error e ->
            if built <> `Mangled then
              QCheck2.Test.fail_reportf "packet %d: %a" i Mbuf.pp_error e;
            results.(i) <- 1
          | Ok m ->
            m.Mbuf.seq <- i;
            let echo = echo_request r m in
            (match built with
             | `Built b when b <> echo ->
               QCheck2.Test.fail_reportf "packet %d: not read as it was built" i
             | `Built _ | `Mangled -> ());
            Option.iter (fun x -> expected := x :: !expected) echo;
            if not (E.submit e ~now:(Int64.of_int i) m) then
              QCheck2.Test.fail_reportf "packet %d refused" i;
            incr submitted;
            ignore (E.drain e ~f:record))
        bufs;
      ignore (E.flush e ~f:record)
    with
    | () -> Ok ()
    | exception (QCheck2.Test.Test_fail _ as x) -> raise x
    | exception x -> Error (Printexc.to_string x)
  in
  E.stop e;
  let sort = List.sort compare in
  let replies = List.filter_map echo_reply !sent in
  match outcome with
  | Error x -> QCheck2.Test.fail_reportf "%s: raised %s" (E.mode_to_string mode) x
  | Ok () ->
    (Array.for_all (( = ) 1) results
     || QCheck2.Test.fail_reportf "%s: a packet without exactly one result"
          (E.mode_to_string mode))
    &&
    let own = r.Router.icmp_sent + List.length !expected in
    let own_dropped = own - (List.length !sent - !forwarded) in
    (verdict_drops () - drops0 = !dropped + own_dropped
     || QCheck2.Test.fail_reportf "%s: %d drops and %d of its own, %d counted"
          (E.mode_to_string mode) !dropped own_dropped (verdict_drops () - drops0))
    && (sort replies = sort !expected
       || QCheck2.Test.fail_reportf "%s: %d echo requests, %d replies"
            (E.mode_to_string mode) (List.length !expected) (List.length replies))
    && List.for_all reparses !sent

let prop_icmp_pipeline =
  QCheck2.Test.make ~count:40
    ~name:"icmp/icmpv6 to the router, valid and mangled: one verdict, one reply"
    ~print:(fun bufs -> String.concat "\n" (List.map (fun (b, _) -> print_bytes b) bufs))
    QCheck2.Gen.(list_size (int_range 1 16) gen_icmp_mangled)
    (fun bufs ->
      icmp_pipeline Rp_engine.Engine.Inline bufs
      && icmp_pipeline (Rp_engine.Engine.Sharded 1) bufs)
  |> QCheck_alcotest.to_alcotest

(* What [mode] sends for [ms], submitted to [r] in order. *)
let sent_by mode r ms =
  let module E = Rp_engine.Engine in
  let e = E.create mode r in
  let sent = ref [] in
  Array.iteri
    (fun i ifc ->
      E.set_transmitter e ~iface:i (fun ~now ->
          let rec go () =
            let m = Iface.pull ifc ~now in
            if m != Mbuf.dummy then begin
              sent := m :: !sent;
              go ()
            end
          in
          go ()))
    r.Router.ifaces;
  List.iter
    (fun m ->
      assert (E.submit e ~now:0L m);
      ignore (E.drain e ~f:ignore))
    ms;
  ignore (E.flush e ~f:ignore);
  E.stop e;
  List.rev !sent

(* A forwarded datagram's bytes carry the decremented TTL (hop limit),
   and an IPv4 header checksum that still holds. *)
let test_forwarded_ttl mode () =
  let r = mk_router () in
  let payload = String.make 100 'p' in
  let v4 =
    Mbuf.udp_v4 ~ttl:64 ~src:(Ipaddr.v4 10 0 0 5) ~dst:(far ~v6:false 1)
      ~sport:4000 ~dport:5000 ~iface:0 ~payload ()
  and v6 =
    Mbuf.udp_v6 ~hop_limit:64 ~src:(Ipaddr.of_string "fd00::5")
      ~dst:(far ~v6:true 1) ~sport:4000 ~dport:5000 ~iface:0 ~payload ()
  in
  match sent_by mode r [ v4; v6 ] with
  | [ a; b ] ->
    List.iter
      (fun (name, (m : Mbuf.t)) ->
        let raw = Option.get m.Mbuf.raw in
        match Mbuf.of_bytes ~iface:0 raw with
        | Ok m' ->
          check int_t (name ^ ": descriptor ttl") 63 m.Mbuf.ttl;
          check int_t (name ^ ": reparsed ttl") 63 m'.Mbuf.ttl
        | Error e -> Alcotest.failf "%s: %a" name Mbuf.pp_error e)
      [ ("v4", a); ("v6", b) ];
    check bool_t "v4 header checksum" true
      (Checksum.valid (Option.get a.Mbuf.raw) 0 Ipv4_header.size)
  | l -> Alcotest.failf "%d datagrams forwarded, not 2" (List.length l)

(* Every fragment of a UDP and of a TCP datagram parses; only the one
   at offset 0 carries a transport header, so only it has ports. *)
let test_fragments_parse () =
  let src = Ipaddr.v4 10 0 0 5 and dst = Ipaddr.v4 192 168 1 1 in
  let tcp =
    let msg = Bytes.make 1208 '\000' in
    Tcp_header.serialize
      {
        Tcp_header.sport = 4000;
        dport = 5000;
        seq = 0l;
        ack_seq = 0l;
        flags = Tcp_header.flags_of_byte 0x18;
        window = 65535;
        checksum = 0;
        urgent = 0;
      }
      msg 0;
    Mbuf.datagram ~src ~dst ~proto:Proto.tcp ~iface:0 msg
  in
  List.iter
    (fun (name, whole, flags) ->
      check int_t (name ^ ": 1,228 bytes") 1228 whole.Mbuf.len;
      let frags =
        match Frag.fragment whole ~mtu:576 with
        | Ok l -> l
        | Error _ -> Alcotest.failf "%s: not fragmented" name
      in
      check int_t (name ^ ": three fragments") 3 (List.length frags);
      List.iteri
        (fun i (f : Mbuf.t) ->
          match Mbuf.of_bytes ~iface:0 (Option.get f.Mbuf.raw) with
          | Error e -> Alcotest.failf "%s fragment %d: %a" name (i + 1) Mbuf.pp_error e
          | Ok m ->
            let k = m.Mbuf.key in
            let ports = if i = 0 then (4000, 5000) else (0, 0) in
            check (Alcotest.pair int_t int_t)
              (Printf.sprintf "%s fragment %d ports" name (i + 1))
              ports (k.Flow_key.sport, k.Flow_key.dport);
            check int_t
              (Printf.sprintf "%s fragment %d tcp flags" name (i + 1))
              (if i = 0 then flags else 0) m.Mbuf.tcp_flags;
            check int_t
              (Printf.sprintf "%s fragment %d transport offset" name (i + 1))
              (if i = 0 then Ipv4_header.size else -1) (Mbuf.l4_offset m))
        frags)
    [
      ( "udp",
        Mbuf.udp_v4 ~src ~dst ~sport:4000 ~dport:5000 ~iface:0
          ~payload:(String.make 1200 '\000') (),
        0 );
      ("tcp", tcp, 0x18);
    ]

(* An ICMP error quotes the offending IPv4 header and 8 bytes, or as
   much of an IPv6 datagram as fits in 1,280 bytes, never past the
   datagram. *)
let test_icmp_quote () =
  let r = mk_router () in
  let error_about (m : Mbuf.t) =
    (match Ip_core.process r ~now:0L m with
     | Ip_core.Dropped _ -> ()
     | v -> Alcotest.failf "not dropped: %a" Ip_core.pp_verdict v);
    match queued r 0 with
    | [ e ] -> e
    | l -> Alcotest.failf "%d errors queued, not 1" (List.length l)
  in
  let quote (e : Mbuf.t) =
    let k = e.Mbuf.key in
    match Icmp.parse ~src:k.Flow_key.src ~dst:k.Flow_key.dst
            (Option.get (Mbuf.l4_message e)) with
    | Ok { Icmp.message = Icmp.Time_exceeded; payload } -> payload
    | Ok _ | Error _ -> Alcotest.fail "not a time-exceeded error"
  in
  let v6 len =
    Mbuf.udp_v6 ~hop_limit:1 ~src:(Ipaddr.of_string "fd00::5")
      ~dst:(far ~v6:true 1) ~sport:4000 ~dport:5000 ~iface:0
      ~payload:(String.make (len - Ipv6_header.size - Udp_header.size) 'q') ()
  in
  let small = v6 53 in
  let e = error_about small in
  check string_t "v6: all 53 bytes quoted"
    (Bytes.to_string (Option.get small.Mbuf.raw)) (quote e);
  let e = error_about (v6 1500) in
  check int_t "v6: a 1,280-byte error about 1,500 bytes" 1280 e.Mbuf.len;
  check int_t "v6: 1,232 bytes quoted" 1232 (String.length (quote e));
  let big =
    Mbuf.udp_v4 ~ttl:1 ~src:(Ipaddr.v4 10 0 0 5) ~dst:(far ~v6:false 1)
      ~sport:4000 ~dport:5000 ~iface:0 ~payload:(String.make 500 'q') ()
  in
  check string_t "v4: the header and 8 bytes"
    (Bytes.sub_string (Option.get big.Mbuf.raw) 0 28)
    (quote (error_about big))

(* --- pool ----------------------------------------------------------- *)

let pool_key id =
  Flow_key.make
    ~src:(Ipaddr.v4 10 0 0 1)
    ~dst:(Ipaddr.v4 192 168 1 (1 + (id mod 250)))
    ~proto:17 ~sport:(1024 + (id mod 60000)) ~dport:9000 ~iface:0

let test_pool_alloc_free () =
  let p = Pool.create ~capacity:8 () in
  check int_t "fresh pool full" 8 (Pool.available p);
  let m = Pool.alloc p ~key:(pool_key 0) ~len:64 in
  check int_t "one out" 7 (Pool.available p);
  check int_t "ttl reset" 64 m.Mbuf.ttl;
  check bool_t "v4 from key" true (m.Mbuf.version = Mbuf.V4);
  check int_t "len set" 64 m.Mbuf.len;
  check bool_t "no wire bytes" true (m.Mbuf.raw = None);
  Pool.free p m;
  check int_t "back home" 8 (Pool.available p);
  let s = Pool.stats p in
  check int_t "allocs" 1 s.Pool.allocs;
  check int_t "frees" 1 s.Pool.frees

let test_pool_exhaustion () =
  let p = Pool.create ~capacity:2 () in
  let _a = Pool.alloc p ~key:(pool_key 0) ~len:64 in
  let _b = Pool.alloc p ~key:(pool_key 1) ~len:64 in
  check bool_t "alloc on empty raises" true
    (match Pool.alloc p ~key:(pool_key 2) ~len:64 with
    | exception Pool.Empty -> true
    | _ -> false);
  check int_t "exhaustion counted" 1 (Pool.stats p).Pool.exhausted

let test_pool_double_free () =
  let p = Pool.create ~capacity:4 () in
  let m = Pool.alloc p ~key:(pool_key 0) ~len:64 in
  Pool.free p m;
  Pool.free p m;
  check int_t "free list intact" 4 (Pool.available p);
  check int_t "double free counted" 1 (Pool.stats p).Pool.double_frees

let test_pool_foreign_free () =
  let p = Pool.create ~capacity:4 () in
  let q = Pool.create ~capacity:4 () in
  let m = Pool.alloc p ~key:(pool_key 0) ~len:64 in
  Pool.free q m;
  check int_t "other pool unchanged" 4 (Pool.available q);
  check int_t "foreign free counted" 1 (Pool.stats q).Pool.foreign_frees;
  Pool.free q (Mbuf.synth ~key:(pool_key 1) ~len:64 ());
  check int_t "unpooled mbuf counted" 2 (Pool.stats q).Pool.foreign_frees;
  Pool.free p m;
  check int_t "real owner accepts" 4 (Pool.available p)

(* An adversarial op sequence (including over-alloc and over-free)
   must keep [available] = capacity - live descriptors: the free list
   is never corrupted or leaked. *)
let prop_pool_conservation =
  qtest ~count:200 "pool: descriptor conservation under random ops"
    QCheck2.Gen.(list_size (int_range 0 200) (int_bound 2))
    (fun ops ->
      let cap = 16 in
      let p = Pool.create ~capacity:cap () in
      let live = Queue.create () in
      List.iter
        (fun op ->
          if op > 0 then (
            match Pool.alloc p ~key:(pool_key op) ~len:64 with
            | m -> Queue.push m live
            | exception Pool.Empty -> ())
          else
            match Queue.pop live with
            | m -> Pool.free p m
            | exception Queue.Empty -> ())
        ops;
      Pool.available p = cap - Queue.length live)

(* The whole point of the pool: the steady-state alloc/free cycle does
   not touch the GC.  10k cycles with per-packet allocation would show
   up as tens of thousands of minor words; allow a small constant
   slack for the [Gc.minor_words] boxing itself. *)
let test_pool_gc_silent () =
  let p = Pool.create ~capacity:64 () in
  let key = pool_key 0 in
  let spin () =
    for _ = 1 to 10_000 do
      let m = Pool.alloc p ~key ~len:64 in
      Pool.free p m
    done
  in
  spin ();
  let before = Gc.minor_words () in
  spin ();
  let delta = Gc.minor_words () -. before in
  check bool_t
    (Printf.sprintf "steady state GC-silent (%.0f minor words)" delta)
    true
    (delta < 100.)

(* --- link ----------------------------------------------------------- *)

let link_mk i =
  let m = Mbuf.synth ~key:(pool_key i) ~len:64 () in
  m.Mbuf.seq <- i;
  m

let test_link_fifo () =
  let l = Link.create ~capacity:4 () in
  check int_t "capacity" 4 (Link.capacity l);
  check bool_t "starts empty" true (Link.is_empty l);
  for i = 0 to 3 do
    check bool_t "transmit accepted" true (Link.transmit l (link_mk i))
  done;
  check bool_t "full" true (Link.is_full l);
  check bool_t "overflow refused" false (Link.transmit l (link_mk 99));
  check int_t "txdrops" 1 (Link.txdrops l);
  check int_t "first out" 0 (Link.receive l).Mbuf.seq;
  check int_t "second out" 1 (Link.receive l).Mbuf.seq;
  check int_t "readable" 2 (Link.nreadable l);
  check bool_t "transmit after pop (wrap)" true (Link.transmit l (link_mk 4));
  check int_t "third" 2 (Link.receive l).Mbuf.seq;
  check int_t "fourth" 3 (Link.receive l).Mbuf.seq;
  check int_t "fifth" 4 (Link.receive l).Mbuf.seq;
  check bool_t "receive on empty raises" true
    (match Link.receive l with
    | exception Link.Empty -> true
    | _ -> false);
  check int_t "txpackets" 5 (Link.txpackets l);
  check int_t "rxpackets" 5 (Link.rxpackets l)

let test_link_receive_batch () =
  let l = Link.create ~capacity:8 () in
  for i = 0 to 5 do
    ignore (Link.transmit l (link_mk i))
  done;
  let dst = Array.make 8 (link_mk 0) in
  let n = Link.receive_batch l ~max:4 dst in
  check int_t "batch of four" 4 n;
  for i = 0 to 3 do
    check int_t "batch order" i dst.(i).Mbuf.seq
  done;
  check int_t "remainder" 2 (Link.receive_batch l ~max:8 dst);
  check int_t "tail order" 4 dst.(0).Mbuf.seq;
  check int_t "batch on empty" 0 (Link.receive_batch l ~max:4 dst)

(* Capacity is a budget: non-power-of-two requests round DOWN, so a
   link never buffers more than the caller asked for (silently rounding
   300 up to 512 would shift drop/backpressure thresholds). *)
let test_link_capacity_rounds_down () =
  check int_t "exact power kept" 256 (Link.capacity (Link.create ~capacity:256 ()));
  check int_t "300 -> 256" 256 (Link.capacity (Link.create ~capacity:300 ()));
  check int_t "511 -> 256" 256 (Link.capacity (Link.create ~capacity:511 ()));
  check int_t "512 kept" 512 (Link.capacity (Link.create ~capacity:512 ()));
  check int_t "5 -> 4" 4 (Link.capacity (Link.create ~capacity:5 ()));
  check int_t "1 kept" 1 (Link.capacity (Link.create ~capacity:1 ()));
  check bool_t "capacity < 1 rejected" true
    (match Link.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The ring really is bounded by the rounded-down figure. *)
  let l = Link.create ~capacity:300 () in
  for i = 0 to 255 do
    check bool_t "transmit within bound" true (Link.transmit l (link_mk i))
  done;
  check bool_t "256th packet refused" false (Link.transmit l (link_mk 256))

let prop_link_fifo =
  qtest ~count:200 "link: FIFO under random tx/rx interleaving"
    QCheck2.Gen.(list_size (int_range 0 200) (int_bound 1))
    (fun ops ->
      let l = Link.create ~capacity:8 () in
      let next = ref 0 and expect = ref 0 and ok = ref true in
      List.iter
        (fun op ->
          if op = 1 then begin
            let m = link_mk !next in
            if Link.transmit l m then incr next
          end
          else if not (Link.is_empty l) then begin
            if (Link.receive l).Mbuf.seq <> !expect then ok := false;
            incr expect
          end)
        ops;
      !ok && Link.rxpackets l = !expect)

(* --- ring ------------------------------------------------------------ *)

type ring_op = R_push of int | R_pop | R_clear

let gen_ring_ops =
  QCheck2.Gen.(
    pair (int_range 1 20)
      (list_size (int_range 0 200)
         (frequency
            [ (6, map (fun x -> R_push x) (int_bound 1000));
              (4, return R_pop);
              (1, return R_clear) ])))

(* Against Stdlib's Queue, with pushes at the limit refused: every
   pop returns the model's head, and after each operation the lengths
   and the contents (oldest first) agree, across the doublings of the
   array and its wrap-around. *)
let prop_ring_model =
  qtest "ring = Queue model" gen_ring_ops (fun (limit, ops) ->
      let r = Ring.create ~limit ~dummy:(-1) () and q = Queue.create () in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | R_push x ->
              let room = Queue.length q < limit in
              if room then Queue.push x q;
              Ring.push r x = room
            | R_pop ->
              Queue.is_empty q = Ring.is_empty r
              && (Queue.is_empty q || Queue.pop q = Ring.pop r)
            | R_clear ->
              Queue.clear q;
              Ring.clear r;
              true
          in
          agree
          && Ring.length r = Queue.length q
          && Ring.fold (fun l x -> x :: l) [] r = Queue.fold (fun l x -> x :: l) [] q)
        ops)

let test_ring_bounds () =
  Alcotest.check_raises "limit 0" (Invalid_argument "Ring.create: limit < 1")
    (fun () -> ignore (Ring.create ~limit:0 ~dummy:0 ()));
  let r = Ring.create ~limit:3 ~dummy:0 () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Ring.pop: empty")
    (fun () -> ignore (Ring.pop r));
  check bool_t "three fit" true (Ring.push r 1 && Ring.push r 2 && Ring.push r 3);
  check bool_t "a fourth is refused" false (Ring.push r 4);
  check int_t "oldest first" 1 (Ring.peek r);
  check int_t "length" 3 (Ring.length r)

(* A popped or cleared element is not reachable from the ring. *)
let test_ring_releases () =
  let n = 8 in
  let weak = Weak.create n in
  let r = Ring.create ~limit:n ~dummy:Mbuf.dummy () in
  let fill () =
    for i = 0 to n - 1 do
      let m = Mbuf.synth ~key:(pool_key i) ~len:64 () in
      Weak.set weak i (Some m);
      assert (Ring.push r m)
    done
  in
  let live () =
    Gc.full_major ();
    List.length (List.filter (Weak.check weak) (List.init n Fun.id))
  in
  fill ();
  for _ = 1 to n / 2 do
    ignore (Ring.pop r)
  done;
  check int_t "popped ones freed" (n / 2) (live ());
  Ring.clear r;
  check int_t "cleared ones freed" 0 (live ());
  fill ();
  check int_t "refilled ring holds them" n (live ());
  check int_t "still queued" n (Ring.length r)

let () =
  Alcotest.run "rp_pkt"
    [
      ( "ipaddr",
        [
          Alcotest.test_case "v4 to_string" `Quick test_v4_to_string;
          Alcotest.test_case "v4 of_string" `Quick test_v4_of_string;
          Alcotest.test_case "v6 strings" `Quick test_v6_strings;
          Alcotest.test_case "v6 parse variants" `Quick test_v6_parse_variants;
          Alcotest.test_case "bit access" `Quick test_bits;
          Alcotest.test_case "prefix_bits" `Quick test_prefix_bits;
          Alcotest.test_case "common_prefix_len" `Quick test_common_prefix_len;
          prop_string_roundtrip;
          prop_bytes_roundtrip;
          prop_common_prefix_symmetric;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "basics" `Quick test_prefix_basics;
          Alcotest.test_case "normalize" `Quick test_prefix_normalize;
          Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
          prop_prefix_matches_self;
          prop_prefix_subsumes_matches;
          prop_prefix_string_roundtrip;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071;
          Alcotest.test_case "embed and verify" `Quick test_checksum_verifies;
          Alcotest.test_case "adjust identity" `Quick test_checksum_adjust_identity;
          prop_checksum_detects_flip;
          prop_checksum_adjust;
        ] );
      ( "headers",
        [
          Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "ipv4 bad checksum" `Quick test_ipv4_bad_checksum;
          Alcotest.test_case "ipv4 truncated" `Quick test_ipv4_truncated;
          Alcotest.test_case "ipv6 roundtrip" `Quick test_ipv6_roundtrip;
          Alcotest.test_case "hop-by-hop roundtrip" `Quick test_hop_by_hop_roundtrip;
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
        ] );
      ( "flow_key",
        [
          Alcotest.test_case "equal/hash" `Quick test_flow_key_equal_hash;
          Alcotest.test_case "iface hashes apart" `Quick
            test_flow_key_iface_hashes_apart;
          Alcotest.test_case "reverse" `Quick test_flow_key_reverse;
          Alcotest.test_case "canonical" `Quick test_flow_key_canonical;
          prop_canonical_collapses_direction;
          prop_reverse_involution;
        ] );
      ( "mbuf",
        [
          Alcotest.test_case "udp v4 roundtrip" `Quick test_mbuf_udp_v4_roundtrip;
          Alcotest.test_case "udp v6 roundtrip" `Quick test_mbuf_udp_v6_roundtrip;
          Alcotest.test_case "udp checksum" `Quick test_mbuf_udp_checksum_valid;
          prop_mbuf_v4_roundtrip;
          Alcotest.test_case "overlong datagram refused" `Quick test_of_bytes_overlong;
          Alcotest.test_case "allocation ceiling, v4/udp" `Quick test_of_bytes_alloc;
          prop_of_bytes_valid;
          prop_of_bytes_mangled;
          Alcotest.test_case "every fragment parses, the first with ports" `Quick
            test_fragments_parse;
        ] );
      ( "built",
        [
          prop_built_datagrams_reparse;
          prop_icmp_pipeline;
          Alcotest.test_case "forwarded bytes carry the ttl (inline)" `Quick
            (test_forwarded_ttl Rp_engine.Engine.Inline);
          Alcotest.test_case "forwarded bytes carry the ttl (sharded:1)" `Quick
            (test_forwarded_ttl (Rp_engine.Engine.Sharded 1));
          Alcotest.test_case "icmp errors quote what the RFCs ask" `Quick
            test_icmp_quote;
        ] );
      ( "pool",
        [
          Alcotest.test_case "alloc/free round trip" `Quick test_pool_alloc_free;
          Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
          Alcotest.test_case "double free is a no-op" `Quick test_pool_double_free;
          Alcotest.test_case "foreign free is a no-op" `Quick
            test_pool_foreign_free;
          Alcotest.test_case "steady state is GC-silent" `Quick
            test_pool_gc_silent;
          prop_pool_conservation;
        ] );
      ( "ring",
        [
          prop_ring_model;
          Alcotest.test_case "bounds" `Quick test_ring_bounds;
          Alcotest.test_case "freed slots let go" `Quick test_ring_releases;
        ] );
      ( "link",
        [
          Alcotest.test_case "fifo, overflow, wrap" `Quick test_link_fifo;
          Alcotest.test_case "receive_batch" `Quick test_link_receive_batch;
          Alcotest.test_case "capacity rounds down" `Quick
            test_link_capacity_rounds_down;
          prop_link_fifo;
        ] );
    ]
