(* Tests for the BMP engines: unit tests on known prefix sets plus the
   central property — every engine agrees with the linear reference on
   random prefix sets and random queries. *)

open Rp_pkt

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let gen_v4 =
  QCheck2.Gen.map
    (fun (a, b) ->
      Ipaddr.v4_of_int32
        (Int32.logor (Int32.shift_left (Int32.of_int a) 16) (Int32.of_int b)))
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 0xFFFF) (QCheck2.Gen.int_bound 0xFFFF))

let gen_v6 =
  QCheck2.Gen.map
    (fun (a, b, c, d) ->
      Ipaddr.v6 (Int32.of_int a) (Int32.of_int b) (Int32.of_int c) (Int32.of_int d))
    (QCheck2.Gen.quad (QCheck2.Gen.int_bound 0xFFFF) (QCheck2.Gen.int_bound 0xFFFF)
       (QCheck2.Gen.int_bound 0xFFFF) (QCheck2.Gen.int_bound 0xFFFF))

(* Prefixes clustered in a small address range so that subsumption and
   longest-match situations actually arise. *)
let gen_prefix_v4 =
  QCheck2.Gen.map
    (fun (a, len) -> Prefix.make a len)
    (QCheck2.Gen.pair
       (QCheck2.Gen.map
          (fun x -> Ipaddr.v4_of_int32 (Int32.of_int x))
          (QCheck2.Gen.int_bound 0xFFFF))
       (QCheck2.Gen.int_bound 32))

let gen_prefix_v6 =
  QCheck2.Gen.map
    (fun (a, len) -> Prefix.make a len)
    (QCheck2.Gen.pair gen_v6 (QCheck2.Gen.int_bound 128))

(* Queries drawn from the same clustered range plus uniform ones. *)
let gen_query_v4 =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map
        (fun x -> Ipaddr.v4_of_int32 (Int32.of_int x))
        (QCheck2.Gen.int_bound 0xFFFF);
      gen_v4;
    ]

(* --- unit tests against a fixed table ------------------------------- *)

let fixed_table =
  [
    ("0.0.0.0/0", 0);
    ("128.0.0.0/8", 1);
    ("128.252.0.0/16", 2);
    ("128.252.153.0/24", 3);
    ("128.252.153.7", 4);
    ("129.0.0.0/8", 5);
    ("10.0.0.0/8", 6);
    ("10.128.0.0/9", 7);
  ]

let fixed_cases =
  [
    ("128.252.153.7", 4);
    ("128.252.153.8", 3);
    ("128.252.100.1", 2);
    ("128.1.1.1", 1);
    ("129.99.99.99", 5);
    ("10.127.0.1", 6);
    ("10.200.0.1", 7);
    ("1.2.3.4", 0);
  ]

let unit_engine (module E : Rp_lpm.Lpm_intf.S) () =
  let t = E.create () in
  List.iter (fun (p, v) -> E.insert t (Prefix.of_string p) v) fixed_table;
  check int_t "length" (List.length fixed_table) (E.length t);
  List.iter
    (fun (addr, expect) ->
      match E.lookup t (Ipaddr.of_string addr) with
      | None -> Alcotest.failf "%s: no match for %s" E.name addr
      | Some (_, v) ->
        check int_t (Printf.sprintf "%s: %s" E.name addr) expect v)
    fixed_cases

let unit_engine_remove (module E : Rp_lpm.Lpm_intf.S) () =
  let t = E.create () in
  List.iter (fun (p, v) -> E.insert t (Prefix.of_string p) v) fixed_table;
  E.remove t (Prefix.of_string "128.252.153.0/24");
  (match E.lookup t (Ipaddr.of_string "128.252.153.8") with
   | Some (_, v) -> check int_t "falls back to /16" 2 v
   | None -> Alcotest.fail "no match after remove");
  E.remove t (Prefix.of_string "0.0.0.0/0");
  check bool_t "default gone" true (E.lookup t (Ipaddr.of_string "1.2.3.4") = None);
  check int_t "length after removes" (List.length fixed_table - 2) (E.length t)

let unit_engine_replace (module E : Rp_lpm.Lpm_intf.S) () =
  let t = E.create () in
  let p = Prefix.of_string "10.0.0.0/8" in
  E.insert t p 1;
  E.insert t p 2;
  check int_t "replaced" 1 (E.length t);
  check bool_t "new value" true (E.find_exact t p = Some 2)

let unit_engine_v6 (module E : Rp_lpm.Lpm_intf.S) () =
  let t = E.create () in
  E.insert t (Prefix.of_string "2001:db8::/32") 1;
  E.insert t (Prefix.of_string "2001:db8:1::/48") 2;
  E.insert t (Prefix.of_string "::/0") 0;
  (match E.lookup t (Ipaddr.of_string "2001:db8:1::5") with
   | Some (_, v) -> check int_t "/48 wins" 2 v
   | None -> Alcotest.fail "no v6 match");
  (match E.lookup t (Ipaddr.of_string "2001:db8:2::5") with
   | Some (_, v) -> check int_t "/32 wins" 1 v
   | None -> Alcotest.fail "no v6 match");
  match E.lookup t (Ipaddr.of_string "fe80::1") with
  | Some (_, v) -> check int_t "default" 0 v
  | None -> Alcotest.fail "no default match"

(* Mixed families in one table must not interfere. *)
let unit_engine_mixed (module E : Rp_lpm.Lpm_intf.S) () =
  let t = E.create () in
  E.insert t (Prefix.of_string "0.0.0.0/0") 4;
  E.insert t (Prefix.of_string "::/0") 6;
  (match E.lookup t (Ipaddr.of_string "1.2.3.4") with
   | Some (_, v) -> check int_t "v4 default" 4 v
   | None -> Alcotest.fail "no v4");
  match E.lookup t (Ipaddr.of_string "::1") with
  | Some (_, v) -> check int_t "v6 default" 6 v
  | None -> Alcotest.fail "no v6"

(* --- equivalence property vs the linear reference ------------------- *)

let equivalence_prop (module E : Rp_lpm.Lpm_intf.S) gen_prefix gen_query =
  qtest
    (Printf.sprintf "%s = linear reference" E.name)
    QCheck2.Gen.(
      pair (list_size (int_range 0 40) gen_prefix) (list_size (int_range 1 20) gen_query))
    (fun (prefixes, queries) ->
      let reference = Rp_lpm.Linear.create () in
      let t = E.create () in
      List.iteri
        (fun i p ->
          Rp_lpm.Linear.insert reference p i;
          E.insert t p i)
        prefixes;
      List.for_all
        (fun q ->
          let expect = Rp_lpm.Linear.lookup reference q in
          let got = E.lookup t q in
          match expect, got with
          | None, None -> true
          | Some (p, _), Some (p', _) ->
            (* Values may differ when duplicate prefixes appear in the
               random list; the winning prefix must agree. *)
            Prefix.equal p p'
          | None, Some _ | Some _, None -> false)
        queries)

(* Same property after a random subset of removals. *)
let equivalence_with_removal_prop (module E : Rp_lpm.Lpm_intf.S) =
  qtest
    (Printf.sprintf "%s = linear reference after removals" E.name)
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 30) gen_prefix_v4)
        (list_size (int_range 0 10) (int_bound 29))
        (list_size (int_range 1 15) gen_query_v4))
    (fun (prefixes, removals, queries) ->
      let reference = Rp_lpm.Linear.create () in
      let t = E.create () in
      List.iteri
        (fun i p ->
          Rp_lpm.Linear.insert reference p i;
          E.insert t p i)
        prefixes;
      let arr = Array.of_list prefixes in
      List.iter
        (fun i ->
          if i < Array.length arr then begin
            Rp_lpm.Linear.remove reference arr.(i);
            E.remove t arr.(i)
          end)
        removals;
      List.for_all
        (fun q ->
          match Rp_lpm.Linear.lookup reference q, E.lookup t q with
          | None, None -> true
          | Some (p, _), Some (p', _) -> Prefix.equal p p'
          | None, Some _ | Some _, None -> false)
        queries)

(* --- BSPL-specific: probe bound ------------------------------------- *)

let test_bspl_probe_bound () =
  (* With all 32 prefix lengths present the search tree depth must be
     at most ceil(log2(33)) = 6; with lengths 1..31 it is exactly 5 —
     the figure Table 2 of the paper uses. *)
  let t = Rp_lpm.Bspl.create () in
  for len = 1 to 31 do
    Rp_lpm.Bspl.insert t (Prefix.make (Ipaddr.v4 10 0 0 0) len) len
  done;
  ignore (Rp_lpm.Bspl.lookup t (Ipaddr.v4 10 0 0 1));
  check int_t "depth over 31 lengths" 5 (Rp_lpm.Bspl.worst_case_probes t `V4);
  let t6 = Rp_lpm.Bspl.create () in
  for len = 1 to 127 do
    Rp_lpm.Bspl.insert t6 (Prefix.make (Ipaddr.of_string "2001:db8::") (min len 128)) len
  done;
  ignore (Rp_lpm.Bspl.lookup t6 (Ipaddr.of_string "2001:db8::1"));
  check int_t "depth over 127 lengths" 7 (Rp_lpm.Bspl.worst_case_probes t6 `V6)

let test_bspl_marker_correctness () =
  (* The classic marker trap: a marker must not report a match on its
     own.  128.0.0.0/1 and 128.252.0.0/16 with a query that matches the
     /1 only below the marker level. *)
  let t = Rp_lpm.Bspl.create () in
  Rp_lpm.Bspl.insert t (Prefix.of_string "128.0.0.0/1") 1;
  Rp_lpm.Bspl.insert t (Prefix.of_string "128.252.0.0/16") 16;
  (match Rp_lpm.Bspl.lookup t (Ipaddr.v4 128 252 1 1) with
   | Some (p, _) -> check string_t "longest" "128.252.0.0/16" (Prefix.to_string p)
   | None -> Alcotest.fail "no match");
  match Rp_lpm.Bspl.lookup t (Ipaddr.v4 129 0 0 1) with
  | Some (p, _) -> check string_t "bmp via marker" "128.0.0.0/1" (Prefix.to_string p)
  | None -> Alcotest.fail "marker swallowed the match"

let test_access_counting () =
  Rp_lpm.Access.reset ();
  let t = Rp_lpm.Patricia.create () in
  Rp_lpm.Patricia.insert t (Prefix.of_string "10.0.0.0/8") 1;
  let _, cost = Rp_lpm.Access.measure (fun () -> Rp_lpm.Patricia.lookup t (Ipaddr.v4 10 1 1 1)) in
  check bool_t "patricia charges accesses" true (cost > 0);
  Rp_lpm.Access.set_enabled false;
  let _, cost0 = Rp_lpm.Access.measure (fun () -> Rp_lpm.Patricia.lookup t (Ipaddr.v4 10 1 1 1)) in
  Rp_lpm.Access.set_enabled true;
  check int_t "disabled charges nothing" 0 cost0

(* --- PATRICIA: the allocation-free walk -------------------------------- *)

(* The walk compares 32-bit words under masks, so the lengths that end
   at or straddle a word boundary are drawn often, in both families. *)
let flip_bit a i =
  match a with
  | Ipaddr.V4 x -> Ipaddr.V4 (Int32.logxor x (Int32.shift_left 1l (31 - i)))
  | Ipaddr.V6 (h, l) ->
    if i < 64 then Ipaddr.V6 (Int64.logxor h (Int64.shift_left 1L (63 - i)), l)
    else Ipaddr.V6 (h, Int64.logxor l (Int64.shift_left 1L (127 - i)))

(* Addresses a few bit flips away from one of two bases per family, so
   prefixes nest and diverge at every depth. *)
let gen_near_addr =
  let open QCheck2.Gen in
  let bases =
    List.map Ipaddr.of_string
      [ "10.1.2.3"; "203.0.113.200"; "2001:db8:85a3::8a2e:370:7334"; "fe80::1:2:3:4" ]
  in
  let* base = oneofl bases in
  let* flips = list_size (int_range 0 2) (int_bound (Ipaddr.width base - 1)) in
  return (List.fold_left flip_bit base flips)

let gen_edge_prefix =
  let open QCheck2.Gen in
  let* a = gen_near_addr in
  let* len =
    if Ipaddr.is_v4 a then oneof [ oneofl [ 0; 1; 31; 32 ]; int_bound 32 ]
    else oneof [ oneofl [ 0; 1; 31; 32; 33; 63; 64; 65; 127; 128 ]; int_bound 128 ]
  in
  return (Prefix.make a len)

let patricia_edge_equivalence =
  qtest "patricia = linear at word-boundary lengths"
    QCheck2.Gen.(
      pair (list_size (int_range 0 40) gen_edge_prefix)
        (list_size (int_range 1 30) gen_near_addr))
    (fun (prefixes, queries) ->
      let reference = Rp_lpm.Linear.create () and t = Rp_lpm.Patricia.create () in
      List.iteri
        (fun i p ->
          Rp_lpm.Linear.insert reference p i;
          Rp_lpm.Patricia.insert t p i)
        prefixes;
      List.for_all
        (fun q ->
          match Rp_lpm.Linear.lookup reference q, Rp_lpm.Patricia.lookup t q with
          | None, None -> true
          | Some (p, v), Some (p', v') -> Prefix.equal p p' && v = v'
          | None, Some _ | Some _, None -> false)
        queries)

(* A lookup returns the result its entry built when it was inserted,
   so neither a hit nor a miss allocates; the slack covers
   [Gc.minor_words]. *)
let test_patricia_alloc () =
  let t = Rp_lpm.Patricia.create () in
  List.iter (fun (p, v) -> Rp_lpm.Patricia.insert t (Prefix.of_string p) v) fixed_table;
  List.iter
    (fun (p, v) -> Rp_lpm.Patricia.insert t (Prefix.of_string p) v)
    [ ("2001:db8::/32", 10); ("2001:db8:1::/48", 11); ("2001:db8:1:0:8000::/65", 12) ];
  let queries =
    Array.of_list
      (List.map Ipaddr.of_string
         [ "128.252.153.7"; "10.200.0.1"; "1.2.3.4"; "2001:db8:1::8000:0:0:1";
           "2001:db8:1::1"; "fe80::1" ])
  in
  let rounds = 1000 in
  let spin () =
    let hits = ref 0 in
    for _ = 1 to rounds do
      for i = 0 to Array.length queries - 1 do
        match Sys.opaque_identity (Rp_lpm.Patricia.lookup t queries.(i)) with
        | Some _ -> incr hits
        | None -> ()
      done
    done;
    !hits
  in
  ignore (spin ());
  let before = Gc.minor_words () in
  let hits = spin () in
  let words = Gc.minor_words () -. before in
  check bool_t "some lookups miss" true (hits < rounds * Array.length queries);
  check bool_t
    (Printf.sprintf "%.0f minor words for %d hits (none each)" words hits)
    true (words <= 100.)

(* --- PATRICIA: the trie's structure under updates ------------------------ *)

type op = Insert of int * int | Remove of int

(* Random interleavings of insert, re-insert and remove over a small
   pool of word-boundary prefixes, so the same prefix comes and goes
   and splits, splices and slot reuse all happen, in both families. *)
let gen_ops =
  let open QCheck2.Gen in
  let* pool = array_size (int_range 1 24) gen_edge_prefix in
  let n = Array.length pool in
  let op =
    oneof
      [
        map2 (fun i v -> Insert (i, v)) (int_bound (n - 1)) (int_bound 1000);
        map (fun i -> Remove i) (int_bound (n - 1));
      ]
  in
  let* ops = list_size (int_range 0 60) op in
  return (pool, ops)

let bindings iter t =
  let l = ref [] in
  iter (fun p v -> l := (Prefix.to_string p, v) :: !l) t;
  List.sort compare !l

let family_count t ~v6 =
  let n = ref 0 in
  Rp_lpm.Linear.iter (fun p _ -> if Ipaddr.is_v6 p.Prefix.addr = v6 then incr n) t;
  !n

(* Live slots stay within 2n + 1 per family of n entries. *)
let slots_bounded reference t =
  List.for_all
    (fun v6 ->
      Rp_lpm.Patricia.live_slots t ~v6 <= (2 * family_count reference ~v6) + 1)
    [ false; true ]

let apply reference t pool = function
  | Insert (i, v) ->
    Rp_lpm.Linear.insert reference pool.(i) v;
    Rp_lpm.Patricia.insert t pool.(i) v
  | Remove i ->
    Rp_lpm.Linear.remove reference pool.(i);
    Rp_lpm.Patricia.remove t pool.(i)

let patricia_model =
  qtest ~count:500 "patricia = linear model under insert, re-insert, remove"
    QCheck2.Gen.(pair gen_ops (list_size (int_range 1 30) gen_near_addr))
    (fun ((pool, ops), queries) ->
      let reference = Rp_lpm.Linear.create () and t = Rp_lpm.Patricia.create () in
      List.for_all
        (fun op ->
          apply reference t pool op;
          slots_bounded reference t)
        ops
      && Rp_lpm.Patricia.length t = Rp_lpm.Linear.length reference
      && bindings Rp_lpm.Patricia.iter t = bindings Rp_lpm.Linear.iter reference
      && Array.for_all
           (fun p -> Rp_lpm.Patricia.find_exact t p = Rp_lpm.Linear.find_exact reference p)
           pool
      && List.for_all
           (fun q ->
             match Rp_lpm.Linear.lookup reference q, Rp_lpm.Patricia.lookup t q with
             | None, None -> true
             | Some (p, v), Some (p', v') -> Prefix.equal p p' && v = v'
             | None, Some _ | Some _, None -> false)
           queries)

(* [iter_subtree] and [fold_ancestors] against a filter over the live
   entries, from every pool prefix and every family's wildcard. *)
let patricia_structural =
  qtest ~count:500 "patricia subtree and ancestors = brute force"
    gen_ops
    (fun (pool, ops) ->
      let reference = Rp_lpm.Linear.create () and t = Rp_lpm.Patricia.create () in
      List.iter (apply reference t pool) ops;
      let brute keep =
        let l = ref [] in
        Rp_lpm.Linear.iter
          (fun p v -> if keep p then l := (Prefix.to_string p, v) :: !l)
          reference;
        List.sort compare !l
      in
      List.for_all
        (fun q ->
          let sub = ref [] in
          Rp_lpm.Patricia.iter_subtree t q (fun p v ->
              sub := (Prefix.to_string p, v) :: !sub);
          let anc =
            Rp_lpm.Patricia.fold_ancestors t q
              (fun p v acc -> (Prefix.to_string p, v) :: acc)
              []
          in
          List.sort compare !sub = brute (fun p -> Prefix.subsumes q p)
          && List.sort compare anc = brute (fun p -> Prefix.subsumes p q))
        (Prefix.any_v4 :: Prefix.any_v6 :: Array.to_list pool))

(* Removing every entry leaves each family its root alone. *)
let patricia_drains =
  qtest ~count:300 "patricia slots return to the roots"
    gen_ops
    (fun (pool, ops) ->
      let reference = Rp_lpm.Linear.create () and t = Rp_lpm.Patricia.create () in
      List.iter (apply reference t pool) ops;
      let used v6 = Rp_lpm.Patricia.live_slots t ~v6 > 0 in
      let had = (used false, used true) in
      Array.iter (Rp_lpm.Patricia.remove t) pool;
      let root v6 used = Rp_lpm.Patricia.live_slots t ~v6 = if used then 1 else 0 in
      Rp_lpm.Patricia.length t = 0
      && root false (fst had)
      && root true (snd had))

(* --- PATRICIA: the trie's shape, pinned by its access charge ---------- *)

(* A seeded BGP-like table, the length mix of the benchmark's route
   table: 90% IPv4 (55% /24, 20% /22-/23, the rest /16-/21), 10% IPv6
   /32-/48 inside 2001::/16. *)
let bgp_like rng count =
  Array.init count (fun i ->
      if i mod 10 = 9 then
        Prefix.make
          (Ipaddr.v6
             (Int32.of_int (0x20010000 lor Random.State.int rng 0x10000))
             (Int32.of_int (Random.State.bits rng))
             0l 0l)
          (32 + Random.State.int rng 17)
      else
        let r = Random.State.int rng 100 in
        let len =
          if r < 55 then 24
          else if r < 75 then 22 + Random.State.int rng 2
          else 16 + Random.State.int rng 6
        in
        Prefix.make
          (Ipaddr.v4 (1 + Random.State.int rng 222) (Random.State.int rng 256)
             (Random.State.int rng 256) 0)
          len)

(* Half the queries fall inside a table prefix (its bits, then random
   host bits), half are uniform over the prefix's family. *)
let bgp_query rng table i =
  let p = table.(Random.State.int rng (Array.length table)) in
  let w j =
    let r = Random.State.full_int rng 0x1_0000_0000 in
    if i land 1 = 0 then r
    else
      let keep = max 0 (min 32 (p.Prefix.len - (32 * j))) in
      Ipaddr.word p.Prefix.addr j lor (r land ((1 lsl (32 - keep)) - 1))
  in
  (* one [let] per word, so the seeded draws come in a fixed order *)
  let w0 = w 0 in
  let w1 = w 1 in
  let w2 = w 2 in
  let w3 = w 3 in
  Ipaddr.of_words ~v6:(Ipaddr.is_v6 p.Prefix.addr) w0 w1 w2 w3

(* The walk charges one access per visited node, so the total charge
   of a fixed query set pins the trie's shape.  Both figures were
   measured on the pointer-node trie that the flat one replaced (this
   test, run on commit 579d4f9): a change to the insert, split or
   splice algorithm moves them. *)
let shape_hits, shape_after_removes = (51_744, 48_969)

let test_patricia_shape () =
  let rng = Random.State.make [| 23; 0x7a1e |] in
  let table = bgp_like rng 10_000 in
  let queries = Array.init 4096 (bgp_query rng table) in
  let t = Rp_lpm.Patricia.create () in
  Array.iteri (fun i p -> Rp_lpm.Patricia.insert t p i) table;
  let charge () =
    snd
      (Rp_lpm.Access.measure (fun () ->
           Array.iter (fun q -> ignore (Rp_lpm.Patricia.lookup t q)) queries))
  in
  let full = charge () in
  Array.iteri (fun i p -> if i mod 3 = 0 then Rp_lpm.Patricia.remove t p) table;
  let after = charge () in
  check int_t "accesses, full table" shape_hits full;
  check int_t "accesses, every third prefix removed" shape_after_removes after

let engine_suite name (module E : Rp_lpm.Lpm_intf.S) =
  ( name,
    [
      Alcotest.test_case "fixed table" `Quick (unit_engine (module E));
      Alcotest.test_case "remove" `Quick (unit_engine_remove (module E));
      Alcotest.test_case "replace" `Quick (unit_engine_replace (module E));
      Alcotest.test_case "ipv6" `Quick (unit_engine_v6 (module E));
      Alcotest.test_case "mixed families" `Quick (unit_engine_mixed (module E));
      equivalence_prop (module E) gen_prefix_v4 gen_query_v4;
      equivalence_prop (module E) gen_prefix_v6 gen_v6;
      equivalence_with_removal_prop (module E);
    ] )

let () =
  Alcotest.run "rp_lpm"
    [
      (let name, tests = engine_suite "patricia" (module Rp_lpm.Patricia) in
       ( name,
         tests
         @ [
             patricia_edge_equivalence;
             Alcotest.test_case "lookup allocates only its result" `Quick
               test_patricia_alloc;
             patricia_model;
             patricia_structural;
             patricia_drains;
             Alcotest.test_case "shape pinned by access charge" `Quick
               test_patricia_shape;
           ] ));
      engine_suite "bspl" (module Rp_lpm.Bspl);
      engine_suite "cpe" (module Rp_lpm.Cpe);
      ( "bspl-specific",
        [
          Alcotest.test_case "probe bound" `Quick test_bspl_probe_bound;
          Alcotest.test_case "marker correctness" `Quick test_bspl_marker_correctness;
        ] );
      ("access", [ Alcotest.test_case "counting" `Quick test_access_counting ]);
    ]
