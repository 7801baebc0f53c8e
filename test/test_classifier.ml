(* Tests for the AIU: filter semantics, the set-pruning DAG (checked
   against the linear reference classifier — the core correctness
   property of the repository), the flow table, and the AIU façade. *)

open Rp_pkt
open Rp_classifier

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- generators ----------------------------------------------------- *)

(* A small universe so that overlaps, subsumption and ambiguity are
   common: addresses 10.0.x.y with x,y in 0..3, prefix lengths from a
   few interesting values. *)
let gen_small_addr =
  QCheck2.Gen.map
    (fun (x, y) -> Ipaddr.v4 10 0 x y)
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 3) (QCheck2.Gen.int_bound 3))

let gen_small_prefix =
  QCheck2.Gen.map
    (fun (a, len) -> Prefix.make a len)
    (QCheck2.Gen.pair gen_small_addr
       (QCheck2.Gen.oneofl [ 0; 8; 16; 24; 30; 31; 32 ]))

let gen_port_match =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.return Filter.Any_port;
      QCheck2.Gen.map (fun p -> Filter.Port p) (QCheck2.Gen.int_bound 9);
      QCheck2.Gen.map
        (fun (a, b) -> Filter.Port_range (min a b, max a b))
        (QCheck2.Gen.pair (QCheck2.Gen.int_bound 9) (QCheck2.Gen.int_bound 9));
    ]

let gen_proto =
  QCheck2.Gen.oneofl [ None; Some Proto.tcp; Some Proto.udp ]

let gen_iface = QCheck2.Gen.oneofl [ None; Some 0; Some 1 ]

let gen_filter =
  QCheck2.Gen.map
    (fun ((src, dst, proto), (sport, dport, iface)) ->
      Filter.v4 ~src ~dst ?proto ~sport ~dport ?iface ())
    (QCheck2.Gen.pair
       (QCheck2.Gen.triple gen_small_prefix gen_small_prefix gen_proto)
       (QCheck2.Gen.triple gen_port_match gen_port_match gen_iface))

let gen_key =
  QCheck2.Gen.map
    (fun ((src, dst, proto), (sport, dport, iface)) ->
      Flow_key.make ~src ~dst
        ~proto:(match proto with None -> Proto.icmp | Some p -> p)
        ~sport ~dport
        ~iface:(match iface with None -> 2 | Some i -> i))
    (QCheck2.Gen.pair
       (QCheck2.Gen.triple gen_small_addr gen_small_addr gen_proto)
       (QCheck2.Gen.triple (QCheck2.Gen.int_bound 9) (QCheck2.Gen.int_bound 9) gen_iface))

(* --- Filter --------------------------------------------------------- *)

let key ?(src = "10.0.0.1") ?(dst = "10.0.0.2") ?(proto = Proto.udp)
    ?(sport = 1000) ?(dport = 2000) ?(iface = 0) () =
  Flow_key.make ~src:(Ipaddr.of_string src) ~dst:(Ipaddr.of_string dst) ~proto
    ~sport ~dport ~iface

let test_filter_matches () =
  (* Filter 1 of Table 1: all TCP traffic from 129.0.0.0/8 to host
     192.94.233.10. *)
  let f =
    Filter.v4 ~src:(Prefix.of_string "129.0.0.0/8")
      ~dst:(Prefix.of_string "192.94.233.10") ~proto:Proto.tcp ()
  in
  check bool_t "matches" true
    (Filter.matches f (key ~src:"129.5.5.5" ~dst:"192.94.233.10" ~proto:Proto.tcp ()));
  check bool_t "wrong source net" false
    (Filter.matches f (key ~src:"130.5.5.5" ~dst:"192.94.233.10" ~proto:Proto.tcp ()));
  check bool_t "wrong proto" false
    (Filter.matches f (key ~src:"129.5.5.5" ~dst:"192.94.233.10" ~proto:Proto.udp ()));
  check bool_t "v6 key never matches v4 filter" false
    (Filter.matches f
       (Flow_key.make ~src:(Ipaddr.of_string "::1") ~dst:(Ipaddr.of_string "::2")
          ~proto:Proto.tcp ~sport:0 ~dport:0 ~iface:0))

let test_filter_specificity () =
  (* Filter 2 (exact hosts) is more specific than filter 4 (/24 with
     wildcard destination) — the paper's own example. *)
  let f2 =
    Filter.v4 ~src:(Prefix.of_string "128.252.153.1")
      ~dst:(Prefix.of_string "128.252.153.7") ~proto:Proto.udp ()
  in
  let f4 =
    Filter.v4 ~src:(Prefix.of_string "128.252.153.0/24") ~proto:Proto.udp ()
  in
  check bool_t "f2 more specific" true (Filter.compare_specificity f2 f4 > 0);
  check bool_t "antisymmetric" true (Filter.compare_specificity f4 f2 < 0);
  check int_t "reflexive" 0 (Filter.compare_specificity f2 f2);
  (* Ports: exact beats range beats wildcard. *)
  let fp p = Filter.v4 ~dport:p () in
  check bool_t "port beats range" true
    (Filter.compare_specificity (fp (Filter.Port 80)) (fp (Filter.Port_range (0, 100))) > 0);
  check bool_t "range beats any" true
    (Filter.compare_specificity (fp (Filter.Port_range (0, 100))) (fp Filter.Any_port) > 0);
  (* Priority breaks full ties. *)
  let g1 = Filter.v4 ~proto:Proto.tcp ~priority:1 ()
  and g0 = Filter.v4 ~proto:Proto.tcp ~priority:0 () in
  check bool_t "priority wins" true (Filter.compare_specificity g1 g0 > 0)

let test_filter_parse () =
  (match Filter.of_string "<129.*.*.*, 192.94.233.10, TCP, *, *, *>" with
   | Error e -> Alcotest.failf "parse: %s" e
   | Ok f ->
     check string_t "roundtrip paper syntax"
       "<129.0.0.0/8, 192.94.233.10, TCP, *, *, *>" (Filter.to_string f));
  (match Filter.of_string "<10.0.0.0/8, *, UDP, 1024-2048, 53, if1> prio=3" with
   | Error e -> Alcotest.failf "parse: %s" e
   | Ok f ->
     check bool_t "range parsed" true (f.Filter.sport = Filter.Port_range (1024, 2048));
     check bool_t "iface parsed" true (f.Filter.iface = Filter.Num 1);
     check int_t "priority" 3 f.Filter.priority);
  check bool_t "reject five fields" true
    (Result.is_error (Filter.of_string "<*, *, TCP, *, *>"));
  check bool_t "reject garbage" true
    (Result.is_error (Filter.of_string "nonsense"));
  check bool_t "reject bad port" true
    (Result.is_error (Filter.of_string "<*, *, TCP, 99999, *, *>"))

let prop_filter_parse_roundtrip =
  qtest "filter: of_string (to_string f) = f" gen_filter (fun f ->
      match Filter.of_string (Filter.to_string f) with
      | Ok f' -> Filter.equal f f'
      | Error _ -> false)

let prop_exact_of_key_matches =
  qtest "filter: exact_of_key matches only its key"
    (QCheck2.Gen.pair gen_key gen_key)
    (fun (k1, k2) ->
      let f = Filter.exact_of_key k1 in
      Filter.matches f k1
      && (Flow_key.equal k1 k2 || not (Filter.matches f k2)))

(* --- DAG: paper examples -------------------------------------------- *)

(* Table 1 / Figure 4 of the paper (protocol level only, ports and
   iface wildcarded). *)
let table1 () =
  let f1 =
    Filter.v4 ~src:(Prefix.of_string "129.0.0.0/8")
      ~dst:(Prefix.of_string "192.94.233.10") ~proto:Proto.tcp ()
  and f2 =
    Filter.v4 ~src:(Prefix.of_string "128.252.153.1")
      ~dst:(Prefix.of_string "128.252.153.7") ~proto:Proto.udp ()
  and f3 =
    Filter.v4 ~src:(Prefix.of_string "128.252.153.1")
      ~dst:(Prefix.of_string "128.252.153.7") ~proto:Proto.tcp ()
  and f4 = Filter.v4 ~src:(Prefix.of_string "128.252.153.0/24") ~proto:Proto.udp () in
  (f1, f2, f3, f4)

let test_dag_figure4 () =
  let f1, f2, f3, f4 = table1 () in
  let dag = Dag.create () in
  Dag.insert dag f1 1;
  Dag.insert dag f2 2;
  Dag.insert dag f3 3;
  Dag.insert dag f4 4;
  let expect name k want =
    match Dag.lookup dag k with
    | Some (_, v) -> check int_t name want v
    | None -> Alcotest.failf "%s: no match" name
  in
  (* The paper's example walk: <128.252.153.1, 128.252.153.7, UDP>
     terminates at filter 2 (more specific than filter 4). *)
  expect "paper walk -> filter 2"
    (key ~src:"128.252.153.1" ~dst:"128.252.153.7" ~proto:Proto.udp ())
    2;
  expect "tcp sibling -> filter 3"
    (key ~src:"128.252.153.1" ~dst:"128.252.153.7" ~proto:Proto.tcp ())
    3;
  (* Another host in the /24: only filter 4 applies. *)
  expect "subnet udp -> filter 4"
    (key ~src:"128.252.153.2" ~dst:"1.2.3.4" ~proto:Proto.udp ())
    4;
  expect "network 129 tcp -> filter 1"
    (key ~src:"129.1.2.3" ~dst:"192.94.233.10" ~proto:Proto.tcp ())
    1;
  (* Filters 1 and 4 are disjoint: TCP from 129/8 to another host. *)
  check bool_t "no match" true
    (Dag.lookup dag (key ~src:"129.1.2.3" ~dst:"5.6.7.8" ~proto:Proto.tcp ()) = None);
  (* The replication case: src matches both f2's host and f4's /24 —
     a UDP packet from .1 to a host other than .7 must still find f4. *)
  expect "set pruning keeps f4 reachable"
    (key ~src:"128.252.153.1" ~dst:"9.9.9.9" ~proto:Proto.udp ())
    4

let test_dag_remove_rebind () =
  let f1, f2, f3, f4 = table1 () in
  let dag = Dag.create () in
  List.iter (fun (f, v) -> Dag.insert dag f v) [ (f1, 1); (f2, 2); (f3, 3); (f4, 4) ];
  Dag.remove dag f2;
  (match Dag.lookup dag (key ~src:"128.252.153.1" ~dst:"128.252.153.7" ~proto:Proto.udp ()) with
   | Some (_, v) -> check int_t "falls back to f4" 4 v
   | None -> Alcotest.fail "expected f4");
  check int_t "length" 3 (Dag.length dag);
  (* Rebinding an existing filter replaces its value. *)
  Dag.insert dag f4 44;
  (match Dag.lookup dag (key ~src:"128.252.153.2" ~dst:"1.1.1.1" ~proto:Proto.udp ()) with
   | Some (_, v) -> check int_t "rebound" 44 v
   | None -> Alcotest.fail "expected rebound f4");
  check int_t "length unchanged" 3 (Dag.length dag)

let test_dag_port_ranges () =
  let dag = Dag.create () in
  let f_range = Filter.v4 ~dport:(Filter.Port_range (100, 200)) () in
  let f_exact = Filter.v4 ~dport:(Filter.Port 150) () in
  let f_any = Filter.v4 ~proto:Proto.udp () in
  Dag.insert dag f_range 1;
  Dag.insert dag f_exact 2;
  Dag.insert dag f_any 3;
  let got p proto =
    match Dag.lookup dag (key ~proto ~dport:p ()) with
    | Some (_, v) -> v
    | None -> -1
  in
  check int_t "exact wins inside range" 2 (got 150 Proto.tcp);
  check int_t "range" 1 (got 100 Proto.tcp);
  check int_t "range upper edge" 1 (got 200 Proto.tcp);
  check int_t "outside range udp" 3 (got 201 Proto.udp);
  check int_t "outside range tcp" (-1) (got 201 Proto.tcp);
  (* Overlapping range inserted later forces interval splitting. *)
  let f_overlap = Filter.v4 ~dport:(Filter.Port_range (150, 300)) ~priority:5 () in
  Dag.insert dag f_overlap 4;
  check int_t "overlap section" 4 (got 250 Proto.tcp);
  check int_t "pre-overlap still range" 1 (got 120 Proto.tcp);
  (* 150-200 is matched by both ranges (same width ordering decides);
     f_overlap (width 151) is wider than f_exact (width 1). *)
  check int_t "exact still wins" 2 (got 150 Proto.tcp)

let test_dag_iface_level () =
  let dag = Dag.create () in
  Dag.insert dag (Filter.v4 ~iface:0 ()) 10;
  Dag.insert dag (Filter.v4 ~iface:1 ()) 11;
  Dag.insert dag (Filter.v4 ()) 99;
  let got i =
    match Dag.lookup dag (key ~iface:i ()) with Some (_, v) -> v | None -> -1
  in
  check int_t "if0" 10 (got 0);
  check int_t "if1" 11 (got 1);
  check int_t "other iface -> wildcard" 99 (got 7)

let test_dag_v6 () =
  let dag = Dag.create () in
  let f =
    Filter.v6 ~src:(Prefix.of_string "2001:db8::/32") ~proto:Proto.udp ()
  in
  Dag.insert dag f 1;
  Dag.insert dag (Filter.v6 ()) 0;
  let k6 src =
    Flow_key.make ~src:(Ipaddr.of_string src) ~dst:(Ipaddr.of_string "2001:db8::99")
      ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0
  in
  (match Dag.lookup dag (k6 "2001:db8::1") with
   | Some (_, v) -> check int_t "v6 match" 1 v
   | None -> Alcotest.fail "no v6 match");
  (match Dag.lookup dag (k6 "fe80::1") with
   | Some (_, v) -> check int_t "v6 wildcard" 0 v
   | None -> Alcotest.fail "no v6 wildcard match");
  (* A v4 key must not match the v6 wildcard filter. *)
  check bool_t "family isolation" true (Dag.lookup dag (key ()) = None)

(* A walk allocates nothing: the address levels' PATRICIA returns the
   result each edge built when it was inserted, and the walk itself,
   the port and exact levels and the access metering allocate nothing
   either.  Keys cover hits and misses at every level kind, v4 and v6;
   the slack covers the [Gc.minor_words] boxing itself. *)
let alloc_keys =
  [|
    key ~src:"128.252.153.1" ~dst:"128.252.153.7" ();
    key ~src:"129.1.2.3" ~dst:"192.94.233.10" ~proto:Proto.tcp ();
    key ~src:"128.252.153.9" ~dst:"9.9.9.9" ~sport:53 ();
    key ~dport:150 ~iface:1 ~proto:Proto.tcp ();
    key ~dport:150 ~iface:2 ~proto:Proto.tcp ();
    key ~src:"2001:db8::1" ~dst:"2001:db8::2" ~proto:Proto.tcp ();
    key ~src:"fe80::1" ~dst:"2001:db8::2" ();
  |]

let alloc_filters () =
  let f1, f2, f3, f4 = table1 () in
  [
    (f1, 1); (f2, 2); (f3, 3); (f4, 4);
    (Filter.v4 ~dport:(Filter.Port_range (100, 200)) ~iface:1 (), 5);
    (Filter.v4 ~proto:Proto.udp ~sport:(Filter.Port 53) (), 6);
    (Filter.v6 ~src:(Prefix.of_string "2001:db8::/32") ~proto:Proto.tcp (), 7);
  ]

(* Minor words per call of [lookup] over [alloc_keys], after a warm-up. *)
let words_per_lookup lookup =
  let spin n =
    for i = 0 to n - 1 do
      ignore
        (Sys.opaque_identity
           (lookup (Array.unsafe_get alloc_keys (i mod Array.length alloc_keys))))
    done
  in
  spin 1000;
  let n = 7000 in
  let before = Gc.minor_words () in
  spin n;
  (Gc.minor_words () -. before) /. float_of_int n

let test_dag_lookup_alloc () =
  let dag = Dag.create () in
  List.iter (fun (f, v) -> Dag.insert dag f v) (alloc_filters ());
  List.iter
    (fun optimized ->
      if optimized then Dag.optimize dag;
      let words = words_per_lookup (Dag.lookup dag) in
      check bool_t
        (Printf.sprintf "no words per lookup (%.3f, optimized=%b)" words optimized)
        true (words <= 0.02))
    [ false; true ]

(* --- DAG: the central equivalence property -------------------------- *)

let dag_matches_reference engine =
  let module E = (val engine : Rp_lpm.Lpm_intf.S) in
  qtest ~count:400
    (Printf.sprintf "dag(%s) = linear reference" E.name)
    QCheck2.Gen.(
      pair (list_size (int_range 0 25) gen_filter) (list_size (int_range 1 25) gen_key))
    (fun (filters, keys) ->
      let dag = Dag.create ~engine () in
      let reference = Linear_ref.create () in
      List.iteri
        (fun i f ->
          Dag.insert dag f i;
          Linear_ref.insert reference f i)
        filters;
      List.for_all
        (fun k ->
          match Linear_ref.classify reference k, Dag.lookup dag k with
          | None, None -> true
          | Some (f, _), Some (f', _) ->
            (* Distinct but equally specific filters can tie; accept
               either winner provided the specificity class agrees and
               both match. *)
            Filter.compare_specificity f f' = 0
            && Filter.matches f' k
          | None, Some _ | Some _, None -> false)
        keys)

let dag_matches_reference_after_removal =
  qtest ~count:200 "dag = linear reference after removals"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 20) gen_filter)
        (list_size (int_range 0 8) (int_bound 19))
        (list_size (int_range 1 15) gen_key))
    (fun (filters, removals, keys) ->
      let dag = Dag.create () in
      let reference = Linear_ref.create () in
      List.iteri
        (fun i f ->
          Dag.insert dag f i;
          Linear_ref.insert reference f i)
        filters;
      let arr = Array.of_list filters in
      List.iter
        (fun i ->
          if i < Array.length arr then begin
            Dag.remove dag arr.(i);
            Linear_ref.remove reference arr.(i)
          end)
        removals;
      List.for_all
        (fun k ->
          match Linear_ref.classify reference k, Dag.lookup dag k with
          | None, None -> true
          | Some (f, _), Some (f', _) ->
            Filter.compare_specificity f f' = 0 && Filter.matches f' k
          | None, Some _ | Some _, None -> false)
        keys)

(* The churn property (control-plane survival): random {e interleaved}
   insert/remove sequences — not insert-then-remove — must leave the
   DAG equivalent to one that never saw the removed filters.  This is
   what exercises removal against structures later inserts created
   from seed lists (xwild/pwild/label_filters) and against memoized
   skip chains. *)
let dag_matches_reference_interleaved_churn =
  qtest ~count:300 "dag = linear reference under interleaved churn"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 30)
           (pair (oneofl [ `Insert; `Remove; `Optimize ]) (int_bound 11)))
        (array_size (return 12) gen_filter)
        (list_size (int_range 1 15) gen_key))
    (fun (script, pool, keys) ->
      let dag = Dag.create () in
      let reference = Linear_ref.create () in
      List.iteri
        (fun step (op, i) ->
          let f = pool.(i) in
          match op with
          | `Insert ->
            Dag.insert dag f step;
            Linear_ref.insert reference f step
          | `Remove ->
            Dag.remove dag f;
            Linear_ref.remove reference f
          | `Optimize ->
            (* Memoize skip chains mid-churn so removals must clear
               them. *)
            Dag.optimize dag)
        script;
      Dag.length dag = Linear_ref.length reference
      && List.for_all
           (fun k ->
             match Linear_ref.classify reference k, Dag.lookup dag k with
             | None, None -> true
             | Some (f, _), Some (f', _) ->
               Filter.compare_specificity f f' = 0 && Filter.matches f' k
             | None, Some _ | Some _, None -> false)
           keys)

(* --- DAG: wildcard-chain collapsing (§5.1.2 optimization) ------------- *)

let test_dag_optimize_reduces_accesses () =
  (* Filters with fully wildcarded proto/ports/iface: levels 2-5 become
     single-wildcard chains that optimize collapses. *)
  let dag = Dag.create () in
  for i = 0 to 9 do
    Dag.insert dag
      (Filter.v4 ~src:(Prefix.make (Ipaddr.v4 10 0 0 i) 32) ())
      i
  done;
  let k = key ~src:"10.0.0.3" () in
  ignore (Dag.lookup dag k);
  let r1, before = Rp_lpm.Access.measure (fun () -> Dag.lookup dag k) in
  Dag.optimize dag;
  let r2, after = Rp_lpm.Access.measure (fun () -> Dag.lookup dag k) in
  check bool_t "same result" true
    (match r1, r2 with
     | Some (_, a), Some (_, b) -> a = b
     | None, None -> true
     | _, _ -> false);
  check bool_t (Printf.sprintf "fewer accesses (%d -> %d)" before after) true
    (after < before);
  (* An insert through the collapsed path un-collapses it, keeping
     results correct. *)
  Dag.insert dag (Filter.v4 ~src:(Prefix.of_string "10.0.0.3") ~proto:Proto.udp ~priority:9 ()) 99;
  match Dag.lookup dag k with
  | Some (_, v) -> check int_t "post-insert correctness" 99 v
  | None -> Alcotest.fail "lost match after un-collapse"

let prop_dag_optimize_preserves_semantics =
  qtest ~count:200 "dag: optimize never changes lookup results"
    QCheck2.Gen.(
      pair (list_size (int_range 0 20) gen_filter) (list_size (int_range 1 20) gen_key))
    (fun (filters, keys) ->
      let dag = Dag.create () in
      List.iteri (fun i f -> Dag.insert dag f i) filters;
      let plain = List.map (fun k -> Dag.lookup dag k) keys in
      Dag.optimize dag;
      let collapsed = List.map (fun k -> Dag.lookup dag k) keys in
      List.for_all2
        (fun a b ->
          match a, b with
          | None, None -> true
          | Some (f, v), Some (f', v') -> Filter.equal f f' && v = v'
          | _, _ -> false)
        plain collapsed)


(* --- grid-of-tries (two-dimensional classifier, §5.1.2) --------------- *)

let test_grid_of_tries_basic () =
  let g = Grid_of_tries.create () in
  let p = Prefix.of_string in
  Grid_of_tries.insert g ~src:(p "10.0.0.0/8") ~dst:(p "192.168.0.0/16") 1;
  Grid_of_tries.insert g ~src:(p "10.1.0.0/16") ~dst:(p "0.0.0.0/0") 2;
  Grid_of_tries.insert g ~src:(p "0.0.0.0/0") ~dst:(p "192.168.1.0/24") 3;
  let look s d =
    match Grid_of_tries.lookup g ~src:(Ipaddr.of_string s) ~dst:(Ipaddr.of_string d) with
    | Some (_, _, v) -> v
    | None -> -1
  in
  (* src 10.1.x matches both /8 and /16; longest src wins. *)
  check int_t "longest src wins" 2 (look "10.1.2.3" "192.168.1.1");
  (* src 10.2.x matches only /8; needs dst 192.168/16. *)
  check int_t "switch to shorter src" 1 (look "10.2.0.1" "192.168.9.9");
  (* src outside 10/8: only the wildcard-src filter, dst /24. *)
  check int_t "wildcard src" 3 (look "172.16.0.1" "192.168.1.200");
  check int_t "no match" (-1) (look "172.16.0.1" "10.0.0.1");
  Grid_of_tries.remove g ~src:(p "10.1.0.0/16") ~dst:(p "0.0.0.0/0");
  check int_t "after removal falls back" 1 (look "10.1.2.3" "192.168.1.1")

(* The central property: grid-of-tries agrees with the linear
   reference on purely two-dimensional filters. *)
let prop_grid_of_tries_matches_reference =
  qtest ~count:400 "grid-of-tries = linear reference (2D filters)"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 25) (pair gen_small_prefix gen_small_prefix))
        (list_size (int_range 1 25) (pair gen_small_addr gen_small_addr)))
    (fun (pairs, queries) ->
      let g = Grid_of_tries.create () in
      let reference = Linear_ref.create () in
      List.iteri
        (fun i (src, dst) ->
          Grid_of_tries.insert g ~src ~dst i;
          Linear_ref.insert reference (Filter.v4 ~src ~dst ()) i)
        pairs;
      List.for_all
        (fun (src, dst) ->
          let key =
            Flow_key.make ~src ~dst ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0
          in
          match Linear_ref.classify reference key, Grid_of_tries.lookup g ~src ~dst with
          | None, None -> true
          | Some (f, _), Some (s, d, _) ->
            (* Equal specificity on the two dimensions. *)
            f.Filter.src.Prefix.len = s.Prefix.len
            && f.Filter.dst.Prefix.len = d.Prefix.len
            && Prefix.matches s src && Prefix.matches d dst
          | None, Some _ | Some _, None -> false)
        queries)

(* The paper's point: better memory than set pruning on the same
   filters. *)
let test_grid_of_tries_memory () =
  let rng = Random.State.make [| 5 |] in
  let pairs =
    List.init 600 (fun _ ->
        let addr () =
          Ipaddr.v4 (Random.State.int rng 32) (Random.State.int rng 4) 0 0
        in
        ( Prefix.make (addr ()) (8 + Random.State.int rng 9),
          Prefix.make (addr ()) (8 + Random.State.int rng 9) ))
  in
  let g = Grid_of_tries.create () in
  let dag = Dag.create () in
  List.iteri
    (fun i (src, dst) ->
      Grid_of_tries.insert g ~src ~dst i;
      Dag.insert dag (Filter.v4 ~src ~dst ()) i)
    pairs;
  let gn = Grid_of_tries.node_count g in
  let dn = Dag.node_count dag in
  check bool_t
    (Printf.sprintf "fewer nodes than set pruning (%d vs %d)" gn dn)
    true (gn < dn)

(* --- Flow table ------------------------------------------------------ *)

let mk_key i =
  Flow_key.make ~src:(Ipaddr.v4 10 0 (i lsr 8) (i land 0xFF))
    ~dst:(Ipaddr.v4 10 1 0 1) ~proto:Proto.udp ~sport:(1000 + i) ~dport:53
    ~iface:0

(* Every IPv4 key, and the keys [mk_key i] for [i] in [lo, hi]. *)
let any_v4 = Filter.v4 ()
let mk_keys lo hi = Filter.v4 ~sport:(Filter.Port_range (1000 + lo, 1000 + hi)) ()

let test_flow_table_hit_miss () =
  let t = Flow_table.create ~buckets:64 ~gates:3 () in
  let k = mk_key 1 in
  check bool_t "miss first" true (Flow_table.lookup t k ~now:0L = None);
  let r = Flow_table.insert t k ~now:0L in
  Flow_table.set_binding t r ~gate:1 ~filter:any_v4 "sched";
  (match Flow_table.lookup t k ~now:5L with
   | None -> Alcotest.fail "expected hit"
   | Some r' ->
     check bool_t "same record" true (r == r');
     check bool_t "binding" true
       (match Flow_table.binding r' ~gate:1 with
        | Some b -> b.Flow_table.instance = "sched"
        | None -> false);
     check bool_t "empty gate" true (Flow_table.binding r' ~gate:0 = None));
  let s = Flow_table.stats t in
  check int_t "hits" 1 s.Flow_table.hits;
  check int_t "misses" 1 s.Flow_table.misses

let test_flow_table_fix () =
  let t = Flow_table.create ~buckets:64 ~gates:2 () in
  let r = Flow_table.insert t (mk_key 1) ~now:0L in
  let fix = Flow_table.fix_of_record r in
  (match Flow_table.fix_slot t fix with
   | -1 -> Alcotest.fail "fix should resolve"
   | slot -> check bool_t "fix resolves" true (r == Flow_table.record_at t slot));
  Flow_table.remove t r;
  check bool_t "fix invalid after remove" true (Flow_table.fix_slot t fix < 0);
  (* Reuse the slot for another flow: the old FIX must not resolve. *)
  let r2 = Flow_table.insert t (mk_key 2) ~now:1L in
  check bool_t "slot reused" true (Flow_table.slot r2 = Flow_table.slot r);
  check bool_t "stale fix rejected" true (Flow_table.fix_slot t fix < 0);
  check bool_t "new fix ok" true
    (Flow_table.fix_slot t (Flow_table.fix_of_record r2) >= 0)

let test_flow_table_growth () =
  let t = Flow_table.create ~buckets:64 ~initial_records:4 ~gates:1 () in
  check int_t "initial capacity" 4 (Flow_table.capacity t);
  for i = 0 to 9 do
    ignore (Flow_table.insert t (mk_key i) ~now:(Int64.of_int i))
  done;
  check int_t "live" 10 (Flow_table.length t);
  check bool_t "grew exponentially" true (Flow_table.capacity t >= 16);
  (* All ten flows still resolvable. *)
  for i = 0 to 9 do
    if Flow_table.lookup t (mk_key i) ~now:100L = None then
      Alcotest.failf "flow %d lost during growth" i
  done

let test_flow_table_recycling () =
  let t = Flow_table.create ~buckets:16 ~initial_records:4 ~max_records:4 ~gates:1 () in
  for i = 0 to 3 do
    ignore (Flow_table.insert t (mk_key i) ~now:(Int64.of_int i))
  done;
  (* Fifth insert must recycle the oldest (key 0). *)
  ignore (Flow_table.insert t (mk_key 4) ~now:10L);
  check int_t "capacity fixed" 4 (Flow_table.capacity t);
  check bool_t "oldest gone" true (Flow_table.lookup t (mk_key 0) ~now:11L = None);
  check bool_t "newest present" true (Flow_table.lookup t (mk_key 4) ~now:11L <> None);
  check bool_t "second oldest still present" true
    (Flow_table.lookup t (mk_key 1) ~now:11L <> None);
  check int_t "recycled count" 1 (Flow_table.stats t).Flow_table.recycled

let test_flow_table_fifo_bounded () =
  (* Insert/remove churn with the default unbounded [max_records]
     must not grow the table: a removed record's slot is reused, so
     the capacity stays that of the peak live count. *)
  let t = Flow_table.create ~buckets:64 ~initial_records:16 ~gates:2 () in
  for i = 1 to 10_000 do
    let r = Flow_table.insert t (mk_key (i land 0xFF)) ~now:0L in
    Flow_table.remove t r
  done;
  check int_t "no live records after churn" 0 (Flow_table.length t);
  check int_t "capacity after churn" 16 (Flow_table.capacity t);
  (* Mixed churn around a stable working set: memory stays O(live),
     not O(inserts). *)
  let live =
    Array.init 50 (fun i -> Flow_table.insert t (mk_key (10_000 + i)) ~now:0L)
  in
  for i = 1 to 5_000 do
    let r = Flow_table.insert t (mk_key (20_000 + (i land 0x3F))) ~now:0L in
    Flow_table.remove t r
  done;
  check int_t "capacity after mixed churn" 64 (Flow_table.capacity t);
  Array.iter (fun r -> Flow_table.remove t r) live;
  check int_t "empty again" 0 (Flow_table.length t)

let test_flow_table_eviction_callback () =
  let evicted = ref [] in
  let on_evict ~gate (b : string Flow_table.binding) =
    evicted := (gate, b.Flow_table.instance) :: !evicted
  in
  let t = Flow_table.create ~buckets:16 ~gates:2 ~on_evict () in
  let r = Flow_table.insert t (mk_key 1) ~now:0L in
  Flow_table.set_binding t r ~gate:0 ~filter:any_v4 "a";
  Flow_table.set_binding t r ~gate:1 ~filter:any_v4 "b";
  Flow_table.remove t r;
  check int_t "two callbacks" 2 (List.length !evicted);
  check bool_t "gates seen" true
    (List.mem (0, "a") !evicted && List.mem (1, "b") !evicted)

let test_flow_table_expire () =
  let t = Flow_table.create ~buckets:16 ~gates:1 () in
  ignore (Flow_table.insert t (mk_key 1) ~now:0L);
  ignore (Flow_table.insert t (mk_key 2) ~now:0L);
  (* Touch flow 2 late so only flow 1 is idle. *)
  ignore (Flow_table.lookup t (mk_key 2) ~now:900L);
  let n = Flow_table.expire t ~now:1000L ~idle_ns:500L in
  check int_t "one expired" 1 n;
  check bool_t "flow1 gone" true (Flow_table.lookup t (mk_key 1) ~now:1001L = None);
  check bool_t "flow2 kept" true (Flow_table.lookup t (mk_key 2) ~now:1001L <> None)

let test_flow_table_invalidate () =
  let t = Flow_table.create ~buckets:16 ~gates:1 () in
  for i = 0 to 7 do
    let r = Flow_table.insert t (mk_key i) ~now:0L in
    Flow_table.set_binding t r ~gate:0 ~filter:any_v4 "x"
  done;
  (* mk_key i has sport = 1000 + i: invalidate the lower half. *)
  let n = Flow_table.invalidate t (mk_keys 0 3) in
  check int_t "half invalidated" 4 n;
  check int_t "half kept" 4 (Flow_table.length t);
  for i = 0 to 7 do
    let present = Flow_table.lookup t (mk_key i) ~now:1L <> None in
    check bool_t (Printf.sprintf "flow %d" i) (i >= 4) present
  done;
  (* Slots freed by invalidation are reusable. *)
  for i = 8 to 11 do
    ignore (Flow_table.insert t (mk_key i) ~now:2L)
  done;
  check int_t "refilled" 8 (Flow_table.length t)

(* Exactly-once export: drive eviction by invalidation, recycling and
   expiry against the same single slot, and count exporter calls per
   reason.  A record evicted by invalidation must not be exported
   again, and its slot must be the one the next insert takes. *)
let test_flow_table_export_exactly_once () =
  let exported = Hashtbl.create 8 in
  let t =
    Flow_table.create ~buckets:8 ~initial_records:1 ~max_records:1 ~gates:1 ()
  in
  Flow_table.set_exporter t (fun ~reason r ->
      let k = (reason, Flow_table.key r, Flow_table.gen r) in
      Hashtbl.replace exported k (1 + Option.value ~default:0 (Hashtbl.find_opt exported k)));
  let count reason =
    Hashtbl.fold
      (fun (re, _, _) n acc -> if re = reason then acc + n else acc)
      exported 0
  in
  (* 1. Invalidate a live record. *)
  ignore (Flow_table.insert t (mk_key 0) ~now:0L);
  check int_t "one invalidated" 1 (Flow_table.invalidate t any_v4);
  check int_t "invalidated exported once" 1 (count "invalidated");
  (* 2. Fill the one slot again, then force a recycle. *)
  ignore (Flow_table.insert t (mk_key 1) ~now:1L);
  ignore (Flow_table.insert t (mk_key 2) ~now:2L) (* recycles key 1 *);
  check int_t "recycled exported once" 1 (count "recycled");
  check bool_t "recycled was key 1" true
    (Hashtbl.mem exported ("recycled", mk_key 1, 2));
  (* 3. Expire the survivor. *)
  check int_t "one expired" 1 (Flow_table.expire t ~now:1000L ~idle_ns:10L);
  check int_t "expired exported once" 1 (count "expired");
  check int_t "table empty" 0 (Flow_table.length t);
  (* Every export fired exactly once — no (reason, key, gen) repeats. *)
  Hashtbl.iter
    (fun (reason, _, gen) n ->
      check int_t (Printf.sprintf "%s gen=%d exported once" reason gen) 1 n)
    exported;
  check int_t "capacity stays 1" 1 (Flow_table.capacity t);
  (* And the slot still works. *)
  ignore (Flow_table.insert t (mk_key 3) ~now:2000L);
  check int_t "slot reusable after all three paths" 1 (Flow_table.length t)

let prop_flow_table_model =
  (* Model check: an insertion-ordered list of (key, last use), on a
     table bounded at 4 records and on an unbounded one; both start at
     2 records, so the unbounded table grows to 16 and rebuilds its
     index with live records, on the wheel once the first pass ran.
     When bounded, a recycle evicts the model's oldest live key;
     [expire] evicts exactly its idle keys, none early or late, each
     exported once (in no promised order), and [iter] visits newest
     first.  The idle time changes between passes (ticks of 1 to 512
     ns), and the clock jumps by up to 16 spans of the finest wheel. *)
  qtest ~count:300 "flow table = model"
    QCheck2.Gen.(
      pair bool (list_size (int_range 1 80) (pair (int_bound 5) (int_bound 15))))
    (fun (bounded, ops) ->
      let t =
        if bounded then
          Flow_table.create ~buckets:8 ~initial_records:2 ~max_records:4 ~gates:1 ()
        else Flow_table.create ~buckets:8 ~initial_records:2 ~gates:1 ()
      in
      let gone = ref [] in
      Flow_table.set_exporter t (fun ~reason r ->
          gone := (reason, Flow_table.key r) :: !gone);
      let model = ref [] (* (i, last use), oldest first *) in
      let now = ref 0 in
      let exported () =
        let l = List.rev !gone in
        gone := [];
        l
      in
      List.for_all
        (fun (op, i) ->
          incr now;
          let k = mk_key i and now64 = Int64.of_int !now in
          let step_ok =
            match op with
            | 0 | 1 ->
              let replaced = List.mem_assoc i !model in
              model := List.remove_assoc i !model;
              let victim =
                if bounded && List.length !model = 4 then begin
                  let v = fst (List.hd !model) in
                  model := List.tl !model;
                  [ ("recycled", mk_key v) ]
                end
                else []
              in
              ignore (Flow_table.insert t k ~now:now64);
              model := !model @ [ (i, !now) ];
              exported ()
              = (if replaced then [ ("replaced", k) ] else []) @ victim
            | 2 ->
              (match Flow_table.lookup t k ~now:now64 with
               | Some r ->
                 Flow_table.remove t r;
                 model := List.remove_assoc i !model;
                 exported () = [ ("removed", k) ]
               | None -> not (List.mem_assoc i !model))
            | 3 ->
              (match (Flow_table.lookup t k ~now:now64, List.mem_assoc i !model) with
               | Some _, true ->
                 model := List.map (fun (j, l) -> (j, if j = i then !now else l)) !model;
                 true
               | None, false -> true
               | Some _, false | None, true -> false)
            | 4 ->
              let idle = if i < 8 then 2 * i else 1 lsl i in
              let expired, kept =
                List.partition (fun (_, l) -> !now - l > idle) !model
              in
              model := kept;
              let n = Flow_table.expire t ~now:now64 ~idle_ns:(Int64.of_int idle) in
              n = List.length expired
              && List.sort compare (exported ())
                 = List.sort compare
                     (List.map (fun (j, _) -> ("expired", mk_key j)) expired)
            | _ ->
              now := !now + (4096 * i);
              true
          in
          let seen = ref [] in
          Flow_table.iter (fun r -> seen := Flow_table.key r :: !seen) t;
          step_ok
          && Flow_table.length t = List.length !model
          && List.rev !seen = List.rev_map (fun (j, _) -> mk_key j) !model)
        ops)

(* [Wheel] against a list of (deadline, slot) sorted by deadline, under
   random schedules (some in the past, some beyond a span), unlinks,
   re-ticks, growth and passes whose clock jumps by up to ten spans of
   the finest tick, or steps back.  A pass must fire exactly the model's prefix due
   by [now], re-checking no slot twice, and leave the rest scheduled
   at their deadlines. *)
let prop_wheel_model =
  qtest ~count:300 "wheel = sorted-list model"
    QCheck2.Gen.(
      list_size (int_range 1 100) (triple (int_bound 4) (int_bound 15) (int_bound 20)))
    (fun ops ->
      let w = Wheel.create ~slots:8 ~timeout:64 ~now:0 in
      let slots = ref 8 and now = ref 0 in
      let model = ref [] (* (deadline, slot), sorted *) in
      let drop s = model := List.filter (fun (_, s') -> s' <> s) !model in
      let deadline s = fst (List.find (fun (_, s') -> s' = s) !model) in
      List.for_all
        (fun (op, s, x) ->
          match op with
          | (0 | 1) when s >= !slots -> true
          | 0 ->
            let at = !now + (x * x * x * 8) - (200 * x) in
            Wheel.schedule w s ~at;
            drop s;
            model := List.merge compare [ (at, s) ] !model;
            true
          | 1 ->
            Wheel.unlink w s;
            drop s;
            true
          | 2 ->
            Wheel.retick w ~timeout:(1 lsl x);
            List.iter (fun (at, s) -> Wheel.schedule w s ~at) !model;
            true
          | 3 ->
            slots := min 16 (!slots + s);
            Wheel.grow w ~slots:!slots;
            true
          | _ ->
            (* now and then a pass at an earlier instant than the last *)
            now := if s = 0 then !now - (50 * x) else !now + (x * x * x * x);
            let seen = ref [] and fired = ref [] and twice = ref false in
            let n =
              Wheel.pass w ~now:!now ~deadline ~read:(fun _ -> 0) ~expired:(fun s ->
                  twice := !twice || List.mem s !seen;
                  seen := s :: !seen;
                  deadline s <= !now
                  && begin
                    Wheel.unlink w s;
                    fired := s :: !fired;
                    true
                  end)
            in
            let due, rest = List.partition (fun (at, _) -> at <= !now) !model in
            model := rest;
            (not !twice) && n = List.length due
            && List.sort compare !fired = List.sort compare (List.map snd due))
        ops)

(* [Slot_list] against OCaml lists: random moves, unlinks, appends and
   growth over three lists, checked forward and backward after every
   step, with no slot on two lists. *)
let prop_slot_list_model =
  qtest ~count:300 "slot lists = model"
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (quad (int_bound 3) (int_bound 15) (int_bound 2) (int_bound 2)))
    (fun ops ->
      let t = Slot_list.create ~lists:3 ~slots:4 in
      let slots = ref 4 in
      let model = Array.make 3 [] in
      let drop s = Array.iteri (fun l xs -> model.(l) <- List.filter (( <> ) s) xs) model in
      let rec forward s = if s < 0 then [] else s :: forward (Slot_list.next t s) in
      let rec backward s = if s < 0 then [] else s :: backward (Slot_list.prev t s) in
      List.for_all
        (fun (op, s, a, b) ->
          (match op with
           | 0 when s < !slots ->
             Slot_list.unlink t s;
             Slot_list.push_back t a s;
             drop s;
             model.(a) <- model.(a) @ [ s ]
           | 1 when s < !slots ->
             Slot_list.unlink t s;
             drop s
           | 2 ->
             Slot_list.append t ~src:a ~dst:b;
             if a <> b then begin
               model.(b) <- model.(b) @ model.(a);
               model.(a) <- []
             end
           | 3 ->
             slots := min 16 (!slots + s);
             Slot_list.grow t ~slots:!slots
           | _ -> ());
          let all = List.concat (Array.to_list model) in
          List.length (List.sort_uniq compare all) = List.length all
          && List.for_all
               (fun l ->
                 forward (Slot_list.first t l) = model.(l)
                 && backward (Slot_list.last t l) = List.rev model.(l)
                 && (Slot_list.first t l < 0) = (model.(l) = []))
               [ 0; 1; 2 ])
        ops)

(* The whole point of the flat layout: once warm, the per-packet flow
   paths — a [find] hit/miss (the data path's lookup; [lookup] wraps
   it in a fresh [Some]), insert over a recycled slot — allocate no
   OCaml-heap words at all (same contract the packet pool proved in
   its GC-silence test), and an expiry pass that finds nothing only
   its few words of closures.  Keys are preallocated so only table
   work is measured; small constant slack covers the [Gc.minor_words]
   boxing itself and the pass. *)
let test_flow_table_gc_silent () =
  let t =
    Flow_table.create ~buckets:2048 ~initial_records:256 ~max_records:256
      ~gates:2 ()
  in
  let keys = Array.init 512 mk_key in
  let spin () =
    for i = 0 to 255 do
      ignore (Flow_table.insert t keys.(i) ~now:0L)
    done;
    for i = 0 to 511 do
      ignore (Flow_table.find t keys.(i) ~now:1L)
    done;
    (* table is full: each of these recycles the oldest record *)
    for i = 256 to 511 do
      ignore (Flow_table.insert t keys.(i) ~now:2L)
    done;
    ignore (Flow_table.expire t ~now:3L ~idle_ns:1_000_000_000L)
  in
  spin ();
  spin ();
  let before = Gc.minor_words () in
  spin ();
  let delta = Gc.minor_words () -. before in
  check bool_t
    (Printf.sprintf "steady state GC-silent (%.0f minor words)" delta)
    true (delta < 100.)

(* Export copies ints: with the exporter (and the session layer's
   translated-tuple hook) installed, a recycling insert and an expiry
   pass export flows that carry packets and gate bindings without
   allocating per flow (a pass allocates its few words of closures).
   Bindings and packets are set up outside the measured windows; the
   slack is the GC-silence test's. *)
let test_flow_export_gc_silent () =
  let module Fx = Rp_core.Flow_export in
  let module Gate = Rp_core.Gate in
  Fx.set_translated_of Rp_session.Session.xlate_of_record;
  let aiu = Aiu.create ~max_records:256 ~gates:Gate.count () in
  Fx.install aiu;
  let t = Aiu.flow_table aiu in
  let inst =
    Rp_core.Plugin.simple ~instance_id:7 ~code:0 ~plugin_name:"gc"
      ~gate:Gate.Firewall (fun _ _ -> Rp_core.Plugin.Continue)
  in
  let keys = Array.init 512 mk_key in
  let mbufs = Array.map (fun key -> Mbuf.synth ~key ~len:100 ()) keys in
  let carry lo =
    for i = lo to lo + 255 do
      match Flow_table.lookup t keys.(i) ~now:1L with
      | Some r ->
        Flow_table.set_binding t r ~gate:(Gate.to_int Gate.Firewall) ~filter:any_v4
          inst;
        Flow_table.set_binding t r ~gate:(Gate.to_int Gate.Scheduling)
          ~filter:any_v4 inst;
        mbufs.(i).Mbuf.fix <- Flow_table.fix_of_record r;
        Flow_table.account t mbufs.(i) ~verdict:`Fwd
      | None -> Alcotest.fail "flow missing"
    done
  in
  let measure what f =
    let exported0 = List.length (Fx.peek ()) in
    let before = Gc.minor_words () in
    f ();
    let delta = Gc.minor_words () -. before in
    check bool_t
      (Printf.sprintf "%s allocates nothing (%.0f minor words)" what delta)
      true (delta < 100.);
    check bool_t (what ^ " exported every flow") true
      (List.length (Fx.peek ()) = min Fx.capacity (exported0 + 256))
  in
  for i = 0 to 255 do
    ignore (Flow_table.insert t keys.(i) ~now:0L)
  done;
  for _ = 1 to 2 do
    carry 0;
    measure "recycling insert" (fun () ->
        for i = 256 to 511 do
          ignore (Flow_table.insert t keys.(i) ~now:2L)
        done);
    carry 256;
    measure "expiry pass" (fun () ->
        ignore (Flow_table.expire t ~now:3L ~idle_ns:0L));
    for i = 0 to 255 do
      ignore (Flow_table.insert t keys.(i) ~now:0L)
    done
  done;
  Fx.clear ()

(* Regression for the O(allocated) maintenance sweeps: after growing
   to thousands of slots and draining back to a handful, invalidate
   visits exactly [live] slots — grown-but-dead capacity costs
   nothing — and expire visits only what is due. *)
let test_flow_table_olive_maintenance () =
  let t = Flow_table.create ~buckets:64 ~initial_records:4 ~gates:1 () in
  for i = 0 to 4095 do
    ignore (Flow_table.insert t (mk_key i) ~now:0L)
  done;
  check bool_t "grew to thousands of slots" true (Flow_table.capacity t >= 4096);
  (* Drain to three live flows (mk_key i has sport = 1000 + i). *)
  let n = Flow_table.invalidate t (mk_keys 3 4095) in
  check int_t "drained" 4093 n;
  check int_t "three live" 3 (Flow_table.length t);
  let visited () = (Flow_table.stats t).Flow_table.maint_visited in
  let v0 = visited () in
  check int_t "nothing idle" 0 (Flow_table.expire t ~now:1L ~idle_ns:1_000_000_000L);
  let v1 = visited () in
  check int_t "expire with nothing due visited no slot" 0 (v1 - v0);
  ignore (Flow_table.invalidate t (Filter.v6 ()));
  let v2 = visited () in
  check int_t "invalidate visited exactly the live slots" 3 (v2 - v1);
  (* A new idle time schedules the live records again; flows 0 and 1
     idle past it.  Flow 2, used since it was scheduled, comes due with
     them and goes back on the wheel at its last use, so a second pass
     at the same instant visits none. *)
  check int_t "nothing idle yet" 0 (Flow_table.expire t ~now:100L ~idle_ns:500L);
  ignore (Flow_table.lookup t (mk_key 2) ~now:600L);
  let v3 = visited () in
  check int_t "two due" 2 (Flow_table.expire t ~now:1000L ~idle_ns:500L);
  let v4 = visited () in
  check int_t "the pass visited the three due" 3 (v4 - v3);
  check int_t "none due again" 0 (Flow_table.expire t ~now:1000L ~idle_ns:500L);
  check int_t "a second pass at the same instant visits no slot" 0 (visited () - v4)

(* The probe run is charged like the old bucket chain — one access for
   the home-bucket read plus one per occupied slot inspected — and
   [chain_max] counts those occupied slots uniformly on hits and
   misses.  Uses a fixed-size table so home buckets are computable. *)
let test_flow_table_probe_charges () =
  Rp_lpm.Access.set_enabled true;
  let t =
    Flow_table.create ~buckets:16 ~initial_records:4 ~max_records:4 ~gates:1 ()
  in
  let mask = 15 in
  let home k = Flow_key.hash k land mask in
  let base = mk_key 0 in
  let h = home base in
  let find_key p =
    let rec go i =
      if i > 100_000 then Alcotest.fail "no key found for probe layout"
      else
        let k = mk_key i in
        if p k then k else go (i + 1)
    in
    go 1
  in
  let collider = find_key (fun k -> home k = h) in
  let elsewhere =
    find_key (fun k -> home k <> h && home k <> (h + 1) land mask)
  in
  let third = find_key (fun k -> home k = h && not (Flow_key.equal k collider)) in
  ignore (Flow_table.insert t base ~now:0L);
  let r, c = Rp_lpm.Access.measure (fun () -> Flow_table.lookup t base ~now:1L) in
  check bool_t "hit" true (r <> None);
  check int_t "collision-free hit charges 2" 2 c;
  check int_t "hit at depth 0 records chain 1" 1
    (Flow_table.stats t).Flow_table.chain_max;
  let r, c =
    Rp_lpm.Access.measure (fun () -> Flow_table.lookup t elsewhere ~now:1L)
  in
  check bool_t "miss" true (r = None);
  check int_t "miss on empty home charges 1" 1 c;
  (* Second key with the same home bucket probes to home+1. *)
  ignore (Flow_table.insert t collider ~now:2L);
  let r, c =
    Rp_lpm.Access.measure (fun () -> Flow_table.lookup t collider ~now:3L)
  in
  check bool_t "collided hit" true (r <> None);
  check int_t "hit at depth 1 charges 3" 3 c;
  check int_t "hit at depth 1 records chain 2" 2
    (Flow_table.stats t).Flow_table.chain_max;
  (* A missing key with the same home skips both occupied slots. *)
  let r, c = Rp_lpm.Access.measure (fun () -> Flow_table.lookup t third ~now:4L) in
  check bool_t "miss past the run" true (r = None);
  check int_t "miss past 2 occupied charges 3" 3 c;
  check int_t "miss records occupied slots skipped" 2
    (Flow_table.stats t).Flow_table.chain_max

(* Two IPv6 keys that differ only in word 3 of one address but whose
   hashes agree in the 31 bits an index entry keeps, so the probe
   reaches the words themselves: a birthday search over that word. *)
let fingerprint_twins ~dst =
  let seen = Hashtbl.create 200_000 in
  let key w =
    let a = Ipaddr.v6 0x20010db8l 7l 0l (Int32.of_int w) in
    let b = Ipaddr.v6 0x20010db8l 9l 0l 1l in
    let src, dst = if dst then (b, a) else (a, b) in
    Flow_key.make ~src ~dst ~proto:Proto.udp ~sport:1000 ~dport:53 ~iface:0
  in
  let rec go w =
    if w > 1_000_000 then Alcotest.fail "no fingerprint twins found"
    else
      let k = key w in
      let fp = Flow_key.hash k land 0x7FFF_FFFF in
      match Hashtbl.find_opt seen fp with
      | Some k' -> [ k'; k ]
      | None ->
        Hashtbl.add seen fp k;
        go (w + 1)
  in
  go 0

(* Prefix and filter tests on words against the bit-masking rule they
   replace: an address matches [addr/len] when its family is the
   prefix's and [Ipaddr.prefix_bits] of it at [len] is the prefix's
   address.  Lengths run over every value of both families, so a length
   inside a word (an IPv4 /13, an IPv6 /48 or /100) is drawn as often
   as a word boundary.  A table holding just the key invalidates it
   exactly when the filter matches, read from the stored words. *)
let ref_prefix_matches (p : Prefix.t) a =
  Ipaddr.width p.Prefix.addr = Ipaddr.width a
  && Ipaddr.equal (Ipaddr.prefix_bits a p.Prefix.len) p.Prefix.addr

let gen_addr_of ~v6 =
  QCheck2.Gen.(
    let* w = array_repeat 4 (int_bound 0xFFFF_FFFF) in
    return (Ipaddr.of_words ~v6 w.(0) w.(1) w.(2) w.(3)))

(* A [v6]-family prefix of any length: [a] with at most one bit
   flipped when [a] is of that family, so it matches [a] often, else a
   random address. *)
let gen_prefix_near ~v6 a =
  QCheck2.Gen.(
    let* base = if Ipaddr.is_v6 a = v6 then return a else gen_addr_of ~v6 in
    let width = Ipaddr.width base in
    let* len = int_range 0 width in
    let* flip = option (int_bound (width - 1)) in
    let ws = Array.init 4 (Ipaddr.word base) in
    Option.iter (fun b -> ws.(b / 32) <- ws.(b / 32) lxor (1 lsl (31 - (b mod 32)))) flip;
    return (Prefix.make (Ipaddr.of_words ~v6 ws.(0) ws.(1) ws.(2) ws.(3)) len))

let prop_words_match_filters =
  qtest ~count:1000 "word-based prefix and filter tests = bit masking"
    QCheck2.Gen.(
      let* src = bool >>= fun v6 -> gen_addr_of ~v6 in
      let* dst = frequency [ (4, return (Ipaddr.is_v6 src)); (1, bool) ] >>= fun v6 -> gen_addr_of ~v6 in
      let* proto = oneofl [ Proto.tcp; Proto.udp; Proto.icmp ] in
      let* sport = int_bound 9 and* dport = int_bound 9 and* iface = int_bound 2 in
      let k = Flow_key.make ~src ~dst ~proto ~sport ~dport ~iface in
      let* v6 = frequency [ (4, return (Ipaddr.is_v6 src)); (1, bool) ] in
      let* fsrc = gen_prefix_near ~v6 src and* fdst = gen_prefix_near ~v6 dst in
      let* fproto = gen_proto and* fsport = gen_port_match and* fdport = gen_port_match in
      let* fiface = gen_iface in
      let make = if v6 then Filter.v6 else Filter.v4 in
      return
        (k, make ~src:fsrc ~dst:fdst ?proto:fproto ~sport:fsport ~dport:fdport ?iface:fiface ()))
    (fun (k, f) ->
      let src_ok = ref_prefix_matches f.Filter.src k.Flow_key.src
      and dst_ok = ref_prefix_matches f.Filter.dst k.Flow_key.dst in
      let expect =
        src_ok && dst_ok
        && Filter.matches_numbers f ~proto:k.Flow_key.proto ~sport:k.Flow_key.sport
             ~dport:k.Flow_key.dport ~iface:k.Flow_key.iface
      in
      let t = Flow_table.create ~buckets:8 ~initial_records:1 ~gates:1 () in
      ignore (Flow_table.insert t k ~now:0L);
      Prefix.matches f.Filter.src k.Flow_key.src = src_ok
      && Prefix.matches f.Filter.dst k.Flow_key.dst = dst_ok
      && Filter.matches f k = expect
      && Flow_table.invalidate t f = if expect then 1 else 0)

(* Keys that differ only in address family, in one IPv6 word, or in
   the interface: a table comparing packed words must keep each pair
   apart. *)
let word_keys =
  let v6 a b c d = Ipaddr.v6 (Int32.of_int a) (Int32.of_int b) (Int32.of_int c) (Int32.of_int d) in
  let k ?(proto = Proto.udp) ?(sport = 1000) ?(iface = 0) src dst =
    Flow_key.make ~src ~dst ~proto ~sport ~dport:53 ~iface
  in
  let s4 = Ipaddr.v4 1 2 3 4 and d4 = Ipaddr.v4 5 6 7 8 in
  let s6 = v6 0x01020304 0 0 0 and d6 = v6 0x05060708 0 0 0 in
  [|
    k s4 d4;
    k s6 d6 (* the same words, IPv6 *);
    k s4 d6 (* mixed families *);
    k s6 d4;
    k ~iface:1 s4 d4;
    k ~iface:1 s6 d6;
    k (v6 0x01020304 1 0 0) d6;
    k (v6 0x01020304 0 1 0) d6;
    k (v6 0x01020304 0 0 1) d6;
    k s6 (v6 0x05060708 0 0 1);
    k s6 (v6 0x05060708 0 1 0);
    k ~proto:Proto.tcp s4 d4;
    k ~sport:1001 s6 d6;
    k ~iface:0xFFFFF s4 d4;
  |]
  |> Fun.flip Array.append
       (Array.of_list (fingerprint_twins ~dst:false @ fingerprint_twins ~dst:true))

(* The flat table against a [Hashtbl] reference, on [word_keys] in a
   six-record table (index of 16 entries) under random insert, lookup,
   remove, expire and — once full — recycling inserts.  Every lookup
   agrees with the reference and rebuilds its key; its charge is 1 plus
   the occupied entries it inspected: exactly the occupied run from
   the home bucket on a miss (linear probing fills the same cells
   whatever the insertion order), at most that run on a hit.  Every
   FIX ever handed out validates exactly while its own incarnation is
   live, so a recycled or reused slot's FIX never does. *)
let prop_flow_table_words =
  qtest ~count:300 "packed keys = Hashtbl reference"
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (pair (int_bound 5) (int_bound (Array.length word_keys - 1))))
    (fun ops ->
      Rp_lpm.Access.set_enabled true;
      let max_records = 6 and mask = 15 in
      let t = Flow_table.create ~buckets:8 ~max_records ~gates:1 () in
      let model : (Flow_key.t, int * int ref) Hashtbl.t = Hashtbl.create 16 in
      let seq = ref 0 and now = ref 0 and fixes = ref [] and ok = ref true in
      let assert_ b = if not b then ok := false in
      let home k = Flow_key.hash k land mask in
      let run_from h =
        let occ = Array.make (mask + 1) false in
        Hashtbl.iter
          (fun k _ ->
            let rec place p = if occ.(p) then place ((p + 1) land mask) else occ.(p) <- true in
            place (home k))
          model;
        let rec run p n = if occ.(p) then run ((p + 1) land mask) (n + 1) else n in
        run h 0
      in
      let oldest () =
        Hashtbl.fold
          (fun k (s, _) acc ->
            match acc with Some (_, s') when s' <= s -> acc | _ -> Some (k, s))
          model None
      in
      List.iter
        (fun (op, i) ->
          incr now;
          let k = word_keys.(i) in
          (match op with
           | 0 | 1 ->
             Hashtbl.remove model k;
             if Hashtbl.length model >= max_records then
               Option.iter (fun (o, _) -> Hashtbl.remove model o) (oldest ());
             let r = Flow_table.insert t k ~now:(Int64.of_int !now) in
             incr seq;
             Hashtbl.replace model k (!seq, ref !now);
             fixes := (Flow_table.fix_of_record r, k, !seq) :: !fixes
           | 2 | 3 ->
             let run = run_from (home k) in
             let slot, charge =
               Rp_lpm.Access.measure (fun () ->
                   Flow_table.find t k ~now:(Int64.of_int !now))
             in
             (match Hashtbl.find_opt model k with
              | Some (_, last) ->
                last := !now;
                assert_ (slot >= 0);
                assert_
                  (slot >= 0
                  && Flow_key.equal (Flow_table.key (Flow_table.record_at t slot)) k);
                assert_ (charge >= 2 && charge <= 1 + run)
              | None ->
                assert_ (slot < 0);
                assert_ (charge = 1 + run))
           | 4 -> (
             match Flow_table.lookup t k ~now:(Int64.of_int !now) with
             | Some r ->
               Flow_table.remove t r;
               assert_ (Hashtbl.mem model k);
               Hashtbl.remove model k
             | None -> assert_ (not (Hashtbl.mem model k)))
           | _ ->
             let idle = 3 in
             let gone =
               Hashtbl.fold
                 (fun k (_, last) acc -> if !now - !last > idle then k :: acc else acc)
                 model []
             in
             List.iter (Hashtbl.remove model) gone;
             assert_
               (Flow_table.expire t ~now:(Int64.of_int !now) ~idle_ns:(Int64.of_int idle)
               = List.length gone));
          assert_ (Flow_table.length t = Hashtbl.length model);
          List.iter
            (fun (fix, k, s) ->
              let live =
                match Hashtbl.find_opt model k with Some (s', _) -> s' = s | None -> false
              in
              assert_ (Flow_table.fix_slot t fix >= 0 = live))
            !fixes)
        ops;
      !ok)

let prop_flow_table_equiv =
  (* The flat table against a boxed reference model on a bounded
     4-record table, so recycling pressure is constant: lookup
     results, FIX validity, per-gate staleness, live count and the
     export log must agree hit-for-hit under random interleavings of
     insert / lookup / remove / expire / invalidate / gate bumps.
     Exports with a deterministic trigger (replaced, recycled,
     removed) are compared in order — pinning eviction order — and
     whole-table sweeps (expired, invalidated, flushed) as multisets,
     since the sweep walks the dense live array, not insertion
     order. *)
  qtest ~count:300 "flat table = boxed reference model"
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_bound 7) (int_bound 11)))
    (fun ops ->
      let max_records = 4 in
      let gates = 2 in
      let t =
        Flow_table.create ~buckets:8 ~initial_records:max_records ~max_records
          ~gates ()
      in
      let exports = ref [] in
      Flow_table.set_exporter t (fun ~reason r ->
          exports := (reason, (Flow_table.key r).Flow_key.sport - 1000) :: !exports);
      (* Reference model: live entries in insertion order (oldest
         first), each (key index, unique insert seq, last-use, per-gate
         bump stamps). *)
      let m_live = ref [] in
      let m_seq = ref 0 in
      let m_bumps = Array.make gates 0 in
      let m_exports = ref [] in
      let m_export reason (idx, _, _, _) = m_exports := (reason, idx) :: !m_exports in
      let m_find idx = List.find_opt (fun (i, _, _, _) -> i = idx) !m_live in
      let m_remove idx = m_live := List.filter (fun (i, _, _, _) -> i <> idx) !m_live in
      let m_insert idx now =
        (match m_find idx with
         | Some e ->
           m_export "replaced" e;
           m_remove idx
         | None ->
           if List.length !m_live >= max_records then begin
             let oldest = List.hd !m_live in
             m_export "recycled" oldest;
             m_live := List.tl !m_live
           end);
        incr m_seq;
        m_live := !m_live @ [ (idx, !m_seq, ref now, Array.copy m_bumps) ];
        !m_seq
      in
      let fixes = ref [] in
      let now = ref 0L in
      let ok = ref true in
      let assert_ b = if not b then ok := false in
      List.iter
        (fun (op, i) ->
          now := Int64.add !now 10L;
          let k = mk_key i in
          (match op with
           | 0 | 1 ->
             let r = Flow_table.insert t k ~now:!now in
             let seq = m_insert i (Int64.to_int !now) in
             fixes := (Flow_table.fix_of_record r, i, seq, Flow_table.gen r) :: !fixes
           | 2 | 3 -> (
             match (Flow_table.lookup t k ~now:!now, m_find i) with
             | Some r, Some (_, _, last, stamps) ->
               last := Int64.to_int !now;
               for g = 0 to gates - 1 do
                 assert_
                   (Flow_table.gate_stale t r ~gate:g = (stamps.(g) < m_bumps.(g)))
               done
             | None, None -> ()
             | _ -> assert_ false)
           | 4 -> (
             match (Flow_table.lookup t k ~now:!now, m_find i) with
             | Some r, Some e ->
               Flow_table.remove t r;
               m_export "removed" e;
               m_remove i
             | None, None -> ()
             | _ -> assert_ false)
           | 5 ->
             let n = Flow_table.expire t ~now:!now ~idle_ns:25L in
             let gone, kept =
               List.partition
                 (fun (_, _, last, _) -> Int64.to_int !now - !last > 25)
                 !m_live
             in
             List.iter (m_export "expired") gone;
             m_live := kept;
             assert_ (n = List.length gone)
           | 6 ->
             let n = Flow_table.invalidate t (mk_keys 0 5) in
             let gone, kept = List.partition (fun (idx, _, _, _) -> idx <= 5) !m_live in
             List.iter (m_export "invalidated") gone;
             m_live := kept;
             assert_ (n = List.length gone)
           | _ ->
             let g = i mod gates in
             Flow_table.bump_gate t ~gate:g;
             m_bumps.(g) <- m_bumps.(g) + 1);
          assert_ (Flow_table.length t = List.length !m_live);
          (* every FIX handed out so far resolves iff its exact
             incarnation (key index + insert seq) is still live *)
          List.iter
            (fun (fix, idx, seq, gen) ->
              let expect =
                match m_find idx with Some (_, s, _, _) -> s = seq | None -> false
              in
              let got =
                match Flow_table.fix_slot t fix with
                | -1 -> false
                | slot ->
                  let r = Flow_table.record_at t slot in
                  Flow_table.gen r = gen
                  && (Flow_table.key r).Flow_key.sport - 1000 = idx
              in
              assert_ (got = expect))
            !fixes)
        ops;
      Flow_table.flush t;
      List.iter (m_export "flushed") !m_live;
      m_live := [];
      let det = [ "replaced"; "recycled"; "removed" ] in
      let split l =
        ( List.filter (fun (r, _) -> List.mem r det) l,
          List.sort compare (List.filter (fun (r, _) -> not (List.mem r det)) l) )
      in
      let d_real, s_real = split !exports in
      let d_model, s_model = split !m_exports in
      assert_ (d_real = d_model);
      assert_ (s_real = s_model);
      !ok)

(* --- AIU ------------------------------------------------------------- *)

(* [Aiu.classify] returns the flow record; these tests read the
   instance bound at [gate] beside it. *)
let aiu_classify aiu m ~gate ~now =
  let record = Aiu.classify aiu m ~gate ~now in
  match Flow_table.binding record ~gate with
  | Some b -> Some (b.Flow_table.instance, record)
  | None -> None

let test_aiu_classify_caches () =
  let aiu = Aiu.create ~gates:3 () in
  let f = Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") () in
  Aiu.bind aiu ~gate:0 f "opt";
  Aiu.bind aiu ~gate:2 f "sched";
  let m = Mbuf.synth ~key:(key ()) ~len:100 () in
  (* First gate on an uncached flow: classification populates all gates. *)
  (match aiu_classify aiu m ~gate:0 ~now:0L with
   | Some (v, record) ->
     check string_t "gate0 instance" "opt" v;
     check bool_t "gate2 prefetched" true
       (match Flow_table.binding record ~gate:2 with
        | Some b -> b.Flow_table.instance = "sched"
        | None -> false);
     check bool_t "gate1 empty" true (Flow_table.binding record ~gate:1 = None)
   | None -> Alcotest.fail "expected gate0 match");
  check bool_t "fix set" true (m.Mbuf.fix >= 0);
  (* Subsequent gate uses the FIX: no flow-table lookup. *)
  let stats_before = Flow_table.stats (Aiu.flow_table aiu) in
  (match aiu_classify aiu m ~gate:2 ~now:1L with
   | Some (v, _) -> check string_t "gate2 via fix" "sched" v
   | None -> Alcotest.fail "expected gate2 match");
  let stats_after = Flow_table.stats (Aiu.flow_table aiu) in
  check int_t "no extra hash lookup via fix" stats_before.Flow_table.lookups
    stats_after.Flow_table.lookups;
  (* Second packet of the flow: flow-table hit, no filter lookup. *)
  let m2 = Mbuf.synth ~key:(key ()) ~len:100 () in
  (match aiu_classify aiu m2 ~gate:0 ~now:2L with
   | Some (v, _) -> check string_t "cached flow" "opt" v
   | None -> Alcotest.fail "expected cached match");
  check int_t "hit recorded" 1 (Flow_table.stats (Aiu.flow_table aiu)).Flow_table.hits

let test_aiu_rebind_flushes () =
  let aiu = Aiu.create ~gates:1 () in
  let f = Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") () in
  Aiu.bind aiu ~gate:0 f "v1";
  let m = Mbuf.synth ~key:(key ()) ~len:100 () in
  (match aiu_classify aiu m ~gate:0 ~now:0L with
   | Some (v, _) -> check string_t "before" "v1" v
   | None -> Alcotest.fail "expected match");
  Aiu.bind aiu ~gate:0 f "v2";
  (* The cached flow entry and the packet's FIX are now stale; a new
     packet must see the new binding. *)
  let m2 = Mbuf.synth ~key:(key ()) ~len:100 () in
  (match aiu_classify aiu m2 ~gate:0 ~now:1L with
   | Some (v, _) -> check string_t "after rebind" "v2" v
   | None -> Alcotest.fail "expected match after rebind");
  (* The old packet's FIX is stale but must degrade gracefully. *)
  match aiu_classify aiu m ~gate:0 ~now:2L with
  | Some (v, _) -> check string_t "stale fix reclassified" "v2" v
  | None -> Alcotest.fail "expected reclassification"

let counter_get name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

(* Selective invalidation: rebinding a filter evicts only the flows it
   matches; unrelated flows keep their cache entries. *)
let test_aiu_selective_invalidation () =
  let aiu = Aiu.create ~gates:1 () in
  let f10 = Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") () in
  let f11 = Filter.v4 ~src:(Prefix.of_string "11.0.0.0/8") () in
  Aiu.bind aiu ~gate:0 f10 "ten";
  Aiu.bind aiu ~gate:0 f11 "eleven";
  let k10 = key ~src:"10.1.2.3" () and k11 = key ~src:"11.1.2.3" () in
  (match Aiu.classify_key aiu k10 ~gate:0 ~now:0L with
   | Some (v, _) -> check string_t "ten" "ten" v
   | None -> Alcotest.fail "expected ten");
  (match Aiu.classify_key aiu k11 ~gate:0 ~now:0L with
   | Some (v, _) -> check string_t "eleven" "eleven" v
   | None -> Alcotest.fail "expected eleven");
  check int_t "both flows cached" 2 (Flow_table.length (Aiu.flow_table aiu));
  (* Rebind the 10/8 filter: only the 10.x flow may be evicted. *)
  Aiu.bind aiu ~gate:0 f10 "ten-v2";
  check int_t "unrelated flow kept" 1 (Flow_table.length (Aiu.flow_table aiu));
  check bool_t "11.x record survived" true
    (Flow_table.lookup (Aiu.flow_table aiu) k11 ~now:1L <> None);
  check bool_t "10.x record evicted" true
    (Flow_table.lookup (Aiu.flow_table aiu) k10 ~now:1L = None);
  match Aiu.classify_key aiu k10 ~gate:0 ~now:2L with
  | Some (v, _) -> check string_t "reclassified to v2" "ten-v2" v
  | None -> Alcotest.fail "expected ten-v2"

(* A filter with both addresses wildcarded takes the O(1) gate-bump
   path: no flow is evicted, and cached bindings at that gate
   revalidate lazily (one DAG lookup, on the packet's own key, into the
   binding's own block) on next use, allocating nothing. *)
let test_aiu_wildcard_bump_lazy_revalidation () =
  let aiu = Aiu.create ~gates:2 () in
  let fw = Filter.v4 ~proto:Proto.udp () in
  Aiu.bind aiu ~gate:0 fw "v1";
  let keys = List.init 4 (fun i -> key ~sport:(100 + i) ()) in
  List.iter
    (fun k ->
      match Aiu.classify_key aiu k ~gate:0 ~now:0L with
      | Some (v, _) -> check string_t "v1" "v1" v
      | None -> Alcotest.fail "expected v1")
    keys;
  check int_t "flows cached" 4 (Flow_table.length (Aiu.flow_table aiu));
  let reval0 = counter_get "aiu.revalidations" in
  let bumps0 = counter_get "aiu.gate_bumps" in
  Aiu.bind aiu ~gate:0 fw "v2";
  check int_t "gate bumped, nothing evicted" 4
    (Flow_table.length (Aiu.flow_table aiu));
  check int_t "one gate bump" 1 (counter_get "aiu.gate_bumps" - bumps0);
  (* Touch two of the four flows: exactly two lazy revalidations. *)
  let ms = Array.of_list (List.map (fun k -> Mbuf.synth ~key:k ~len:64 ()) keys) in
  let before = Gc.minor_words () in
  let r0 = Aiu.classify aiu ms.(0) ~gate:0 ~now:1L in
  let r1 = Aiu.classify aiu ms.(1) ~gate:0 ~now:1L in
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "revalidation allocates nothing" 0. words;
  List.iter
    (fun r ->
      match Flow_table.binding r ~gate:0 with
      | Some b -> check string_t "v2 after bump" "v2" b.Flow_table.instance
      | None -> Alcotest.fail "expected v2")
    [ r0; r1 ];
  check int_t "revalidations proportional to touched flows" 2
    (counter_get "aiu.revalidations" - reval0)

let test_aiu_no_match () =
  let aiu = Aiu.create ~gates:2 () in
  Aiu.bind aiu ~gate:0 (Filter.v4 ~proto:Proto.tcp ()) "tcp-only";
  let m = Mbuf.synth ~key:(key ~proto:Proto.udp ()) ~len:64 () in
  check bool_t "no binding for udp" true (aiu_classify aiu m ~gate:0 ~now:0L = None);
  (* The flow record exists nonetheless (negative caching). *)
  check int_t "record cached" 1 (Flow_table.length (Aiu.flow_table aiu))

(* A per-gate cold start skips the walk of a gate table no filter was
   ever bound at and charges its 2 function-pointer accesses without
   it: the accesses of walking it, and the same verdicts.  A table
   emptied by unbinding is walked. *)
let test_aiu_skips_pristine_tables () =
  let k = key ~proto:Proto.tcp () in
  let walk t =
    snd (Rp_lpm.Access.measure (fun () -> ignore (Dag.lookup t k)))
  in
  let f = Filter.v4 ~proto:Proto.tcp () in
  let d = Dag.create () in
  check bool_t "a new table is pristine" true (Dag.pristine d);
  check int_t "its walk charges 2" 2 (walk d);
  Dag.insert d f 1;
  Dag.remove d f;
  check bool_t "an emptied one is not" false (Dag.pristine d);
  Dag.clear d;
  check bool_t "a cleared one is" true (Dag.pristine d);
  let aiu = Aiu.create ~gates:4 () in
  Aiu.bind aiu ~gate:1 f "tcp";
  Aiu.bind aiu ~gate:3 f "gone";
  Aiu.unbind aiu ~gate:3 f;
  let expected =
    List.fold_left
      (fun n g -> n + walk (Aiu.filter_table aiu ~gate:g))
      0 [ 0; 1; 2; 3 ]
  in
  let a0 = counter_get "aiu.miss_accesses" and l0 = counter_get "dag.lookups" in
  check bool_t "the bound gate's verdict" true
    (Option.map fst (Aiu.classify_key aiu k ~gate:1 ~now:0L) = Some "tcp");
  check int_t "cold-start accesses = the four walks" expected
    (counter_get "aiu.miss_accesses" - a0);
  check int_t "two tables walked" 2 (counter_get "dag.lookups" - l0);
  check bool_t "no verdict at the others" true
    (List.for_all
       (fun g -> Aiu.classify_key aiu k ~gate:g ~now:0L = None)
       [ 0; 2; 3 ])

let prop_aiu_cached_equals_uncached =
  qtest ~count:150 "aiu: cached result = uncached classification"
    QCheck2.Gen.(
      pair (list_size (int_range 1 15) gen_filter) (list_size (int_range 1 10) gen_key))
    (fun (filters, keys) ->
      let aiu = Aiu.create ~gates:1 () in
      let reference = Linear_ref.create () in
      List.iteri
        (fun i f ->
          Aiu.bind aiu ~gate:0 f i;
          Linear_ref.insert reference f i)
        filters;
      List.for_all
        (fun k ->
          (* Ask twice: the first answer comes from the filter tables,
             the second from the flow cache.  Both must agree with the
             reference modulo specificity ties. *)
          let first = Aiu.classify_key aiu k ~gate:0 ~now:0L in
          let second = Aiu.classify_key aiu k ~gate:0 ~now:1L in
          let expect = Linear_ref.classify reference k in
          match expect, first, second with
          | None, None, None -> true
          | Some (f, _), Some (v1, _), Some (v2, _) ->
            v1 = v2
            &&
            let f' = List.nth filters v1 in
            Filter.compare_specificity f f' = 0 && Filter.matches f' k
          | _, _, _ -> false)
        keys)

(* --- compiled cross-gate classifier ---------------------------------- *)

(* The same keys and filters, split over three gates, through the
   compiled structure: no words per lookup either. *)
let test_compiled_lookup_alloc () =
  let c = Compiled.create ~gates:3 () in
  List.iteri (fun i (f, v) -> Compiled.bind c ~gate:(i mod 3) f v) (alloc_filters ());
  Compiled.prepare c;
  let words = words_per_lookup (Compiled.lookup c) in
  check bool_t (Printf.sprintf "no words per lookup (%.3f)" words) true (words <= 0.02)

let test_compiled_basic () =
  let c = Compiled.create ~gates:2 () in
  let udp = Filter.v4 ~proto:Proto.udp () in
  let ten = Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") () in
  let udp_exact = Filter.v4 ~proto:Proto.udp ~dport:(Filter.Port 2000) () in
  Compiled.bind c ~gate:0 udp "udp0";
  Compiled.bind c ~gate:1 ten "ten1";
  Compiled.prepare c;
  let winner k g =
    match Compiled.lookup c k with
    | None -> None
    | Some w -> Option.map snd w.(g)
  in
  (* One traversal resolves both gates. *)
  check (Alcotest.option string_t) "gate 0" (Some "udp0") (winner (key ()) 0);
  check (Alcotest.option string_t) "gate 1" (Some "ten1") (winner (key ()) 1);
  check (Alcotest.option string_t) "gate 1 miss" None
    (winner (key ~src:"11.0.0.1" ()) 1);
  (* The most specific filter wins within its gate. *)
  Compiled.bind c ~gate:0 udp_exact "udp-exact";
  check (Alcotest.option string_t) "most specific wins" (Some "udp-exact")
    (winner (key ()) 0);
  Compiled.unbind c ~gate:0 udp_exact;
  check (Alcotest.option string_t) "fallback after unbind" (Some "udp0")
    (winner (key ()) 0);
  (* A v6 key never reaches v4 leaves, even all-wildcard ones. *)
  let k6 =
    Flow_key.make ~src:(Ipaddr.of_string "2001:db8::1")
      ~dst:(Ipaddr.of_string "2001:db8::2") ~proto:Proto.udp ~sport:1000
      ~dport:2000 ~iface:0
  in
  check bool_t "v6 key misses a v4-only structure" true
    (Compiled.lookup c k6 = None);
  Compiled.clear c;
  check bool_t "cleared" true (Compiled.lookup c (key ()) = None)

(* The compiled union must agree gate-by-gate with the per-gate DAGs it
   was compiled from — same winning filter, same instance — on random
   tables including removals.  The AIU maintains both representations
   on every bind/unbind, so comparing through it also checks that the
   dual bookkeeping never drifts. *)
let prop_compiled_matches_dags =
  qtest ~count:200 "compiled = per-gate DAGs (random tables, removals)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 20) (pair (int_bound 2) gen_filter))
        (list_size (int_range 0 8) (int_bound 19))
        (list_size (int_range 1 12) gen_key))
    (fun (binds, removals, keys) ->
      let aiu = Aiu.create ~gates:3 () in
      List.iteri (fun i (g, f) -> Aiu.bind aiu ~gate:g f i) binds;
      let arr = Array.of_list binds in
      List.iter
        (fun idx ->
          if idx < Array.length arr then begin
            let g, f = arr.(idx) in
            Aiu.unbind aiu ~gate:g f
          end)
        removals;
      let c = Aiu.compiled aiu in
      List.for_all
        (fun k ->
          let w = Compiled.lookup c k in
          List.for_all
            (fun g ->
              let expect = Dag.lookup (Aiu.filter_table aiu ~gate:g) k in
              let got =
                match w with None -> None | Some ws -> ws.(g)
              in
              match expect, got with
              | None, None -> true
              | Some (f1, v1), Some (f2, v2) ->
                Filter.equal f1 f2 && v1 = v2
              | _ -> false)
            [ 0; 1; 2 ])
        keys)

(* Mode equivalence through the full AIU data path: two AIUs with
   identical tables, one per-gate and one compiled, must return the
   same verdicts for every (key, gate) — before and after the same
   bind/unbind churn (flow-cache invalidation plus lazy compiled
   rebuilds on both sides). *)
let prop_compiled_mode_equals_pergate =
  qtest ~count:150 "aiu: compiled-mode verdicts = per-gate (with churn)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 15) (pair (int_bound 2) gen_filter))
        (list_size (int_range 0 10) (pair (int_bound 2) gen_filter))
        (list_size (int_range 1 10) gen_key))
    (fun (binds, churn, keys) ->
      let mk mode =
        let aiu = Aiu.create ~gates:3 () in
        Aiu.set_mode aiu mode;
        List.iteri (fun i (g, f) -> Aiu.bind aiu ~gate:g f i) binds;
        aiu
      in
      let a = mk `Per_gate and b = mk `Compiled in
      let agree now =
        List.for_all
          (fun k ->
            List.for_all
              (fun g ->
                match
                  ( Aiu.classify_key a k ~gate:g ~now,
                    Aiu.classify_key b k ~gate:g ~now )
                with
                | None, None -> true
                | Some (x, _), Some (y, _) -> x = y
                | _ -> false)
              [ 0; 1; 2 ])
          keys
      in
      let before = agree 0L in
      List.iteri
        (fun i (g, f) ->
          if i mod 2 = 0 then begin
            Aiu.bind a ~gate:g f (1000 + i);
            Aiu.bind b ~gate:g f (1000 + i)
          end
          else begin
            Aiu.unbind a ~gate:g f;
            Aiu.unbind b ~gate:g f
          end)
        churn;
      before && agree 1L)

(* v6 counterparts of the small generators above, under 2001:db8::/32,
   so that mixed-family tables put both families at every address
   level. *)
let gen_small_addr6 =
  QCheck2.Gen.map
    (fun (x, y) -> Ipaddr.v6 0x20010db8l (Int32.of_int x) 0l (Int32.of_int y))
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 3) (QCheck2.Gen.int_bound 3))

let gen_small_prefix6 =
  QCheck2.Gen.map
    (fun (a, len) -> Prefix.make a len)
    (QCheck2.Gen.pair gen_small_addr6
       (QCheck2.Gen.oneofl [ 0; 32; 64; 96; 127; 128 ]))

let gen_filter6 =
  QCheck2.Gen.map
    (fun ((src, dst, proto), (sport, dport, iface)) ->
      Filter.v6 ~src ~dst ?proto ~sport ~dport ?iface ())
    (QCheck2.Gen.pair
       (QCheck2.Gen.triple gen_small_prefix6 gen_small_prefix6 gen_proto)
       (QCheck2.Gen.triple gen_port_match gen_port_match gen_iface))

let gen_key6 =
  QCheck2.Gen.map
    (fun ((src, dst), (sport, dport)) ->
      Flow_key.make ~src ~dst ~proto:Proto.udp ~sport ~dport ~iface:0)
    (QCheck2.Gen.pair
       (QCheck2.Gen.pair gen_small_addr6 gen_small_addr6)
       (QCheck2.Gen.pair (QCheck2.Gen.int_bound 9) (QCheck2.Gen.int_bound 9)))

let compiled_winner c k g =
  match Compiled.lookup c k with None -> None | Some w -> w.(g)

let same_winner a b =
  match a, b with
  | None, None -> true
  | Some (f1, v1), Some (f2, v2) -> Filter.equal f1 f2 && v1 = v2
  | _ -> false

(* A compile reuses the previous compile's subtrees by key.  After any
   bind/unbind/clear history, compiled after most steps (a skipped
   [prepare] coalesces steps into one compile), the result must
   resolve every key exactly like a fresh structure compiled once
   from the same final bindings. *)
let prop_compiled_carried_memo_equals_fresh =
  qtest ~count:500 "carried memo = fresh build (bind/unbind/clear)"
    QCheck2.Gen.(
      triple
        (array_size (return 8) (frequency [ (2, gen_filter); (1, gen_filter6) ]))
        (list_size (int_range 1 30)
           (quad (int_bound 19) (int_bound 2) (int_bound 7) (int_bound 3)))
        (list_size (int_range 1 12) (frequency [ (2, gen_key); (1, gen_key6) ])))
    (fun (pool, ops, keys) ->
      let c = Compiled.create ~gates:3 () in
      (* The final bindings: (gate, filter, value), one per
         structurally distinct filter at a gate. *)
      let live = ref [] in
      let drop g f =
        List.filter (fun (h, f', _) -> not (h = g && Filter.equal f f')) !live
      in
      List.iteri
        (fun i (op, g, j, compile) ->
          let f = pool.(j) in
          if op < 11 then begin
            Compiled.bind c ~gate:g f i;
            live := (g, f, i) :: drop g f
          end
          else if op < 17 then begin
            Compiled.unbind c ~gate:g f;
            live := drop g f
          end
          else begin
            Compiled.clear c;
            live := []
          end;
          if compile > 0 then Compiled.prepare c)
        ops;
      let fresh = Compiled.create ~gates:3 () in
      List.iter (fun (g, f, v) -> Compiled.bind fresh ~gate:g f v) !live;
      List.for_all
        (fun k ->
          List.for_all
            (fun g ->
              same_winner (compiled_winner c k g) (compiled_winner fresh k g))
            [ 0; 1; 2 ])
        keys)

(* Random v4 filters in the shape of a bulk-loaded table: prefixes of
   /16 to /31 anywhere in unicast space, a protocol, and a port on
   three filters in ten. *)
let bulk_filters ~salt n =
  let rng = Random.State.make [| salt |] in
  let int = Random.State.int rng in
  List.init n (fun _ ->
      let proto = if Random.State.bool rng then Proto.tcp else Proto.udp in
      let a () = Ipaddr.v4 (1 + int 222) (int 256) (int 256) (int 256) in
      Filter.v4
        ~src:(Prefix.make (a ()) (16 + int 16))
        ~dst:(Prefix.make (a ()) (16 + int 16))
        ~proto
        ~dport:(if int 10 < 3 then Filter.Port (int 10) else Filter.Any_port)
        ())

(* A bind re-makes only the paths its filter reaches: after a compile
   of 3,000 bindings, binding one /24 constructs a handful of nodes,
   not the thousands of the first compile. *)
let test_compiled_rebuild_reuses () =
  let c = Compiled.create ~gates:3 () in
  List.iteri
    (fun g salt ->
      List.iteri (fun i f -> Compiled.bind c ~gate:g f i) (bulk_filters ~salt 1000))
    [ 4; 5; 6 ];
  Compiled.prepare c;
  let first = Compiled.node_count c in
  check bool_t (Printf.sprintf "first compile builds thousands (%d)" first) true
    (first >= 1000);
  let f24 = Filter.v4 ~src:(Prefix.of_string "10.0.3.0/24") () in
  Compiled.bind c ~gate:1 f24 (-1);
  Compiled.prepare c;
  let again = Compiled.node_count c in
  check bool_t (Printf.sprintf "a /24 bind constructs <= 64 nodes (%d)" again)
    true (again <= 64);
  check bool_t "the new binding resolves" true
    (match compiled_winner c (key ~src:"10.0.3.7" ()) 1 with
     | Some (f, v) -> Filter.equal f f24 && v = -1
     | None -> false);
  Compiled.unbind c ~gate:1 f24;
  check bool_t "and is gone after unbind" true
    (compiled_winner c (key ~src:"10.0.3.7" ()) 1 = None)

(* The sorted pass over an address level: a nested chain
   /0 ⊂ /8 ⊂ /16 ⊂ /24, a sibling /24 and a v6 prefix, at the source
   and then at the destination level.  Every key must resolve each
   gate exactly like that gate's DAG. *)
let test_compiled_address_partition () =
  List.iter
    (fun level ->
      let at p =
        let p = Prefix.of_string p in
        let mk = if Ipaddr.width p.Prefix.addr = 128 then Filter.v6 else Filter.v4 in
        if level = 0 then mk ~src:p () else mk ~dst:p ()
      in
      let gate0 =
        [ Filter.v4 (); at "10.0.0.0/8"; at "10.1.0.0/16"; at "10.1.2.0/24";
          at "10.1.3.0/24"; at "2001:db8::/32" ]
      and gate1 = [ at "10.0.0.0/8"; at "10.1.3.0/24"; Filter.v6 () ] in
      let c = Compiled.create ~gates:2 () in
      let dags = [| Dag.create (); Dag.create () |] in
      List.iteri
        (fun g fs ->
          List.iteri
            (fun i f ->
              Compiled.bind c ~gate:g f i;
              Dag.insert dags.(g) f i)
            fs)
        [ gate0; gate1 ];
      List.iter
        (fun a ->
          let a = Ipaddr.of_string a in
          let other =
            Ipaddr.of_string
              (if Ipaddr.width a = 128 then "2001:db8::99" else "192.0.2.1")
          in
          let src, dst = if level = 0 then (a, other) else (other, a) in
          let k =
            Flow_key.make ~src ~dst ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0
          in
          for g = 0 to 1 do
            check bool_t
              (Printf.sprintf "level %d, %s, gate %d" level
                 (Ipaddr.to_string a) g)
              true
              (same_winner (compiled_winner c k g) (Dag.lookup dags.(g) k))
          done)
        [ "10.1.2.5"; "10.1.3.5"; "10.1.9.9"; "10.9.9.9"; "11.0.0.1";
          "2001:db8::1"; "2001:db9::1" ])
    [ 0; 1 ]

let test_compiled_mode_strings () =
  check bool_t "pergate roundtrip" true
    (Aiu.mode_of_string (Aiu.mode_to_string `Per_gate) = Ok `Per_gate);
  check bool_t "compiled roundtrip" true
    (Aiu.mode_of_string (Aiu.mode_to_string `Compiled) = Ok `Compiled);
  check bool_t "unknown rejected" true
    (Result.is_error (Aiu.mode_of_string "quantum"))

let () =
  Alcotest.run "rp_classifier"
    [
      ( "filter",
        [
          Alcotest.test_case "matches" `Quick test_filter_matches;
          Alcotest.test_case "specificity" `Quick test_filter_specificity;
          Alcotest.test_case "parse" `Quick test_filter_parse;
          prop_filter_parse_roundtrip;
          prop_exact_of_key_matches;
        ] );
      ( "dag",
        [
          Alcotest.test_case "figure 4 walk" `Quick test_dag_figure4;
          Alcotest.test_case "remove and rebind" `Quick test_dag_remove_rebind;
          Alcotest.test_case "port ranges" `Quick test_dag_port_ranges;
          Alcotest.test_case "iface level" `Quick test_dag_iface_level;
          Alcotest.test_case "ipv6 filters" `Quick test_dag_v6;
          Alcotest.test_case "lookup allocation ceiling" `Quick
            test_dag_lookup_alloc;
          dag_matches_reference Rp_lpm.Engines.patricia;
          dag_matches_reference Rp_lpm.Engines.bspl;
          dag_matches_reference Rp_lpm.Engines.cpe;
          dag_matches_reference_after_removal;
          dag_matches_reference_interleaved_churn;
          Alcotest.test_case "optimize reduces accesses" `Quick
            test_dag_optimize_reduces_accesses;
          prop_dag_optimize_preserves_semantics;
        ] );
      ( "grid_of_tries",
        [
          Alcotest.test_case "basic 2D semantics" `Quick test_grid_of_tries_basic;
          prop_grid_of_tries_matches_reference;
          Alcotest.test_case "memory vs set pruning" `Quick
            test_grid_of_tries_memory;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "hit/miss" `Quick test_flow_table_hit_miss;
          Alcotest.test_case "fix generation" `Quick test_flow_table_fix;
          Alcotest.test_case "growth" `Quick test_flow_table_growth;
          Alcotest.test_case "recycling" `Quick test_flow_table_recycling;
          Alcotest.test_case "fifo bounded under churn" `Quick
            test_flow_table_fifo_bounded;
          Alcotest.test_case "eviction callback" `Quick test_flow_table_eviction_callback;
          Alcotest.test_case "expire" `Quick test_flow_table_expire;
          Alcotest.test_case "selective invalidate" `Quick
            test_flow_table_invalidate;
          Alcotest.test_case "export exactly once" `Quick
            test_flow_table_export_exactly_once;
          prop_flow_table_model;
          prop_wheel_model;
          prop_slot_list_model;
          Alcotest.test_case "steady state GC-silent" `Quick
            test_flow_table_gc_silent;
          Alcotest.test_case "export allocates nothing" `Quick
            test_flow_export_gc_silent;
          Alcotest.test_case "O(live) maintenance sweeps" `Quick
            test_flow_table_olive_maintenance;
          Alcotest.test_case "probe charges and chain_max" `Quick
            test_flow_table_probe_charges;
          prop_flow_table_equiv;
          prop_flow_table_words;
          prop_words_match_filters;
        ] );
      ( "aiu",
        [
          Alcotest.test_case "classify caches" `Quick test_aiu_classify_caches;
          Alcotest.test_case "rebind flushes" `Quick test_aiu_rebind_flushes;
          Alcotest.test_case "no match" `Quick test_aiu_no_match;
          Alcotest.test_case "selective invalidation" `Quick
            test_aiu_selective_invalidation;
          Alcotest.test_case "wildcard gate bump" `Quick
            test_aiu_wildcard_bump_lazy_revalidation;
          prop_aiu_cached_equals_uncached;
          Alcotest.test_case "pristine gate tables are not walked" `Quick
            test_aiu_skips_pristine_tables;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "basic winners" `Quick test_compiled_basic;
          Alcotest.test_case "mode strings" `Quick test_compiled_mode_strings;
          prop_compiled_matches_dags;
          prop_compiled_mode_equals_pergate;
          prop_compiled_carried_memo_equals_fresh;
          Alcotest.test_case "a rebuild reuses unchanged subtrees" `Quick
            test_compiled_rebuild_reuses;
          Alcotest.test_case "address partition = DAG" `Quick
            test_compiled_address_partition;
          Alcotest.test_case "lookup allocates nothing" `Quick
            test_compiled_lookup_alloc;
        ] );
    ]
