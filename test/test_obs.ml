(* Tests for rp_obs: counters (wraparound), histograms (bucketing),
   the registry (determinism, JSON validity), trace spans, and the
   integration of the data-path instrumentation with the oracle
   statistics the flow table and IP core keep themselves. *)

open Rp_pkt
open Rp_obs

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* --- Counter --------------------------------------------------------- *)

let test_counter_basics () =
  let c = Counter.make "t.basics" in
  check int_t "starts at zero" 0 (Counter.get c);
  Counter.inc c;
  Counter.inc c;
  Counter.add c 40;
  check int_t "inc + add" 42 (Counter.get c);
  check string_t "name" "t.basics" (Counter.name c);
  Counter.reset c;
  check int_t "reset" 0 (Counter.get c)

let test_counter_overflow () =
  (* Documented semantics: plain int arithmetic, so the counter wraps
     to [min_int] rather than raising or saturating. *)
  let c = Counter.make "t.overflow" in
  Counter.add c max_int;
  Counter.inc c;
  check bool_t "wraps to min_int" true (Counter.get c = min_int);
  Counter.inc c;
  check bool_t "keeps counting" true (Counter.get c = min_int + 1)

let test_counter_concurrent () =
  (* The sharded engine's requirement: increments from concurrent
     domains are never lost. *)
  let c = Counter.make "t.concurrent" in
  let per_domain = 100_000 in
  let bump () =
    for _ = 1 to per_domain do
      Counter.inc c
    done
  in
  let d1 = Domain.spawn bump and d2 = Domain.spawn bump in
  bump ();
  Domain.join d1;
  Domain.join d2;
  check int_t "no increment lost across 3 domains" (3 * per_domain)
    (Counter.get c)

(* The reset/read race fix: [swap] drains stripes with atomic
   exchanges, so increments racing with a concurrent reset are either
   returned by some swap or still in the counter — never lost. *)
let test_counter_swap_conserves =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:5
       ~name:"swap conserves increments racing with reset"
       QCheck2.Gen.(int_range 1_000 30_000)
       (fun per_domain ->
         let c = Counter.make "t.swap" in
         let stop = Atomic.make false in
         let swapped = Atomic.make 0 in
         let swapper =
           Domain.spawn (fun () ->
               while not (Atomic.get stop) do
                 let n = Counter.swap c in
                 ignore (Atomic.fetch_and_add swapped n)
               done)
         in
         let bump () =
           for _ = 1 to per_domain do
             Counter.inc c
           done
         in
         let d1 = Domain.spawn bump and d2 = Domain.spawn bump in
         bump ();
         Domain.join d1;
         Domain.join d2;
         Atomic.set stop true;
         Domain.join swapper;
         Atomic.get swapped + Counter.swap c = 3 * per_domain))

(* --- Histogram ------------------------------------------------------- *)

(* A pending tally moves nothing until it settles, and then leaves the
   histogram exactly as observing each value would; settling empties
   it, so a second settle adds nothing. *)
let test_histogram_pending () =
  let values = [ 5; 10; 11; 20; 30; 31; 1000; -3 ] in
  let direct = Histogram.make "t.direct" ~bounds:[| 10; 20; 30 |] in
  List.iter (Histogram.observe direct) values;
  let h = Histogram.make "t.pending" ~bounds:[| 10; 20; 30 |] in
  let p = Histogram.pending h in
  List.iter (Histogram.note p) values;
  check int_t "nothing lands before settle" 0 (Histogram.total h);
  Histogram.settle p;
  Histogram.settle p;
  check int_t "total" (Histogram.total direct) (Histogram.total h);
  check int_t "sum" (Histogram.sum direct) (Histogram.sum h);
  check bool_t "buckets" true (Histogram.counts direct = Histogram.counts h)

let test_histogram_bucketing () =
  let h = Histogram.make "t.hist" ~bounds:[| 10; 20; 30 |] in
  (* One value per region: <=10, <=20, <=30, and overflow. *)
  List.iter (Histogram.observe h) [ 5; 10; 11; 20; 30; 31; 1000 ];
  check int_t "total" 7 (Histogram.total h);
  check int_t "sum" (5 + 10 + 11 + 20 + 30 + 31 + 1000) (Histogram.sum h);
  let counts = Histogram.counts h in
  check int_t "bucket le=10" 2 counts.(0);
  check int_t "bucket le=20" 2 counts.(1);
  check int_t "bucket le=30" 1 counts.(2);
  check int_t "overflow bucket" 2 counts.(3);
  Histogram.reset h;
  check int_t "reset total" 0 (Histogram.total h);
  check int_t "reset sum" 0 (Histogram.sum h)

let float_t = Alcotest.float 1e-9

let test_histogram_quantile_uniform () =
  (* 1..100 over equal-width buckets: linear interpolation within the
     containing bucket recovers the exact percentile. *)
  let h = Histogram.make "t.q.uniform" ~bounds:[| 25; 50; 75; 100 |] in
  for v = 1 to 100 do
    Histogram.observe h v
  done;
  let q p = Histogram.quantile h p in
  check float_t "p50" 50.0 (q 0.50);
  check float_t "p90" 90.0 (q 0.90);
  check float_t "p99" 99.0 (q 0.99);
  check float_t "p0 is the first bucket's floor" 0.0 (q 0.0);
  check float_t "p100" 100.0 (q 1.0);
  check float_t "q clamped above 1" 100.0 (q 7.0);
  check float_t "q clamped below 0" 0.0 (q (-1.0))

let test_histogram_quantile_edges () =
  let h = Histogram.make "t.q.single" ~bounds:[| 100 |] in
  check float_t "empty histogram" 0.0 (Histogram.quantile h 0.5);
  for _ = 1 to 10 do
    Histogram.observe h 40
  done;
  check float_t "single bucket interpolates over [0, bound]" 50.0
    (Histogram.quantile h 0.5);
  let o = Histogram.make "t.q.over" ~bounds:[| 10 |] in
  for _ = 1 to 4 do
    Histogram.observe o 20
  done;
  check float_t "overflow bucket pins to the last finite bound" 10.0
    (Histogram.quantile o 0.5);
  (* Skewed distribution: quantile lands in the right bucket. *)
  let s = Histogram.make "t.q.skew" ~bounds:[| 10; 20; 40 |] in
  for _ = 1 to 90 do
    Histogram.observe s 5
  done;
  for _ = 1 to 10 do
    Histogram.observe s 30
  done;
  (* p50: target 50 of 90 in [0,10] -> 10 * 50/90. *)
  check float_t "p50 in the heavy bucket" (10.0 *. 50.0 /. 90.0)
    (Histogram.quantile s 0.50);
  (* p95: target 95, 5 of the 10 in (20,40] -> 20 + 20 * 5/10. *)
  check float_t "p95 in the tail bucket" 30.0 (Histogram.quantile s 0.95)

let test_histogram_quantile_degenerate () =
  (* A single observation: every quantile lands in its bucket, and the
     rank interpolates across that bucket's full value range. *)
  let h = Histogram.make "t.q.one" ~bounds:[| 25; 50; 75 |] in
  Histogram.observe h 40;
  check float_t "q0 of one obs is the bucket's lower edge" 25.0
    (Histogram.quantile h 0.0);
  check float_t "q0.5 of one obs is the bucket midpoint" 37.5
    (Histogram.quantile h 0.5);
  check float_t "q1 of one obs is the bucket's upper bound" 50.0
    (Histogram.quantile h 1.0);
  (* First bucket empty: q=0 reports the first non-empty bucket's
     lower edge, not 0. *)
  let g = Histogram.make "t.q.gap" ~bounds:[| 25; 50; 75 |] in
  for _ = 1 to 5 do
    Histogram.observe g 60
  done;
  check float_t "q0 skips empty leading buckets" 50.0
    (Histogram.quantile g 0.0);
  check float_t "q1 is the last non-empty finite bound" 75.0
    (Histogram.quantile g 1.0);
  (* All mass in overflow: every quantile (even 0) pins to the last
     finite bound — a conservative lower bound on the true value. *)
  let o = Histogram.make "t.q.allover" ~bounds:[| 10; 20 |] in
  for _ = 1 to 3 do
    Histogram.observe o 99
  done;
  check float_t "q0 with overflow-only mass" 20.0 (Histogram.quantile o 0.0);
  check float_t "q1 with overflow-only mass" 20.0 (Histogram.quantile o 1.0);
  (* Empty histogram: every quantile is 0 regardless of q. *)
  let e = Histogram.make "t.q.empty2" ~bounds:[| 10 |] in
  check float_t "empty at q0" 0.0 (Histogram.quantile e 0.0);
  check float_t "empty at q1" 0.0 (Histogram.quantile e 1.0)

let test_histogram_bad_bounds () =
  let raises bounds =
    match Histogram.make "t.bad" ~bounds with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check bool_t "empty bounds" true (raises [||]);
  check bool_t "non-increasing" true (raises [| 10; 10 |]);
  check bool_t "decreasing" true (raises [| 20; 10 |])

(* --- Registry -------------------------------------------------------- *)

let test_registry_get_or_create () =
  let a = Registry.counter "t.reg.same" in
  let b = Registry.counter "t.reg.same" in
  check bool_t "same counter object" true (a == b);
  Counter.inc a;
  check int_t "shared state" 1 (Counter.get b);
  (match Registry.histogram "t.reg.same" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind mismatch should raise");
  Registry.remove "t.reg.same"

let test_registry_gauge_replace () =
  Registry.gauge "t.reg.g" (fun () -> 1.0);
  Registry.gauge "t.reg.g" (fun () -> 2.0);
  (match Registry.find "t.reg.g" with
   | Some (Registry.Gauge g) ->
     check bool_t "latest registration wins" true (Gauge.read g = 2.0)
   | _ -> Alcotest.fail "gauge not found");
  Registry.remove "t.reg.g"

let test_registry_dump_deterministic () =
  (* Register in shuffled order: dumps sort by name, so two snapshots
     of equal state are byte-equal regardless of insertion order. *)
  List.iter
    (fun n -> Counter.add (Registry.counter ("t.det." ^ n)) 7)
    [ "zeta"; "alpha"; "mid" ];
  Registry.set "t.det.gauge" 1.5;
  let d1 = Registry.dump ~pattern:"t.det." () in
  let d2 = Registry.dump ~pattern:"t.det." () in
  check string_t "byte-equal dumps" d1 d2;
  check string_t "sorted, one per line"
    "t.det.alpha 7\nt.det.gauge 1.5\nt.det.mid 7\nt.det.zeta 7\n" d1;
  let j1 = Registry.dump_json ~pattern:"t.det." () in
  let j2 = Registry.dump_json ~pattern:"t.det." () in
  check string_t "byte-equal JSON" j1 j2;
  List.iter Registry.remove (Registry.names ~pattern:"t.det." ())

let test_registry_reset () =
  let c = Registry.counter "t.rst.c" in
  let h = Registry.histogram "t.rst.h" in
  Counter.add c 5;
  Histogram.observe h 123;
  Registry.set "t.rst.g" 9.0;
  Registry.reset ();
  check int_t "counter cleared" 0 (Counter.get c);
  check int_t "histogram cleared" 0 (Histogram.total h);
  (match Registry.find "t.rst.g" with
   | Some (Registry.Gauge g) ->
     check bool_t "gauge untouched" true (Gauge.read g = 9.0)
   | _ -> Alcotest.fail "gauge lost");
  List.iter Registry.remove [ "t.rst.c"; "t.rst.h"; "t.rst.g" ]

(* A minimal JSON syntax checker, enough to validate the emitters'
   output without an external parser: objects, arrays, strings, and
   numbers. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t')
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else failwith "unexpected char"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> failwith "bad value"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elems ()
        | Some ']' -> incr pos
        | _ -> failwith "bad array"
      in
      elems ()
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let rec members () =
        skip_ws ();
        string ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ()
        | Some '}' -> incr pos
        | _ -> failwith "bad object"
      in
      members ()
    end
  and string () =
    expect '"';
    while peek () <> Some '"' && !pos < n do
      incr pos
    done;
    expect '"'
  and number () =
    if peek () = Some '-' then incr pos;
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '.' | 'e' | '-' | '+' -> true
          | _ -> false)
    do
      incr pos
    done;
    if !pos = start then failwith "bad number"
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | b -> b
  | exception Failure _ -> false

let test_registry_json_valid () =
  (* The full registry, data-path metrics and all. *)
  check bool_t "syntax checker accepts emitter output" true
    (json_valid (Registry.dump_json ()));
  check bool_t "filtered dump also valid" true
    (json_valid (Registry.dump_json ~pattern:"flow_table" ()));
  (* Sanity: the checker itself rejects garbage. *)
  check bool_t "checker rejects garbage" false (json_valid "{\"a\": }")

(* --- Telemetry (event rings) ----------------------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let test_telemetry_sampling () =
  Telemetry.enable ~every:3;
  check bool_t "on" true (Telemetry.on ());
  check int_t "period" 3 (Telemetry.sample_every ());
  let ids = List.init 9 (fun _ -> Telemetry.sample ()) in
  let sampled = List.filter (fun i -> i <> 0) ids in
  check int_t "1-in-3 samples 3 of 9" 3 (List.length sampled);
  check bool_t "ids positive and distinct" true
    (List.for_all (fun i -> i > 0) sampled
    && List.sort_uniq compare sampled = List.sort compare sampled);
  Telemetry.disable ();
  check bool_t "off" false (Telemetry.on ());
  check int_t "off samples nothing" 0 (Telemetry.sample ())

let test_telemetry_ring_overwrite () =
  Telemetry.set_capacity 4;
  Telemetry.enable ~every:1;
  for i = 1 to 6 do
    Telemetry.record ~ts:(100 + i) ~kind:Telemetry.Classify ~gate:0 ~pkt:i
      ~arg:0
  done;
  let evs = Telemetry.events () in
  check int_t "capacity bounds the ring" 4 (List.length evs);
  check bool_t "overwrite-oldest keeps the newest, in order" true
    (List.map (fun e -> e.Telemetry.pkt) evs = [ 3; 4; 5; 6 ]);
  check int_t "recorded counts everything" 6 (Telemetry.recorded ());
  check int_t "overwritten counted" 2 (Telemetry.overwritten ());
  Telemetry.disable ();
  Telemetry.set_capacity 4096

let test_telemetry_chrome_json () =
  Telemetry.enable ~every:1;
  check bool_t "empty dump is valid JSON" true
    (json_valid (Telemetry.to_chrome_json ()));
  let pkt = Telemetry.sample () in
  Telemetry.record ~ts:100 ~kind:Telemetry.Pkt_start ~gate:(-1) ~pkt ~arg:64;
  Telemetry.record ~ts:110 ~kind:Telemetry.Gate_enter ~gate:2 ~pkt ~arg:0;
  Telemetry.record ~ts:150 ~kind:Telemetry.Classify ~gate:2 ~pkt ~arg:7;
  Telemetry.record ~ts:180 ~kind:Telemetry.Gate_exit ~gate:2 ~pkt ~arg:7;
  Telemetry.record ~ts:300 ~kind:Telemetry.Pkt_end ~gate:(-1) ~pkt ~arg:0;
  let json = Telemetry.to_chrome_json ~gate_name:(fun _ -> "firewall") () in
  Telemetry.disable ();
  check bool_t "dump is valid JSON" true (json_valid json);
  check bool_t "has a traceEvents array" true
    (contains ~needle:"\"traceEvents\":[" json);
  check bool_t "gate span is a complete event" true
    (contains ~needle:"\"name\":\"gate.firewall\",\"cat\":\"gate\",\"ph\":\"X\""
       json);
  check bool_t "packet span is a complete event" true
    (contains ~needle:"\"name\":\"packet\",\"cat\":\"packet\",\"ph\":\"X\"" json);
  check bool_t "classify is an instant event" true
    (contains ~needle:"\"name\":\"classify\",\"cat\":\"classify\",\"ph\":\"i\""
       json);
  Telemetry.clear ()

(* --- Flow_export (NetFlow-style export ring) --------------------------- *)

let mk_flow_rec ?(packets = 5) ?(bytes = 500) i =
  {
    Rp_core.Flow_export.src = Printf.sprintf "10.0.0.%d" i;
    dst = "192.168.1.1";
    proto = 17;
    sport = 1000 + i;
    dport = 53;
    iface = 0;
    packets;
    bytes;
    forwarded = packets;
    dropped = 0;
    absorbed = 0;
    created_ns = 0L;
    last_ns = 1_000_000L;
    bindings = [ ("firewall", 1) ];
    reason = "expired";
    translated = None;
  }

(* --- Flow export ring --------------------------------------------------

   Every reason a flow leaves a table, and both session reaps, on
   random v4/v6 tuples with bindings at random gates and NAT'd or
   plain sessions: each drained record equals [record_of] taken just
   before the eviction, and equals the record built from the
   generated flow itself.  A padding run of recycled flows first puts
   up to 4,200 rows ahead of them, so the ring overwrites its oldest
   rows: the drained ring must be the newest 4,096 rows in emit order,
   with one [ring_overwrites] per row lost. *)

module Fx = Rp_core.Flow_export
module Ft = Rp_classifier.Flow_table
module Gate = Rp_core.Gate
module Session = Rp_session.Session

let flow_reasons =
  [| "recycled"; "replaced"; "removed"; "expired"; "flushed"; "invalidated" |]

type export_case = {
  fam6 : bool;
  words : int array; (* 8 random 32-bit words: src then dst *)
  proto : int;
  sport : int;
  dport : int;
  iface : int;
  gates : int list; (* (gate, instance id) pairs, gate = index *)
  ids : int list;
  nat : bool;
  verdicts : int * int * int; (* forwarded, dropped, absorbed *)
  len : int;
  created : int;
  idle : int;
  kind : int; (* 0-5: a flow_reasons entry; 6-7: a session reap *)
}

let gen_export_case =
  let open QCheck2.Gen in
  let* fam6 = bool in
  let* words = array_size (return 8) (int_range 0 0xFFFF_FFFF) in
  let* proto = oneofl [ 6; 17; 1 ] in
  let* sport = int_range 0 65535 in
  let* dport = int_range 0 65535 in
  let* iface = int_bound 7 in
  let* gates = list_size (int_bound 4) (int_bound (Gate.count - 1)) in
  let* ids = list_repeat (List.length gates) (int_range 1 100_000) in
  let* nat = bool in
  let* verdicts = triple (int_range 1 5) (int_bound 3) (int_bound 3) in
  let* len = int_range 40 1500 in
  let* created = int_range 0 1_000_000_000 in
  let* idle = int_bound 1_000_000_000 in
  let+ kind = int_bound 7 in
  { fam6; words; proto; sport; dport; iface; gates; ids; nat; verdicts; len;
    created; idle; kind }

let case_key c =
  let addr o =
    if c.fam6 then
      Ipaddr.v6
        (Int32.of_int c.words.(o))
        (Int32.of_int c.words.(o + 1))
        (Int32.of_int c.words.(o + 2))
        (Int32.of_int c.words.(o + 3))
    else Ipaddr.v4_of_int32 (Int32.of_int c.words.(o))
  in
  Flow_key.make ~src:(addr 0) ~dst:(addr 4) ~proto:c.proto ~sport:c.sport
    ~dport:c.dport ~iface:c.iface

let instance id =
  Rp_core.Plugin.simple ~instance_id:id ~code:0 ~plugin_name:"export-test"
    ~gate:Gate.Firewall (fun _ _ -> Rp_core.Plugin.Continue)

(* Session tables: NAT'd (v4 and v6 SNAT rules) and plain, for the
   flows' soft state and for the reaped sessions. *)
let nat_table name =
  let t = Session.Table.create name in
  List.iter
    (fun (filter, addr) ->
      Session.Table.add_rule t
        { Session.Table.kind = `Snat; filter; addr; port = Some 40000;
          tos = None })
    [
      (Rp_classifier.Filter.v4 (), Ipaddr.v4 198 51 100 7);
      (Rp_classifier.Filter.v6 (), Ipaddr.of_string "2001:db8:ffff::7");
    ];
  t

let soft_nat = lazy (nat_table "export-soft-nat")
let soft_plain = lazy (Session.Table.create "export-soft-plain")
let reap_nat = lazy (nat_table "export-reap-nat")
let reap_plain = lazy (Session.Table.create "export-reap-plain")

let session_of c ~soft =
  let t =
    Lazy.force
      (match soft, c.nat with
       | true, true -> soft_nat
       | true, false -> soft_plain
       | false, true -> reap_nat
       | false, false -> reap_plain)
  in
  let s, dir =
    Option.get
      (Session.Table.resolve t (case_key c) ~now:(Int64.of_int c.created)
         ~tcp_flags:0)
  in
  (t, s, dir)

let xlate_of (s : Session.t) =
  if Session.nat s then
    Some
      {
        Rp_core.Flow_export.xsrc = Session.xlat_src s;
        xdst = Session.xlat_dst s;
        xsport = Session.xlat_sport s;
        xdport = Session.xlat_dport s;
      }
  else None

(* The record the generated case describes, built without the ring. *)
let expected_record c ~reason ~bindings ~translated =
  let k = case_key c in
  let fwd, drop, absorb = c.verdicts in
  let packets = fwd + drop + absorb in
  {
    Rp_core.Flow_export.src = Ipaddr.to_string k.Flow_key.src;
    dst = Ipaddr.to_string k.Flow_key.dst;
    proto = c.proto;
    sport = c.sport;
    dport = c.dport;
    iface = c.iface;
    packets;
    bytes = packets * c.len;
    forwarded = fwd;
    dropped = drop;
    absorbed = absorb;
    created_ns = Int64.of_int c.created;
    last_ns = Int64.of_int (c.created + c.idle);
    bindings;
    reason;
    translated;
  }

(* Bindings by gate; a later pair at the same gate replaces the
   earlier, as [set_binding] does. *)
let case_bindings c =
  let tbl = Array.make Gate.count None in
  List.iter2 (fun g id -> tbl.(g) <- Some id) c.gates c.ids;
  if c.nat && tbl.(Gate.to_int Gate.Security_in) = None then
    tbl.(Gate.to_int Gate.Security_in) <- Some 1;
  List.concat
    (List.init Gate.count (fun g ->
         match tbl.(g) with
         | Some id -> [ (g, id) ]
         | None -> []))

(* Put the case's flow into [ft] (capacity one), evict it for its
   reason, and return what the ring must hold for it. *)
let export_flow_case ft c =
  let reason = flow_reasons.(c.kind) in
  let k = case_key c in
  let r = Ft.insert ft k ~now:(Int64.of_int c.created) in
  let bindings = case_bindings c in
  List.iter
    (fun (g, id) ->
      Ft.set_binding ft r ~gate:g ~filter:(Rp_classifier.Filter.exact_of_key k)
        (instance id))
    bindings;
  let translated =
    if c.nat then begin
      let _, s, dir = session_of c ~soft:true in
      (Option.get (Ft.binding r ~gate:(Gate.to_int Gate.Security_in)))
        .Ft.soft <- Some (Session.cached s dir);
      xlate_of s
    end
    else None
  in
  let m = Mbuf.synth ~key:k ~len:c.len () in
  m.Mbuf.fix <- Ft.fix_of_record r;
  let fwd, drop, absorb = c.verdicts in
  List.iter
    (fun (n, verdict) ->
      for _ = 1 to n do
        Ft.account ft m ~verdict
      done)
    [ (fwd, `Fwd); (drop, `Drop); (absorb, `Absorb) ];
  let last = Int64.of_int (c.created + c.idle) in
  ignore (Ft.lookup ft k ~now:last);
  let before = Fx.record_of ~reason r in
  (match reason with
   | "recycled" ->
     (* No case has protocol 255, so this is another flow. *)
     ignore (Ft.insert ft { k with Flow_key.proto = 255 } ~now:last)
   | "replaced" -> ignore (Ft.insert ft k ~now:last)
   | "removed" -> Ft.remove ft r
   | "expired" ->
     ignore (Ft.expire ft ~now:(Int64.add last 1L) ~idle_ns:0L)
   | "flushed" -> Ft.flush ft
   | _ -> ignore (Ft.invalidate ft (Rp_classifier.Filter.exact_of_key k)));
  let bindings =
    List.map
      (fun (g, id) -> (Gate.name (Option.get (Gate.of_int g)), id))
      bindings
  in
  (before, expected_record c ~reason ~bindings ~translated)

(* Open a session for the case, carry its packets and reap it. *)
let export_session_case c =
  let t, s, dir = session_of c ~soft:false in
  let fwd, drop, absorb = c.verdicts in
  for _ = 1 to fwd + drop + absorb do
    Session.touch s ~now:(Int64.of_int (c.created + c.idle)) ~dir ~len:c.len
  done;
  let reason, n =
    if c.kind = 6 then
      ("session-expired", Session.Table.expire t ~now:Int64.max_int)
    else ("session-flushed", Session.Table.flush t)
  in
  assert (n = 1);
  let packets = fwd + drop + absorb in
  let expected =
    {
      (expected_record c ~reason ~bindings:[ ("session", Session.id s) ]
         ~translated:(xlate_of s))
      with
      forwarded = packets;
      dropped = 0;
      absorbed = 0;
    }
  in
  (expected, expected)

let prop_export_ring =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"export ring"
       QCheck2.Gen.(
         pair
           (oneof [ int_bound 40; int_range 4_050 4_200 ])
           (list_size (int_range 1 12) gen_export_case))
       (fun (pad, cases) ->
         let new_aiu () =
           let aiu =
             Rp_classifier.Aiu.create ~max_records:1 ~gates:Gate.count ()
           in
           Fx.install aiu;
           Rp_classifier.Aiu.flow_table aiu
         in
         let records0 = Counter.get (Registry.counter "telemetry.flow.records") in
         let over0 =
           Counter.get (Registry.counter "telemetry.flow.ring_overwrites")
         in
         Fx.clear ();
         (* Padding: each insert recycles the previous flow, so the rows
            are written in sport order. *)
         let pad_ft = new_aiu () in
         for i = 0 to pad - 1 do
           let k =
             Flow_key.make ~src:(Ipaddr.v4 10 9 0 1) ~dst:(Ipaddr.v4 10 9 0 2)
               ~proto:17 ~sport:i ~dport:9 ~iface:0
           in
           let r = Ft.insert pad_ft k ~now:0L in
           let m = Mbuf.synth ~key:k ~len:64 () in
           m.Mbuf.fix <- Ft.fix_of_record r;
           Ft.account pad_ft m ~verdict:`Fwd
         done;
         Ft.flush pad_ft;
         let ft = new_aiu () in
         let wanted =
           List.map
             (fun c ->
               if c.kind < Array.length flow_reasons then export_flow_case ft c
               else export_session_case c)
             cases
         in
         let got = Fx.drain () in
         let total = pad + List.length cases in
         let kept = min total Fx.capacity in
         let pads, tail =
           List.partition (fun (r : Rp_core.Flow_export.record) -> r.dst = "10.9.0.2") got
         in
         let ok_tail =
           List.length tail = List.length cases
           && List.for_all2
                (fun r (before, expected) -> r = before && r = expected)
                tail wanted
         in
         let ok_pads =
           List.map (fun (r : Rp_core.Flow_export.record) -> r.sport) pads
           = List.init (kept - List.length cases) (fun i ->
                 pad - (kept - List.length cases) + i)
         in
         List.length got = kept
         && ok_tail && ok_pads
         && Counter.get (Registry.counter "telemetry.flow.records") - records0
            = total
         && Counter.get (Registry.counter "telemetry.flow.ring_overwrites")
            - over0
            = total - kept
         && Fx.peek () = []))

let test_flowlog_json () =
  let r = mk_flow_rec 1 in
  check bool_t "JSON line is valid" true (json_valid (Rp_core.Flow_export.to_json_line r));
  check bool_t "JSON line carries the 5-tuple and bindings" true
    (contains ~needle:"\"src\":\"10.0.0.1\"" (Rp_core.Flow_export.to_json_line r)
    && contains ~needle:"{\"gate\":\"firewall\",\"instance\":1}"
         (Rp_core.Flow_export.to_json_line r));
  check string_t "display key" "10.0.0.1:1001 -> 192.168.1.1:53 proto=17 if=0"
    (Rp_core.Flow_export.key_string r);
  check bool_t "duration" true (Rp_core.Flow_export.duration_ns r = 1_000_000L)

(* --- Registry schema -------------------------------------------------- *)

let test_schema_version () =
  check int_t "schema_version is 4" 4 Registry.schema_version;
  let j = Registry.dump_json () in
  check bool_t "schema string in step" true
    (contains ~needle:"\"schema\": \"rp-metrics/4\"" j);
  check bool_t "schema_version field present" true
    (contains ~needle:"\"schema_version\": 4" j);
  (* v2 added quantiles to histogram objects; v3 adds the p999 tail
     (the SLO latency histograms are always registered). *)
  check bool_t "histograms carry p50/p90/p99" true
    (contains ~needle:"\"p99\":" j);
  check bool_t "histograms carry p999" true (contains ~needle:"\"p999\":" j)

(* --- Integration: flow records reconcile with gate counters ----------- *)

let test_flow_records_reconcile () =
  let open Rp_core in
  Flow_export.clear ();
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~mode:Router.Plugins ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let acc_p0 = Counter.get (Registry.counter "flow_table.accounted_packets") in
  let acc_b0 = Counter.get (Registry.counter "flow_table.accounted_bytes") in
  let d0 = Counter.get (Gate.dispatch Gate.Ip_options) in
  let key i =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 i) ~dst:(Ipaddr.v4 192 168 1 1)
      ~proto:Proto.udp ~sport:(1000 + i) ~dport:9000 ~iface:0
  in
  for i = 1 to 3 do
    for _ = 1 to 20 do
      match Ip_core.process r ~now:0L (Mbuf.synth ~key:(key i) ~len:200 ()) with
      | Ip_core.Enqueued out ->
        ignore (Iface.dequeue (Router.iface r out) ~now:0L)
      | v ->
        Alcotest.failf "unexpected verdict: %s"
          (Format.asprintf "%a" Ip_core.pp_verdict v)
    done
  done;
  (* Evict everything through the exporter. *)
  Rp_classifier.Aiu.flush_flows (Router.aiu r);
  let records = Flow_export.drain () in
  check int_t "one record per flow" 3 (List.length records);
  let pkts =
    List.fold_left (fun a fr -> a + fr.Rp_core.Flow_export.packets) 0 records
  in
  let bytes = List.fold_left (fun a fr -> a + fr.Rp_core.Flow_export.bytes) 0 records in
  check int_t "record packets = packets processed" 60 pkts;
  check int_t "record bytes = bytes processed" (60 * 200) bytes;
  check int_t "record packets = accounting counter" pkts
    (Counter.get (Registry.counter "flow_table.accounted_packets") - acc_p0);
  check int_t "record bytes = accounting counter" bytes
    (Counter.get (Registry.counter "flow_table.accounted_bytes") - acc_b0);
  check int_t "record packets = ip-options dispatches" pkts
    (Counter.get (Gate.dispatch Gate.Ip_options) - d0);
  check bool_t "records carry the flush reason" true
    (List.for_all (fun fr -> fr.Rp_core.Flow_export.reason = "flushed") records)

(* --- Integration: flow-table counters vs oracle stats ---------------- *)

let mk_key i =
  Flow_key.make
    ~src:(Ipaddr.v4 10 0 (i lsr 8) (i land 0xFF))
    ~dst:(Ipaddr.v4 10 1 0 1) ~proto:Proto.udp ~sport:(1000 + i) ~dport:53
    ~iface:0

let test_flow_table_counters_match_oracle () =
  let module Ft = Rp_classifier.Flow_table in
  let snap () =
    List.map
      (fun n -> Counter.get (Registry.counter ("flow_table." ^ n)))
      [ "lookups"; "hits"; "misses"; "inserts"; "recycled" ]
  in
  let before = snap () in
  (* Same shape as the classifier oracle tests: misses, inserts, hits,
     and a recycle once the fixed-size table is full. *)
  let t = Ft.create ~buckets:16 ~initial_records:4 ~max_records:4 ~gates:1 () in
  for i = 0 to 4 do
    ignore (Ft.lookup t (mk_key i) ~now:(Int64.of_int i));
    ignore (Ft.insert t (mk_key i) ~now:(Int64.of_int i))
  done;
  for i = 1 to 4 do
    ignore (Ft.lookup t (mk_key i) ~now:10L)
  done;
  let s = Ft.stats t in
  let deltas = List.map2 (fun a b -> a - b) (snap ()) before in
  check int_t "oracle lookups" s.Ft.lookups (List.nth deltas 0);
  check int_t "oracle hits" s.Ft.hits (List.nth deltas 1);
  check int_t "oracle misses" s.Ft.misses (List.nth deltas 2);
  check int_t "inserts" 5 (List.nth deltas 3);
  check int_t "oracle recycled" s.Ft.recycled (List.nth deltas 4);
  check int_t "recycled once" 1 s.Ft.recycled

(* --- Integration: gate dispatch counters over the data path ---------- *)

let test_gate_dispatch_counters () =
  let open Rp_core in
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~mode:Router.Plugins ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
      ~proto:Proto.udp ~sport:1 ~dport:9 ~iface:0
  in
  let d_before = Counter.get (Gate.dispatch Gate.Firewall) in
  let p_before = Counter.get (Registry.counter "ip_core.packets") in
  let f_before = Counter.get (Registry.counter "ip_core.forwarded") in
  for _ = 1 to 10 do
    match Ip_core.process r ~now:0L (Mbuf.synth ~key ~len:100 ()) with
    | Ip_core.Enqueued out -> ignore (Iface.dequeue (Router.iface r out) ~now:0L)
    | v -> Alcotest.failf "unexpected verdict: %s" (Format.asprintf "%a" Ip_core.pp_verdict v)
  done;
  check int_t "one firewall dispatch per packet" 10
    (Counter.get (Gate.dispatch Gate.Firewall) - d_before);
  check int_t "ip_core.packets" 10
    (Counter.get (Registry.counter "ip_core.packets") - p_before);
  check int_t "ip_core.forwarded" 10
    (Counter.get (Registry.counter "ip_core.forwarded") - f_before)

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "overflow wraps" `Quick test_counter_overflow;
          Alcotest.test_case "concurrent domains" `Quick
            test_counter_concurrent;
          test_counter_swap_conserves;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "quantile: uniform distribution" `Quick
            test_histogram_quantile_uniform;
          Alcotest.test_case "quantile: edge cases" `Quick
            test_histogram_quantile_edges;
          Alcotest.test_case "quantile: degenerate shapes" `Quick
            test_histogram_quantile_degenerate;
          Alcotest.test_case "bad bounds" `Quick test_histogram_bad_bounds;
          Alcotest.test_case "pending settles = observe" `Quick
            test_histogram_pending;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get-or-create" `Quick test_registry_get_or_create;
          Alcotest.test_case "gauge replace" `Quick test_registry_gauge_replace;
          Alcotest.test_case "deterministic dump" `Quick
            test_registry_dump_deterministic;
          Alcotest.test_case "reset" `Quick test_registry_reset;
          Alcotest.test_case "json validity" `Quick test_registry_json_valid;
          Alcotest.test_case "schema version" `Quick test_schema_version;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "sampling gate" `Quick test_telemetry_sampling;
          Alcotest.test_case "ring overwrite" `Quick
            test_telemetry_ring_overwrite;
          Alcotest.test_case "chrome trace json" `Quick
            test_telemetry_chrome_json;
        ] );
      ( "flowlog",
        [
          prop_export_ring;
          Alcotest.test_case "json lines" `Quick test_flowlog_json;
        ] );
      ( "integration",
        [
          Alcotest.test_case "flow records reconcile" `Quick
            test_flow_records_reconcile;
          Alcotest.test_case "flow-table counters vs oracle" `Quick
            test_flow_table_counters_match_oracle;
          Alcotest.test_case "gate dispatch counters" `Quick
            test_gate_dispatch_counters;
        ] );
    ]
