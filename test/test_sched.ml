(* Tests for the scheduling plugins: DRR fairness and weighting,
   service curves, H-FSC link sharing and delay decoupling, RED, the
   token-bucket policer, and FIFO. *)

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

let key id =
  Flow_key.make ~src:(Ipaddr.v4 10 0 0 id) ~dst:(Ipaddr.v4 192 168 1 1)
    ~proto:Proto.udp ~sport:(1000 + id) ~dport:9000 ~iface:0

let pkt ?(len = 1000) id seq =
  let m = Mbuf.synth ~key:(key id) ~len () in
  m.Mbuf.seq <- seq;
  m

let scheduler_of (inst : Plugin.t) =
  match inst.Plugin.scheduler with
  | Some s -> s
  | None -> Alcotest.fail "instance has no scheduler"

(* A dequeue as an option: [None] for the scheduler's [Mbuf.dummy]. *)
let deq s ~now =
  let m = s.Plugin.dequeue ~now in
  if m == Mbuf.dummy then None else Some m

let mk_instance (module P : Plugin.PLUGIN) config =
  ok (P.create_instance ~instance_id:1 ~code:0 ~config)

(* Drain [n] packets, returning the per-flow-id counts (flows are
   identified by the source's last octet). *)
let drain s n =
  let counts = Hashtbl.create 8 in
  for _ = 1 to n do
    match deq s ~now:0L with
    | Some m ->
      let id =
        match m.Mbuf.key.Flow_key.src with
        | Ipaddr.V4 x -> Int32.to_int (Int32.logand x 0xFFl)
        | Ipaddr.V6 _ -> -1
      in
      Hashtbl.replace counts id (1 + Option.value (Hashtbl.find_opt counts id) ~default:0)
    | None -> ()
  done;
  counts

let count counts id = Option.value (Hashtbl.find_opt counts id) ~default:0

(* --- FIFO ------------------------------------------------------------- *)

let test_fifo_order_and_limit () =
  let inst = mk_instance (module Rp_sched.Fifo_plugin) [ ("limit", "3") ] in
  let s = scheduler_of inst in
  for i = 0 to 2 do
    match s.Plugin.enqueue ~now:0L (pkt 1 i) None with
    | Plugin.Enqueued -> ()
    | Plugin.Rejected _ -> Alcotest.fail "premature reject"
  done;
  (match s.Plugin.enqueue ~now:0L (pkt 1 3) None with
   | Plugin.Rejected _ -> ()
   | Plugin.Enqueued -> Alcotest.fail "limit not enforced");
  check int_t "backlog" 3 (s.Plugin.backlog ());
  let seqs =
    List.init 3 (fun _ ->
        match deq s ~now:0L with
        | Some m -> m.Mbuf.seq
        | None -> -1)
  in
  check bool_t "FIFO order" true (seqs = [ 0; 1; 2 ]);
  check bool_t "empty" true (deq s ~now:0L = None)

(* --- DRR --------------------------------------------------------------- *)

(* Without bindings the DRR classifies internally (monolithic mode),
   which is convenient for unit testing the scheduling logic. *)
let test_drr_equal_fairness () =
  let inst = mk_instance (module Rp_sched.Drr_plugin) [ ("quantum", "500") ] in
  let s = scheduler_of inst in
  (* Three flows, 30 equal packets each. *)
  for seq = 0 to 29 do
    for id = 1 to 3 do
      ignore (s.Plugin.enqueue ~now:0L (pkt id seq) None)
    done
  done;
  let counts = drain s 30 in
  (* After 30 served packets, each flow must have gotten 10 ± 1. *)
  for id = 1 to 3 do
    let c = count counts id in
    check bool_t (Printf.sprintf "flow %d fair share (got %d)" id c) true
      (c >= 9 && c <= 11)
  done

let test_drr_weighted_shares () =
  let inst = mk_instance (module Rp_sched.Drr_plugin) [ ("quantum", "1000") ] in
  let s = scheduler_of inst in
  (* Flow 1 reserved at 3x the rate of flow 2. *)
  ok (Rp_sched.Drr_plugin.reserve ~instance_id:1 ~key:(key 1) ~rate_bps:3_000_000);
  ok (Rp_sched.Drr_plugin.reserve ~instance_id:1 ~key:(key 2) ~rate_bps:1_000_000);
  check bool_t "weight 3" true
    (Rp_sched.Drr_plugin.weight_of ~instance_id:1 ~key:(key 1) = Some 3);
  check bool_t "weight 1" true
    (Rp_sched.Drr_plugin.weight_of ~instance_id:1 ~key:(key 2) = Some 1);
  for seq = 0 to 79 do
    ignore (s.Plugin.enqueue ~now:0L (pkt 1 seq) None);
    ignore (s.Plugin.enqueue ~now:0L (pkt 2 seq) None)
  done;
  let counts = drain s 40 in
  let c1 = count counts 1 and c2 = count counts 2 in
  check int_t "all served" 40 (c1 + c2);
  (* 3:1 split of 40 = 30/10, allow rounding slack. *)
  check bool_t (Printf.sprintf "3:1 shares (got %d:%d)" c1 c2) true
    (c1 >= 27 && c1 <= 33)

let test_drr_mixed_packet_sizes () =
  (* Fairness is in bytes, not packets: a flow of small packets gets
     more packets through. *)
  let inst = mk_instance (module Rp_sched.Drr_plugin) [ ("quantum", "500") ] in
  let s = scheduler_of inst in
  for seq = 0 to 99 do
    ignore (s.Plugin.enqueue ~now:0L (pkt ~len:1500 1 seq) None);
    ignore (s.Plugin.enqueue ~now:0L (pkt ~len:500 2 seq) None)
  done;
  (* Serve ~60000 bytes worth. *)
  let bytes = ref 0 in
  let c1 = ref 0 and c2 = ref 0 in
  while !bytes < 60_000 do
    match deq s ~now:0L with
    | Some m ->
      bytes := !bytes + m.Mbuf.len;
      let id =
        match m.Mbuf.key.Flow_key.src with
        | Ipaddr.V4 x -> Int32.to_int (Int32.logand x 0xFFl)
        | Ipaddr.V6 _ -> -1
      in
      if id = 1 then incr c1 else incr c2
    | None -> bytes := max_int
  done;
  let b1 = !c1 * 1500 and b2 = !c2 * 500 in
  let ratio = float_of_int b1 /. float_of_int (max 1 b2) in
  check bool_t (Printf.sprintf "byte fairness (%d vs %d bytes)" b1 b2) true
    (ratio > 0.8 && ratio < 1.25)

let test_drr_per_flow_limit () =
  let inst =
    mk_instance (module Rp_sched.Drr_plugin) [ ("flow-limit", "4") ]
  in
  let s = scheduler_of inst in
  let accepted = ref 0 in
  for seq = 0 to 9 do
    match s.Plugin.enqueue ~now:0L (pkt 1 seq) None with
    | Plugin.Enqueued -> incr accepted
    | Plugin.Rejected _ -> ()
  done;
  check int_t "per-flow limit" 4 !accepted;
  check int_t "drops counted" 6 (Rp_sched.Drr_plugin.drop_count ~instance_id:1)

let prop_drr_work_conserving =
  qtest ~count:100 "drr: work conserving (dequeues everything enqueued)"
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 1 4) (int_range 64 1500)))
    (fun arrivals ->
      match
        Rp_sched.Drr_plugin.create_instance ~instance_id:99 ~code:0 ~config:[]
      with
      | Error _ -> false
      | Ok inst ->
        let s = scheduler_of inst in
        List.iteri
          (fun seq (id, len) -> ignore (s.Plugin.enqueue ~now:0L (pkt ~len id seq) None))
          arrivals;
        let n = ref 0 in
        let continue = ref true in
        while !continue do
          match deq s ~now:0L with
          | Some _ -> incr n
          | None -> continue := false
        done;
        !n = List.length arrivals && s.Plugin.backlog () = 0)

(* Recycling: a flow binding as the AIU makes one, and its eviction as
   the PCU runs it (through the binding's instance). *)
let binding (inst : Plugin.t) =
  {
    Rp_classifier.Flow_table.instance = inst;
    filter = Rp_classifier.Filter.v4 ();
    soft = None;
    owner = Mbuf.no_fix;
    lent = false;
  }

let evict (b : Plugin.t Rp_classifier.Flow_table.binding) =
  Option.get b.Rp_classifier.Flow_table.instance.Plugin.on_flow_evict b

let enq s b m =
  match s.Plugin.enqueue ~now:0L m (Some b) with
  | Plugin.Enqueued -> ()
  | Plugin.Rejected why -> Alcotest.failf "rejected: %s" why

let test_drr_recycles_queues () =
  let inst = mk_instance (module Rp_sched.Drr_plugin) [ ("quantum", "500") ] in
  let s = scheduler_of inst in
  let soft b = b.Rp_classifier.Flow_table.soft in
  (* flow 1 sends two packets, is served and leaves: its record is off
     the active ring *)
  let b1 = binding inst in
  enq s b1 (pkt 1 0);
  enq s b1 (pkt 1 1);
  ignore (deq s ~now:0L);
  ignore (deq s ~now:0L);
  let rec1 = soft b1 in
  evict b1;
  check bool_t "eviction empties the slot" true (soft b1 = None);
  (* the next new flow, reserved at three times the base rate, takes
     flow 1's record: empty, no deficit, its own weight *)
  let reserve id rate_bps =
    ok (Rp_sched.Drr_plugin.reserve ~instance_id:1 ~key:(key id) ~rate_bps)
  in
  reserve 3 3_000_000;
  reserve 4 1_000_000;
  let b3 = binding inst in
  enq s b3 (pkt 3 0);
  check bool_t "the freed record is reused" true (soft b3 == rec1);
  check bool_t "empty, no deficit, its reservation's weight" true
    (Rp_sched.Drr_plugin.queue_state b3 = Some (1, 0, 3));
  check bool_t "weight_of sees it" true
    (Rp_sched.Drr_plugin.weight_of ~instance_id:1 ~key:(key 3) = Some 3);
  (match deq s ~now:0L with
   | Some m ->
     check bool_t "only the new flow's packet" true
       (Flow_key.equal m.Mbuf.key (key 3))
   | None -> Alcotest.fail "nothing dequeued");
  check bool_t "then empty" true (s.Plugin.dequeue ~now:0L == Mbuf.dummy);
  (* a flow evicted while still on the active ring is not handed out
     until the round-robin pointer takes it off *)
  let b5 = binding inst in
  enq s b5 (pkt 5 0);
  enq s b5 (pkt 5 1);
  let rec5 = soft b5 in
  let dropped0 = Rp_sched.Drr_plugin.drop_count ~instance_id:1 in
  evict b5;
  check int_t "its queued packets count as drops" (dropped0 + 2)
    (Rp_sched.Drr_plugin.drop_count ~instance_id:1);
  check int_t "and leave the backlog" 0 (s.Plugin.backlog ());
  let b6 = binding inst in
  enq s b6 (pkt 6 0);
  check bool_t "a record on the ring is not reused" true
    (soft b6 != rec5 && soft b6 != rec1);
  ignore (deq s ~now:0L);
  check bool_t "drained" true (s.Plugin.dequeue ~now:0L == Mbuf.dummy);
  let b7 = binding inst in
  enq s b7 (pkt 7 0);
  check bool_t "off the ring, it is" true (soft b7 == rec5);
  check bool_t "with an empty queue" true
    (Rp_sched.Drr_plugin.queue_state b7 = Some (1, 0, 1))

(* One binding (instance 1's) whose packets reach another instance's
   qdisc: the queue is instance 2's, and so are its eviction's drops
   and its record. *)
let test_drr_evicts_by_owner () =
  let a = mk_instance (module Rp_sched.Drr_plugin) [] in
  let b =
    ok (Rp_sched.Drr_plugin.create_instance ~instance_id:2 ~code:0 ~config:[])
  in
  let sa = scheduler_of a and sb = scheduler_of b in
  let fb = binding a in
  enq sb fb (pkt 1 0);
  enq sb fb (pkt 1 1);
  let record = fb.Rp_classifier.Flow_table.soft in
  evict fb;
  check int_t "the owner counts the drops" 2
    (Rp_sched.Drr_plugin.drop_count ~instance_id:2);
  check int_t "the binding's instance does not" 0
    (Rp_sched.Drr_plugin.drop_count ~instance_id:1);
  check int_t "owner backlog" 0 (sb.Plugin.backlog ());
  check int_t "other backlog" 0 (sa.Plugin.backlog ());
  check bool_t "owner drains" true (sb.Plugin.dequeue ~now:0L == Mbuf.dummy);
  let fa = binding a in
  enq sa fa (pkt 2 0);
  check bool_t "instance 1 makes its own record" true
    (fa.Rp_classifier.Flow_table.soft != record);
  let fb2 = binding a in
  enq sb fb2 (pkt 3 0);
  check bool_t "instance 2 reuses its own" true
    (fb2.Rp_classifier.Flow_table.soft == record)

(* A route change moves a bound flow to another interface, with the
   two DRR qdiscs attached as perf's nat-drr attaches them (one bound
   to every flow, on if1; one more on if0) and nothing transmitting.
   The packet after the change queues on if0's qdisc, in a queue of
   that qdisc's own; the two left on if1 stay there.  Every packet
   leaves exactly once, from the interface it was routed to, and no
   backlog goes below zero. *)
let test_drr_route_change () =
  let r = Router.create ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 () ] () in
  let pmgr cmd = ok (Rp_control.Pmgr.exec r cmd) in
  ignore (pmgr "modload drr");
  List.iteri
    (fun i ifc ->
      let id = Scanf.sscanf (pmgr "create drr") "instance %d" Fun.id in
      if i = 0 then ignore (pmgr (Printf.sprintf "bind %d <*, *, *, *, *, *>" id));
      ignore (pmgr (Printf.sprintf "attach %d %d" id ifc)))
    [ 1; 0 ];
  ignore (pmgr "route add 192.168.0.0/16 1");
  let send seq =
    match Ip_core.process r ~now:0L (pkt 1 seq) with
    | Ip_core.Enqueued _ -> ()
    | v -> Alcotest.failf "packet %d: %a" seq Ip_core.pp_verdict v
  in
  send 0;
  send 1;
  ignore (pmgr "route add 192.168.1.0/24 0");
  send 2;
  let backlog i = Iface.backlog (Router.iface r i) in
  check int_t "if1 holds the two before the change" 2 (backlog 1);
  check int_t "if0 holds the one after" 1 (backlog 0);
  let sent i =
    let rec go acc =
      match Iface.dequeue (Router.iface r i) ~now:0L with
      | Some m -> go (m.Mbuf.seq :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let s1 = sent 1 and s0 = sent 0 in
  check (Alcotest.list int_t) "if1 sends 0 and 1" [ 0; 1 ] s1;
  check (Alcotest.list int_t) "if0 sends 2" [ 2 ] s0;
  check int_t "if1 backlog" 0 (backlog 1);
  check int_t "if0 backlog" 0 (backlog 0);
  (* the flow keeps its new queue, and the old one was freed *)
  send 3;
  check (Alcotest.list int_t) "the flow stays on if0" [ 3 ] (sent 0);
  check int_t "if1 idle" 0 (backlog 1);
  (* the same at the plugin: the queue a binding left behind is freed
     once drained, and its qdisc's next new flow takes it *)
  let a = mk_instance (module Rp_sched.Drr_plugin) [] in
  let b = ok (Rp_sched.Drr_plugin.create_instance ~instance_id:2 ~code:0 ~config:[]) in
  let sa = scheduler_of a and sb = scheduler_of b in
  let fb = binding a in
  enq sa fb (pkt 1 0);
  let left = fb.Rp_classifier.Flow_table.soft in
  enq sb fb (pkt 1 1);
  check bool_t "a queue of b's own" true (fb.Rp_classifier.Flow_table.soft != left);
  check bool_t "a still sends its packet" true (Option.is_some (deq sa ~now:0L));
  check bool_t "b sends its own" true (Option.is_some (deq sb ~now:0L));
  let fa = binding a in
  enq sa fa (pkt 2 0);
  check bool_t "the drained queue is reused" true (fa.Rp_classifier.Flow_table.soft == left)

(* The scheduler contract: a dequeue returns the packet itself, or
   [Mbuf.dummy] when the queue has nothing to send. *)
let test_empty_dequeue_is_dummy () =
  List.iter
    (fun (name, (module P : Plugin.PLUGIN)) ->
      let s = scheduler_of (mk_instance (module P) []) in
      check bool_t (name ^ ": empty") true
        (s.Plugin.dequeue ~now:0L == Mbuf.dummy);
      let m = pkt 1 0 in
      ignore (s.Plugin.enqueue ~now:0L m None);
      check bool_t (name ^ ": the packet itself") true
        (s.Plugin.dequeue ~now:1000L == m);
      check bool_t (name ^ ": empty again") true
        (s.Plugin.dequeue ~now:2000L == Mbuf.dummy))
    [
      ("fifo", (module Rp_sched.Fifo_plugin));
      ("red", (module Rp_sched.Red_plugin));
      ("drr", (module Rp_sched.Drr_plugin));
      ("hfsc", (module Rp_sched.Hfsc_plugin));
    ]

(* --- Service curves ----------------------------------------------------- *)

let test_service_curve_math () =
  let sc = Rp_sched.Service_curve.make ~m1:2000.0 ~d:0.5 ~m2:1000.0 in
  let feq name a b = check bool_t name true (abs_float (a -. b) < 1e-6) in
  feq "value at 0" 0.0 (Rp_sched.Service_curve.value sc 0.0);
  feq "m1 segment" 500.0 (Rp_sched.Service_curve.value sc 0.25);
  feq "knee" 1000.0 (Rp_sched.Service_curve.value sc 0.5);
  feq "m2 segment" 1500.0 (Rp_sched.Service_curve.value sc 1.0);
  feq "inverse on m1" 0.25 (Rp_sched.Service_curve.inverse sc 500.0);
  feq "inverse on m2" 1.0 (Rp_sched.Service_curve.inverse sc 1500.0);
  let a = Rp_sched.Service_curve.anchor sc ~x:10.0 ~y:5000.0 in
  feq "anchored value" 5500.0 (Rp_sched.Service_curve.anchored_value a 10.25);
  feq "anchored inverse" 10.25 (Rp_sched.Service_curve.anchored_inverse a 5500.0)

let prop_service_curve_inverse =
  qtest "service curve: inverse (value t) <= t (and tight off plateaus)"
    QCheck2.Gen.(
      tup4 (float_range 100.0 10000.0) (float_range 0.0 2.0)
        (float_range 100.0 10000.0) (float_range 0.0 5.0))
    (fun (m1, d, m2, t) ->
      let sc = Rp_sched.Service_curve.make ~m1 ~d ~m2 in
      let y = Rp_sched.Service_curve.value sc t in
      let t' = Rp_sched.Service_curve.inverse sc y in
      t' <= t +. 1e-9
      && Rp_sched.Service_curve.value sc t' >= y -. 1e-6)

(* --- H-FSC --------------------------------------------------------------- *)

let mk_hfsc ?(config = []) () =
  let inst = mk_instance (module Rp_sched.Hfsc_plugin) config in
  (inst, scheduler_of inst)

let test_hfsc_link_share_ratio () =
  let _inst, s = mk_hfsc () in
  (* Two leaves sharing 3:1. *)
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"gold"
       ~fsc:(Rp_sched.Service_curve.linear 3000.0) ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"bronze"
       ~fsc:(Rp_sched.Service_curve.linear 1000.0) ());
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 1) ~cname:"gold");
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 2) ~cname:"bronze");
  for seq = 0 to 79 do
    ignore (s.Plugin.enqueue ~now:0L (pkt 1 seq) None);
    ignore (s.Plugin.enqueue ~now:0L (pkt 2 seq) None)
  done;
  let counts = drain s 40 in
  let c1 = count counts 1 and c2 = count counts 2 in
  check bool_t (Printf.sprintf "3:1 link share (got %d:%d)" c1 c2) true
    (c1 + c2 = 40 && c1 >= 27 && c1 <= 33)

let test_hfsc_hierarchy () =
  (* Two agencies split 1:1; agency A subdivides 2:1 internally. *)
  let _inst, s = mk_hfsc () in
  let sc r = Rp_sched.Service_curve.linear r in
  ok (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"agencyA" ~fsc:(sc 1000.0) ());
  ok (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"agencyB" ~fsc:(sc 1000.0) ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"a-video"
       ~parent:"agencyA" ~fsc:(sc 2000.0) ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"a-data"
       ~parent:"agencyA" ~fsc:(sc 1000.0) ());
  ok (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"b-all" ~parent:"agencyB"
        ~fsc:(sc 1000.0) ());
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 1) ~cname:"a-video");
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 2) ~cname:"a-data");
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 3) ~cname:"b-all");
  for seq = 0 to 119 do
    for id = 1 to 3 do
      ignore (s.Plugin.enqueue ~now:0L (pkt id seq) None)
    done
  done;
  let counts = drain s 60 in
  let c1 = count counts 1 and c2 = count counts 2 and c3 = count counts 3 in
  (* Agencies split 30/30; inside A, video:data = 2:1 = 20/10. *)
  check bool_t (Printf.sprintf "agency split (got %d+%d vs %d)" c1 c2 c3) true
    (abs (c1 + c2 - 30) <= 3 && abs (c3 - 30) <= 3);
  check bool_t (Printf.sprintf "intra-agency 2:1 (got %d:%d)" c1 c2) true
    (c1 > c2 && abs (c1 - 20) <= 4)

let test_hfsc_realtime_priority () =
  (* A leaf with a concave RSC (m1 >> m2) must be served ahead of a
     pure link-share leaf right after becoming backlogged, even though
     its long-term share is small: delay decoupled from bandwidth. *)
  let _inst, s = mk_hfsc () in
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"voice"
       ~rsc:(Rp_sched.Service_curve.make ~m1:1_000_000.0 ~d:0.1 ~m2:1000.0)
       ~fsc:(Rp_sched.Service_curve.linear 1000.0) ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"bulk"
       ~fsc:(Rp_sched.Service_curve.linear 100_000.0) ());
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 1) ~cname:"voice");
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 2) ~cname:"bulk");
  (* Bulk already backlogged, voice packet arrives. *)
  for seq = 0 to 9 do
    ignore (s.Plugin.enqueue ~now:1000L (pkt 2 seq) None)
  done;
  ignore (s.Plugin.enqueue ~now:2000L (pkt ~len:200 1 0) None);
  (match deq s ~now:3000L with
   | Some m ->
     check bool_t "voice served first" true
       (Flow_key.equal m.Mbuf.key (key 1))
   | None -> Alcotest.fail "nothing dequeued");
  (* But over the long run bulk dominates (voice m2 is tiny). *)
  for seq = 10 to 29 do
    ignore (s.Plugin.enqueue ~now:4000L (pkt 2 seq) None)
  done;
  for seq = 1 to 5 do
    ignore (s.Plugin.enqueue ~now:4000L (pkt ~len:200 1 seq) None)
  done;
  let counts = drain s 20 in
  check bool_t "bulk gets the long-run share" true (count counts 2 >= 14)

(* HSF: DRR inside an H-FSC leaf — flows sharing a leaf divide its
   service fairly instead of FIFO's arrival-order capture. *)
let test_hfsc_drr_leaf_fairness () =
  let run leaf =
    let _inst, s = mk_hfsc () in
    ok (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"shared"
          ~fsc:(Rp_sched.Service_curve.linear 1000.0) ~leaf ());
    ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 1) ~cname:"shared");
    ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 2) ~cname:"shared");
    (* Flow 1 floods the leaf before flow 2's packets arrive. *)
    for seq = 0 to 59 do
      ignore (s.Plugin.enqueue ~now:0L (pkt 1 seq) None)
    done;
    for seq = 0 to 19 do
      ignore (s.Plugin.enqueue ~now:0L (pkt 2 seq) None)
    done;
    let counts = drain s 40 in
    (count counts 1, count counts 2)
  in
  let fifo1, fifo2 = run `Fifo in
  (* FIFO: flow 1's head-of-line burst takes everything. *)
  check bool_t (Printf.sprintf "fifo capture (%d:%d)" fifo1 fifo2) true
    (fifo1 = 40 && fifo2 = 0);
  let drr1, drr2 = run (`Drr 500) in
  (* DRR leaf: both flows share the leaf's service ~equally. *)
  check bool_t (Printf.sprintf "drr leaf fairness (%d:%d)" drr1 drr2) true
    (drr1 + drr2 = 40 && abs (drr1 - drr2) <= 2)

let test_hfsc_drr_leaf_via_message () =
  let _inst, _s = mk_hfsc () in
  (match Rp_sched.Hfsc_plugin.message "add-class" "1 premium fsc=2000:0:2000 leaf=drr:256" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "message add-class: %s" e);
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 1) ~cname:"premium")

let test_hfsc_upper_limit () =
  (* Two greedy classes; one capped at ~1 MB/s by an upper-limit
     curve.  Over one simulated second of continuous dequeues, the
     capped class must get ~1 MB while the other takes the rest. *)
  let _inst, s = mk_hfsc () in
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"capped"
       ~fsc:(Rp_sched.Service_curve.linear 5_000_000.0)
       ~usc:(Rp_sched.Service_curve.linear 1_000_000.0)
       ~limit:100_000 ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"open"
       ~fsc:(Rp_sched.Service_curve.linear 5_000_000.0) ~limit:100_000 ());
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 1) ~cname:"capped");
  ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 2) ~cname:"open");
  (* Keep both permanently backlogged: 6000 x 1000B each. *)
  for seq = 0 to 5999 do
    ignore (s.Plugin.enqueue ~now:0L (pkt 1 seq) None);
    ignore (s.Plugin.enqueue ~now:0L (pkt 2 seq) None)
  done;
  (* A 5 MB/s link serves one 1000-byte packet every 200 us; walk one
     simulated second. *)
  let served_capped = ref 0 and served_open = ref 0 in
  for i = 0 to 4999 do
    match deq s ~now:(Int64.of_int (i * 200_000)) with
    | Some m ->
      if Flow_key.equal m.Mbuf.key (key 1) then incr served_capped
      else incr served_open
    | None -> ()
  done;
  (* capped: ~1 MB = ~1000 packets of 1000 B; open: the rest. *)
  check bool_t
    (Printf.sprintf "cap respected (%d pkts ~ 1MB)" !served_capped)
    true
    (!served_capped >= 900 && !served_capped <= 1100);
  check bool_t
    (Printf.sprintf "open class takes the remainder (%d)" !served_open)
    true
    (!served_open >= 3800)

let test_hfsc_class_errors () =
  let _inst, _ = mk_hfsc () in
  (match Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"default" () with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "duplicate class accepted");
  (match Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"x" ~parent:"ghost" () with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "missing parent accepted");
  match Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key 1) ~cname:"root" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "assigning to an inner class accepted"

(* --- RED ----------------------------------------------------------------- *)

let test_red_no_drops_when_light () =
  let inst =
    mk_instance (module Rp_sched.Red_plugin)
      [ ("min-th", "5"); ("max-th", "15") ]
  in
  let s = scheduler_of inst in
  (* Alternate enqueue/dequeue: queue stays short, no early drops. *)
  for seq = 0 to 199 do
    (match s.Plugin.enqueue ~now:(Int64.of_int (seq * 1000)) (pkt 1 seq) None with
     | Plugin.Enqueued -> ()
     | Plugin.Rejected r -> Alcotest.failf "unexpected drop: %s" r);
    ignore (deq s ~now:(Int64.of_int (seq * 1000)))
  done

let test_red_drops_when_congested () =
  let inst =
    mk_instance (module Rp_sched.Red_plugin)
      [ ("min-th", "5"); ("max-th", "15"); ("wq", "0.2") ]
  in
  let s = scheduler_of inst in
  let dropped = ref 0 in
  for seq = 0 to 199 do
    match s.Plugin.enqueue ~now:0L (pkt 1 seq) None with
    | Plugin.Enqueued -> ()
    | Plugin.Rejected _ -> incr dropped
  done;
  check bool_t (Printf.sprintf "congestion causes drops (%d)" !dropped) true
    (!dropped > 50);
  (* The average tracked above max-th forces drops; backlog stays
     bounded near max-th rather than at the hard limit. *)
  check bool_t "backlog bounded by RED, not the hard limit" true
    (s.Plugin.backlog () < 100)

(* --- Token bucket ---------------------------------------------------------- *)

let mk_binding () : Plugin.t Rp_classifier.Flow_table.binding option =
  (* A standalone binding record to carry soft state in tests. *)
  let dummy_instance =
    Plugin.simple ~instance_id:0 ~code:0 ~plugin_name:"x" ~gate:Gate.Congestion
      (fun _ _ -> Plugin.Continue)
  in
  Some
    {
      Rp_classifier.Flow_table.instance = dummy_instance;
      filter = Rp_classifier.Filter.v4 ();
      soft = None;
      owner = Mbuf.no_fix;
      lent = false;
    }

let test_token_bucket_conformance () =
  let inst =
    mk_instance (module Rp_sched.Tb_plugin)
      [ ("rate", "10000"); ("burst", "5000") ]
  in
  let binding = mk_binding () in
  let ctx now : Plugin.ctx = { Plugin.now_ns = now; binding } in
  (* Burst of 5 x 1000B conforms (burst = 5000). *)
  for i = 0 to 4 do
    match inst.Plugin.handle (ctx 0L) (pkt 1 i) with
    | Plugin.Continue | Plugin.Consumed -> ()
    | Plugin.Drop r -> Alcotest.failf "conforming packet dropped: %s" r
  done;
  (* The sixth is out of profile. *)
  (match inst.Plugin.handle (ctx 0L) (pkt 1 5) with
   | Plugin.Drop _ -> ()
   | Plugin.Continue | Plugin.Consumed -> Alcotest.fail "non-conforming packet passed");
  (* After a second, 10000 bytes of tokens refill (capped at burst):
     5 more packets pass. *)
  let passed = ref 0 in
  for i = 6 to 12 do
    match inst.Plugin.handle (ctx 1_000_000_000L) (pkt 1 i) with
    | Plugin.Continue -> incr passed
    | Plugin.Drop _ | Plugin.Consumed -> ()
  done;
  check int_t "refill honours burst cap" 5 !passed

let test_token_bucket_mark_action () =
  let inst =
    mk_instance (module Rp_sched.Tb_plugin)
      [ ("rate", "1000"); ("burst", "1000"); ("action", "mark"); ("dscp", "7") ]
  in
  let binding = mk_binding () in
  let ctx : Plugin.ctx = { Plugin.now_ns = 0L; binding } in
  ignore (inst.Plugin.handle ctx (pkt ~len:1000 1 0));
  let m = pkt ~len:1000 1 1 in
  (match inst.Plugin.handle ctx m with
   | Plugin.Continue | Plugin.Consumed -> ()
   | Plugin.Drop _ -> Alcotest.fail "mark action must not drop");
  check int_t "dscp marked" 7 m.Mbuf.tos;
  check bool_t "tagged" true (Mbuf.has_tag m "out-of-profile")

(* --- queue bounds from config ---------------------------------------- *)

(* A malformed or non-positive bound fails [create_instance]; an absent
   one takes the default. *)
let refuses_bad_bounds (module P : Plugin.PLUGIN) keys () =
  (match P.create_instance ~instance_id:77 ~code:0 ~config:[] with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "%s: defaults refused: %s" P.name e);
  List.iter
    (fun key ->
      List.iter
        (fun v ->
          match P.create_instance ~instance_id:77 ~code:0 ~config:[ (key, v) ] with
          | Ok _ -> Alcotest.failf "%s: %s=%S accepted" P.name key v
          | Error _ -> ())
        [ "0"; "-3"; "many"; "" ];
      match P.create_instance ~instance_id:77 ~code:0 ~config:[ (key, "7") ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s=7 refused: %s" P.name key e)
    keys

let test_iface_fifo_limit () =
  Alcotest.check_raises "fifo_limit 0"
    (Invalid_argument "Iface.create: fifo_limit < 1") (fun () ->
      ignore (Iface.create ~id:0 ~fifo_limit:0 ()));
  let ifc = Iface.create ~id:0 ~fifo_limit:2 () in
  let queued = List.filter (fun seq -> Iface.enqueue ifc ~now:0L ~binding:None (pkt 1 seq)) [ 0; 1; 2 ] in
  check int_t "two queued" 2 (List.length queued);
  check int_t "the third tail-dropped" 1 ifc.Iface.counters.Iface.drops;
  (match Iface.dequeue ifc ~now:0L with
   | Some m -> check int_t "oldest first" 0 m.Mbuf.seq
   | None -> Alcotest.fail "empty FIFO");
  Iface.drop_queued ifc ~now:0L;
  check int_t "drop_queued empties it" 0 (Iface.backlog ifc)

let test_hfsc_bad_class_limit () =
  ignore (mk_hfsc ());
  (match Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"zero" ~limit:0 () with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "class limit 0 accepted");
  match Rp_sched.Hfsc_plugin.message "add-class" "1 bad limit=lots" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed class limit accepted"

(* --- the DRR core, through both of its users ------------------------- *)

(* Flow [i] of many: 10.x.y.z, so ids run past 255. *)
let many_key i =
  Flow_key.make
    ~src:(Ipaddr.v4 10 ((i lsr 16) land 255) ((i lsr 8) land 255) (i land 255))
    ~dst:(Ipaddr.v4 192 168 1 1) ~proto:Proto.udp ~sport:1000 ~dport:9000
    ~iface:0

let flows_stat s = List.assoc "flows" (s.Plugin.sched_stats ())

(* One-packet flows with no binding (Table 3's ALTQ row, best-effort
   mode): a queue found by key lives only while it holds packets, so
   the instance holds none once they have all left. *)
let test_drr_keyed_queues_bounded () =
  let s = scheduler_of (mk_instance (module Rp_sched.Drr_plugin) []) in
  let n = 100_000 in
  for i = 0 to n - 1 do
    ignore (s.Plugin.enqueue ~now:0L (Mbuf.synth ~key:(many_key i) ~len:100 ()) None);
    if i land 15 = 15 then
      while s.Plugin.dequeue ~now:0L != Mbuf.dummy do () done
  done;
  while s.Plugin.dequeue ~now:0L != Mbuf.dummy do () done;
  check int_t "drained" 0 (s.Plugin.backlog ());
  check Alcotest.string "no queue held" "0" (flows_stat s)

(* The same through an H-FSC DRR leaf: its per-flow queues are the DRR
   core's, found by key and freed as they drain. *)
let test_hfsc_drr_leaf_bounded () =
  let _inst, s = mk_hfsc () in
  ok (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"shared" ~leaf:(`Drr 500) ());
  let n = 20_000 in
  for i = 0 to n - 1 do
    ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(many_key i) ~cname:"shared")
  done;
  let held () =
    Option.get (Rp_sched.Hfsc_plugin.leaf_queues ~instance_id:1 ~cname:"shared")
  in
  let peak = ref 0 in
  for i = 0 to n - 1 do
    ignore (s.Plugin.enqueue ~now:0L (Mbuf.synth ~key:(many_key i) ~len:100 ()) None);
    peak := max !peak (held ());
    if i land 15 = 15 then
      while s.Plugin.dequeue ~now:0L != Mbuf.dummy do () done
  done;
  while s.Plugin.dequeue ~now:0L != Mbuf.dummy do () done;
  check int_t "drained" 0 (s.Plugin.backlog ());
  check bool_t "never more queues than packets" true (!peak <= 16);
  check int_t "key-found queues" 0 (held ())

(* Random interleavings of enqueue, dequeue and flow eviction against a
   model of per-flow FIFOs.  Flows 0-3 are always bound, 4-7 never (on
   H-FSC every flow's leaf queue is found by key all the same).  After
   every step: each dequeued packet is the head of its flow's model
   queue (per-flow FIFO, nothing lost or duplicated), the backlog is
   the model's and never negative, and attempts = dequeued + queued +
   dropped; an empty dequeue means nothing is queued.  After a full
   drain, no key-found queue is held, and a DRR instance holds exactly
   one queue per bound flow that has one. *)
type core_op = Enq of int * int | Deq | Evict of int

let gen_core_ops =
  QCheck2.Gen.(
    list_size (int_range 1 300)
      (frequency
         [
           (5, map2 (fun f n -> Enq (f, n)) (int_bound 7) (int_range 64 1500));
           (4, return Deq);
           (1, map (fun f -> Evict f) (int_bound 3));
         ]))

let print_core_ops ops =
  String.concat " "
    (List.map
       (function
         | Enq (f, len) -> Printf.sprintf "e%d:%d" f len
         | Deq -> "d"
         | Evict f -> Printf.sprintf "x%d" f)
       ops)

let flow_id (m : Mbuf.t) =
  match m.Mbuf.key.Flow_key.src with
  | Ipaddr.V4 x -> Int32.to_int (Int32.logand x 0xFFl)
  | Ipaddr.V6 _ -> -1

let core_model ~hfsc ops =
  let inst, s =
    if hfsc then begin
      let inst, s = mk_hfsc () in
      ok
        (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"leaf" ~limit:6
           ~leaf:(`Drr 300) ());
      for f = 0 to 7 do
        ok (Rp_sched.Hfsc_plugin.assign ~instance_id:1 ~key:(key f) ~cname:"leaf")
      done;
      (inst, s)
    end
    else
      let inst =
        mk_instance (module Rp_sched.Drr_plugin)
          [ ("quantum", "300"); ("flow-limit", "4") ]
      in
      (inst, scheduler_of inst)
  in
  let drops () =
    if hfsc then Rp_sched.Hfsc_plugin.drop_count ~instance_id:1
    else Rp_sched.Drr_plugin.drop_count ~instance_id:1
  in
  let bindings = Array.init 4 (fun _ -> binding inst) in
  let model = Array.init 8 (fun _ -> Queue.create ()) in
  let queued () = Array.fold_left (fun n q -> n + Queue.length q) 0 model in
  let attempts = ref 0 and dequeued = ref 0 and now = ref 0L in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let step op =
    now := Int64.add !now 1000L;
    (match op with
     | Enq (f, len) ->
       let m = pkt ~len f !attempts in
       incr attempts;
       let b = if f < 4 then Some bindings.(f) else None in
       (match s.Plugin.enqueue ~now:!now m b with
        | Plugin.Enqueued -> Queue.push m.Mbuf.seq model.(f)
        | Plugin.Rejected _ -> ())
     | Deq ->
       let m = s.Plugin.dequeue ~now:!now in
       if m == Mbuf.dummy then begin
         if queued () <> 0 then fail "empty dequeue with %d queued" (queued ())
       end
       else begin
         incr dequeued;
         let f = flow_id m in
         match Queue.take_opt model.(f) with
         | Some seq when seq = m.Mbuf.seq -> ()
         | Some seq -> fail "flow %d: packet %d before %d" f m.Mbuf.seq seq
         | None -> fail "flow %d: packet %d not queued" f m.Mbuf.seq
       end
     | Evict f ->
       (* the flow record goes; DRR drops what the flow had queued *)
       evict bindings.(f);
       if not hfsc then Queue.clear model.(f));
    let backlog = s.Plugin.backlog () in
    if backlog < 0 then fail "backlog %d" backlog;
    if backlog <> queued () then fail "backlog %d, model %d" backlog (queued ());
    if !attempts <> !dequeued + backlog + drops () then
      fail "%d enqueued <> %d dequeued + %d queued + %d dropped" !attempts
        !dequeued backlog (drops ())
  in
  List.iter step ops;
  (* a full drain ends with an empty dequeue, which also takes the
     evicted queues left on the ring off it *)
  let rec drain () =
    let before = !dequeued in
    step Deq;
    if !dequeued > before then drain ()
  in
  drain ();
  if hfsc then
    Rp_sched.Hfsc_plugin.leaf_queues ~instance_id:1 ~cname:"leaf" = Some 0
    || fail "the leaf holds queues after a drain"
  else
    let bound =
      Array.fold_left
        (fun n b -> if b.Rp_classifier.Flow_table.soft <> None then n + 1 else n)
        0 bindings
    in
    (* a queue held past the bound flows' own is a key-found one *)
    Rp_sched.Drr_plugin.flow_count ~instance_id:1 = bound
    || fail "%d queues held, %d bound flows"
         (Rp_sched.Drr_plugin.flow_count ~instance_id:1) bound

let prop_drr_core_model =
  QCheck2.Test.make ~count:300 ~name:"drr core = per-flow FIFO model (qdisc)"
    ~print:print_core_ops gen_core_ops (core_model ~hfsc:false)
  |> QCheck_alcotest.to_alcotest

let prop_hfsc_drr_leaf_model =
  QCheck2.Test.make ~count:300 ~name:"drr core = per-flow FIFO model (hfsc leaf)"
    ~print:print_core_ops gen_core_ops (core_model ~hfsc:true)
  |> QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rp_sched"
    [
      ( "fifo",
        [
          Alcotest.test_case "order and limit" `Quick test_fifo_order_and_limit;
          Alcotest.test_case "bad limit refused" `Quick
            (refuses_bad_bounds (module Rp_sched.Fifo_plugin) [ "limit" ]);
          Alcotest.test_case "iface fifo_limit" `Quick test_iface_fifo_limit;
        ] );
      ( "drr",
        [
          Alcotest.test_case "equal fairness" `Quick test_drr_equal_fairness;
          Alcotest.test_case "weighted shares" `Quick test_drr_weighted_shares;
          Alcotest.test_case "byte fairness" `Quick test_drr_mixed_packet_sizes;
          Alcotest.test_case "per-flow limit" `Quick test_drr_per_flow_limit;
          prop_drr_work_conserving;
          Alcotest.test_case "bad bounds refused" `Quick
            (refuses_bad_bounds (module Rp_sched.Drr_plugin) [ "quantum"; "flow-limit" ]);
          Alcotest.test_case "recycles flow queues" `Quick
            test_drr_recycles_queues;
          Alcotest.test_case "evicts by the queue's owner" `Quick
            test_drr_evicts_by_owner;
          Alcotest.test_case "a route change moves the flow's queue" `Quick
            test_drr_route_change;
          Alcotest.test_case "key-found queues live while backlogged" `Quick
            test_drr_keyed_queues_bounded;
          prop_drr_core_model;
        ] );
      ( "contract",
        [
          Alcotest.test_case "empty dequeue is Mbuf.dummy" `Quick
            test_empty_dequeue_is_dummy;
        ] );
      ( "service_curve",
        [
          Alcotest.test_case "two-piece math" `Quick test_service_curve_math;
          prop_service_curve_inverse;
        ] );
      ( "hfsc",
        [
          Alcotest.test_case "link share ratio" `Quick test_hfsc_link_share_ratio;
          Alcotest.test_case "hierarchy" `Quick test_hfsc_hierarchy;
          Alcotest.test_case "realtime priority" `Quick test_hfsc_realtime_priority;
          Alcotest.test_case "HSF: drr leaf fairness" `Quick test_hfsc_drr_leaf_fairness;
          Alcotest.test_case "HSF: drr leaf via message" `Quick test_hfsc_drr_leaf_via_message;
          Alcotest.test_case "upper-limit curve" `Quick test_hfsc_upper_limit;
          Alcotest.test_case "class errors" `Quick test_hfsc_class_errors;
          Alcotest.test_case "bad class-limit refused" `Quick
            (refuses_bad_bounds (module Rp_sched.Hfsc_plugin) [ "class-limit" ]);
          Alcotest.test_case "bad class limit refused" `Quick test_hfsc_bad_class_limit;
          Alcotest.test_case "HSF: drr leaf queues live while backlogged" `Quick
            test_hfsc_drr_leaf_bounded;
          prop_hfsc_drr_leaf_model;
        ] );
      ( "red",
        [
          Alcotest.test_case "no drops when light" `Quick test_red_no_drops_when_light;
          Alcotest.test_case "drops when congested" `Quick test_red_drops_when_congested;
          Alcotest.test_case "bad bounds refused" `Quick
            (refuses_bad_bounds (module Rp_sched.Red_plugin) [ "limit"; "seed" ]);
        ] );
      ( "token_bucket",
        [
          Alcotest.test_case "conformance" `Quick test_token_bucket_conformance;
          Alcotest.test_case "mark action" `Quick test_token_bucket_mark_action;
        ] );
    ]
