(* Tests for rp_core: gates, plugin codes, the PCU lifecycle, the
   routing table, and the IP core data path with its cost accounting. *)

open Rp_pkt
open Rp_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let err label = function
  | Ok _ -> Alcotest.failf "%s: expected an error" label
  | Error _ -> ()

(* --- Gate ------------------------------------------------------------ *)

let test_gate_numbering () =
  check int_t "count" (List.length Gate.all) Gate.count;
  List.iter
    (fun g ->
      match Gate.of_int (Gate.to_int g) with
      | Some g' -> check bool_t (Gate.name g) true (Gate.equal g g')
      | None -> Alcotest.failf "of_int failed for %s" (Gate.name g))
    Gate.all;
  check bool_t "of_int out of range" true (Gate.of_int Gate.count = None);
  List.iter
    (fun g ->
      match Gate.of_name (Gate.name g) with
      | Some g' -> check bool_t "name roundtrip" true (Gate.equal g g')
      | None -> Alcotest.failf "of_name failed for %s" (Gate.name g))
    Gate.all

let test_plugin_codes () =
  let code = Plugin.code ~gate:Gate.Scheduling ~impl:3 in
  check bool_t "gate recovered" true
    (Plugin.gate_of_code code = Some Gate.Scheduling);
  check int_t "impl recovered" 3 (Plugin.impl_of_code code);
  (* Upper 16 bits are the type, lower 16 the implementation. *)
  check int_t "packing" ((Gate.to_int Gate.Scheduling lsl 16) lor 3) code

(* --- PCU lifecycle ---------------------------------------------------- *)

let empty_options = Empty_plugin.make ~gate:Gate.Ip_options ~name:"empty-opt"

let test_pcu_modload () =
  let pcu = Pcu.create () in
  ok (Pcu.modload pcu empty_options);
  check bool_t "loaded" true (Pcu.is_loaded pcu "empty-opt");
  err "double load" (Pcu.modload pcu empty_options);
  ok (Pcu.modunload pcu "empty-opt");
  check bool_t "unloaded" false (Pcu.is_loaded pcu "empty-opt");
  err "unload missing" (Pcu.modunload pcu "empty-opt")

let test_pcu_instance_lifecycle () =
  let pcu = Pcu.create () in
  ok (Pcu.modload pcu empty_options);
  let inst = ok (Pcu.create_instance pcu ~plugin:"empty-opt" []) in
  check bool_t "found" true (Pcu.find_instance pcu inst.Plugin.instance_id <> None);
  (* Plugins with live instances cannot be unloaded. *)
  err "unload with instance" (Pcu.modunload pcu "empty-opt");
  let f = Rp_classifier.Filter.v4 ~proto:Proto.udp () in
  ok (Pcu.register_instance pcu ~instance:inst.Plugin.instance_id f);
  check int_t "binding recorded" 1
    (List.length (Pcu.bindings_of pcu ~instance:inst.Plugin.instance_id));
  ok (Pcu.free_instance pcu inst.Plugin.instance_id);
  check bool_t "gone" true (Pcu.find_instance pcu inst.Plugin.instance_id = None);
  ok (Pcu.modunload pcu "empty-opt")

let test_pcu_register_routes_to_gate_table () =
  let pcu = Pcu.create () in
  ok (Pcu.modload pcu empty_options);
  let inst = ok (Pcu.create_instance pcu ~plugin:"empty-opt" []) in
  let f = Rp_classifier.Filter.v4 ~proto:Proto.udp () in
  ok (Pcu.register_instance pcu ~instance:inst.Plugin.instance_id f);
  let dag =
    Rp_classifier.Aiu.filter_table (Pcu.aiu pcu) ~gate:(Gate.to_int Gate.Ip_options)
  in
  check int_t "filter in the ip-options table" 1 (Rp_classifier.Dag.length dag);
  err "deregister unknown filter"
    (Pcu.deregister_instance pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.tcp ()));
  ok (Pcu.deregister_instance pcu ~instance:inst.Plugin.instance_id f);
  check int_t "filter removed" 0 (Rp_classifier.Dag.length dag)

let test_pcu_messages () =
  let pcu = Pcu.create () in
  ok (Pcu.modload pcu (module Stats_plugin));
  check string_t "plugin-info" Stats_plugin.description
    (ok (Pcu.message pcu ~plugin:"stats" "plugin-info" ""));
  err "unknown message" (Pcu.message pcu ~plugin:"stats" "nonsense" "");
  err "unknown plugin" (Pcu.message pcu ~plugin:"ghost" "plugin-info" "")

(* --- Route table ------------------------------------------------------ *)

let test_route_table () =
  let rt = Route_table.create () in
  Route_table.add rt
    { Route_table.prefix = Prefix.of_string "0.0.0.0/0"; next_hop = None; iface = 0; metric = 10 };
  Route_table.add rt
    { Route_table.prefix = Prefix.of_string "192.168.0.0/16";
      next_hop = Some (Ipaddr.v4 10 0 0 254); iface = 1; metric = 0 };
  (match Route_table.lookup rt (Ipaddr.v4 192 168 5 5) with
   | Some r -> check int_t "specific wins" 1 r.Route_table.iface
   | None -> Alcotest.fail "no route");
  (match Route_table.lookup rt (Ipaddr.v4 8 8 8 8) with
   | Some r -> check int_t "default" 0 r.Route_table.iface
   | None -> Alcotest.fail "no default");
  (* A worse metric must not replace an existing route. *)
  Route_table.add rt
    { Route_table.prefix = Prefix.of_string "192.168.0.0/16"; next_hop = None;
      iface = 2; metric = 100 };
  (match Route_table.lookup rt (Ipaddr.v4 192 168 5 5) with
   | Some r -> check int_t "metric respected" 1 r.Route_table.iface
   | None -> Alcotest.fail "no route");
  Route_table.remove rt (Prefix.of_string "192.168.0.0/16");
  match Route_table.lookup rt (Ipaddr.v4 192 168 5 5) with
  | Some r -> check int_t "falls to default" 0 r.Route_table.iface
  | None -> Alcotest.fail "no route after remove"

(* A walking [resolve] allocates nothing: the engine hands back the
   [Some r] that [add] built, and a gateway route's next hop and the
   egress interface's option are the route's and the shared ones.  A
   packet without a FIX walks every time.  The slack covers
   [Gc.minor_words]. *)
let test_route_resolve_alloc () =
  let rt = Route_table.create () in
  List.iteri
    (fun i p ->
      Route_table.add rt
        { Route_table.prefix = Prefix.of_string p;
          next_hop = Some (Ipaddr.of_string (if i < 2 then "10.0.0.254" else "fe80::1"));
          iface = i; metric = 0 })
    [ "0.0.0.0/0"; "192.168.0.0/16"; "2001:db8::/32" ];
  let flows = Rp_classifier.Flow_table.create ~gates:1 () in
  let ms =
    Array.map
      (fun dst ->
        Mbuf.synth ~len:100
          ~key:
            (Flow_key.make ~src:(Ipaddr.of_string "10.0.0.1")
               ~dst:(Ipaddr.of_string dst) ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0)
          ())
      [| "192.168.5.5"; "8.8.8.8"; "2001:db8::9"; "fe80::2" |]
  in
  let spin n =
    let routed = ref 0 in
    for i = 0 to n - 1 do
      if Route_table.resolve rt flows (Array.unsafe_get ms (i land 3)) >= 0 then incr routed
    done;
    !routed
  in
  ignore (spin 1000);
  let n = 8000 in
  let walks0 = Rp_obs.Counter.get (Rp_obs.Registry.counter "route_table.lookups") in
  let before = Gc.minor_words () in
  let routed = spin n in
  let words = Gc.minor_words () -. before in
  let walks = Rp_obs.Counter.get (Rp_obs.Registry.counter "route_table.lookups") - walks0 in
  check int_t "every resolve walks" n walks;
  check int_t "three of four destinations route" (3 * n / 4) routed;
  check bool_t (Printf.sprintf "%.0f minor words for %d walks (none each)" words n)
    true (words <= 100.)

(* --- IP core ----------------------------------------------------------- *)

let mk_router ?(mode = Router.Plugins) ?(gates = Gate.all) () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~mode ~gates ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  r

let mk_pkt ?(ttl = 64) ?(dst = "192.168.1.1") ?(proto = Proto.udp) ?(sport = 1000) () =
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.of_string dst) ~proto
      ~sport ~dport:9000 ~iface:0
  in
  Mbuf.synth ~ttl ~key ~len:1000 ()

let test_forwarding_basic () =
  let r = mk_router () in
  let m = mk_pkt () in
  (match Ip_core.process r ~now:0L m with
   | Ip_core.Enqueued 1 -> ()
   | v -> Alcotest.failf "unexpected verdict: %a" Ip_core.pp_verdict v);
  check int_t "ttl decremented" 63 m.Mbuf.ttl;
  check bool_t "queued on if1" true (Iface.backlog (Router.iface r 1) = 1);
  (* No route: drop. *)
  match Ip_core.process r ~now:0L (mk_pkt ~dst:"8.8.8.8" ()) with
  | Ip_core.Dropped _ -> ()
  | v -> Alcotest.failf "expected drop, got %a" Ip_core.pp_verdict v

let test_ttl_expiry () =
  let r = mk_router () in
  match Ip_core.process r ~now:0L (mk_pkt ~ttl:1 ()) with
  | Ip_core.Dropped reason ->
    check bool_t "reason mentions ttl" true
      (String.length reason >= 3 && String.sub reason 0 3 = "ttl")
  | v -> Alcotest.failf "expected ttl drop, got %a" Ip_core.pp_verdict v

let test_firewall_gate_drops () =
  let r = mk_router () in
  ok (Pcu.modload r.Router.pcu (module Firewall_plugin));
  let deny =
    ok (Pcu.create_instance r.Router.pcu ~plugin:"firewall" [ ("policy", "deny") ])
  in
  let f = Rp_classifier.Filter.v4 ~proto:Proto.tcp () in
  ok (Pcu.register_instance r.Router.pcu ~instance:deny.Plugin.instance_id f);
  (match Ip_core.process r ~now:0L (mk_pkt ~proto:Proto.tcp ()) with
   | Ip_core.Dropped "firewall policy" -> ()
   | v -> Alcotest.failf "expected firewall drop, got %a" Ip_core.pp_verdict v);
  (* UDP does not match the deny filter. *)
  match Ip_core.process r ~now:0L (mk_pkt ~proto:Proto.udp ()) with
  | Ip_core.Enqueued 1 -> ()
  | v -> Alcotest.failf "expected forward, got %a" Ip_core.pp_verdict v

let test_most_specific_firewall_policy () =
  (* Broad deny with a narrow accept: the most specific filter wins,
     like rule tables but via classification. *)
  let r = mk_router () in
  ok (Pcu.modload r.Router.pcu (module Firewall_plugin));
  let deny =
    ok (Pcu.create_instance r.Router.pcu ~plugin:"firewall" [ ("policy", "deny") ])
  in
  let accept =
    ok (Pcu.create_instance r.Router.pcu ~plugin:"firewall" [ ("policy", "accept") ])
  in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:deny.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") ()));
  ok
    (Pcu.register_instance r.Router.pcu ~instance:accept.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~src:(Prefix.of_string "10.0.0.1") ()));
  (match Ip_core.process r ~now:0L (mk_pkt ()) with
   | Ip_core.Enqueued _ -> ()  (* src 10.0.0.1 hits the narrow accept *)
   | v -> Alcotest.failf "expected accept, got %a" Ip_core.pp_verdict v);
  let other =
    Mbuf.synth
      ~key:
        (Flow_key.make ~src:(Ipaddr.v4 10 0 0 2) ~dst:(Ipaddr.v4 192 168 1 1)
           ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0)
      ~len:100 ()
  in
  match Ip_core.process r ~now:0L other with
  | Ip_core.Dropped _ -> ()
  | v -> Alcotest.failf "expected deny, got %a" Ip_core.pp_verdict v

let test_options_gate_v6 () =
  let r = mk_router () in
  Router.add_route r (Prefix.of_string "2001:db8::/32") ~iface:1 ();
  ok (Pcu.modload r.Router.pcu (module Opt_plugin));
  let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:"ip6-options" []) in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v6 ()));
  let k =
    Flow_key.make ~src:(Ipaddr.of_string "2001:db8::1")
      ~dst:(Ipaddr.of_string "2001:db8::2") ~proto:Proto.udp ~sport:1 ~dport:2
      ~iface:0
  in
  let m = Mbuf.synth ~key:k ~len:100 () in
  m.Mbuf.options <- [ Ipv6_header.Option_tlv.Router_alert 0 ];
  (match Ip_core.process r ~now:0L m with
   | Ip_core.Enqueued 1 -> ()
   | v -> Alcotest.failf "expected forward, got %a" Ip_core.pp_verdict v);
  check bool_t "router-alert tag" true (Mbuf.has_tag m "router-alert");
  (* An option demanding discard (type high bits 01) drops the packet. *)
  let m2 = Mbuf.synth ~key:{ k with Flow_key.sport = 7 } ~len:100 () in
  m2.Mbuf.options <- [ Ipv6_header.Option_tlv.Unknown (0x40, "x") ];
  match Ip_core.process r ~now:0L m2 with
  | Ip_core.Dropped _ -> ()
  | v -> Alcotest.failf "expected option drop, got %a" Ip_core.pp_verdict v

let test_punt_handler () =
  let r = mk_router () in
  let seen = ref 0 in
  Router.set_punt r ~proto:Proto.ssp (fun ~now:_ _ ->
      incr seen;
      Router.Punt_consume);
  (match Ip_core.process r ~now:0L (mk_pkt ~proto:Proto.ssp ()) with
   | Ip_core.Delivered_local -> ()
   | v -> Alcotest.failf "expected local delivery, got %a" Ip_core.pp_verdict v);
  check int_t "handler ran" 1 !seen;
  Router.clear_punt r ~proto:Proto.ssp;
  match Ip_core.process r ~now:0L (mk_pkt ~proto:Proto.ssp ()) with
  | Ip_core.Enqueued _ -> ()
  | v -> Alcotest.failf "expected forward after clear, got %a" Ip_core.pp_verdict v

let test_local_delivery () =
  let r = mk_router () in
  Router.add_local_addr r (Ipaddr.v4 192 168 1 1);
  match Ip_core.process r ~now:0L (mk_pkt ~dst:"192.168.1.1" ()) with
  | Ip_core.Delivered_local -> ()
  | v -> Alcotest.failf "expected local, got %a" Ip_core.pp_verdict v

(* --- Cost accounting --------------------------------------------------- *)

(* The heart of Table 3: best-effort ~6460 cycles; the framework with
   three empty-plugin gates ~500 more (flow hash + cached accesses +
   3 indirect calls). *)
let test_cost_overhead_shape () =
  (* Best effort. *)
  let r0 = mk_router ~mode:Router.Best_effort () in
  Cost.reset ();
  ignore (Ip_core.process r0 ~now:0L (mk_pkt ()));
  let best_effort = Cost.get () in
  check int_t "best effort is the base path" Cost.base_forward best_effort;
  (* Plugins, 3 gates, empty plugins bound to everything. *)
  let gates = [ Gate.Ip_options; Gate.Security_in; Gate.Stats ] in
  let r1 = mk_router ~mode:Router.Plugins ~gates () in
  List.iter
    (fun (g, n) ->
      ok (Pcu.modload r1.Router.pcu (Empty_plugin.make ~gate:g ~name:n));
      let i = ok (Pcu.create_instance r1.Router.pcu ~plugin:n []) in
      ok
        (Pcu.register_instance r1.Router.pcu ~instance:i.Plugin.instance_id
           (Rp_classifier.Filter.v4 ())))
    [ (Gate.Ip_options, "e0"); (Gate.Security_in, "e1"); (Gate.Stats, "e2") ];
  (* Warm the flow cache with the first packet. *)
  ignore (Ip_core.process r1 ~now:0L (mk_pkt ()));
  Cost.reset ();
  ignore (Ip_core.process r1 ~now:1L (mk_pkt ()));
  let cached = Cost.get () in
  let overhead = cached - best_effort in
  (* ~500 cycles in the paper; our model composes 17 (hash) + memory
     accesses + 3 * 150 (gates).  Accept the 400-700 band. *)
  check bool_t
    (Printf.sprintf "plugin overhead ≈500 cycles (got %d)" overhead)
    true
    (overhead >= 400 && overhead <= 700);
  (* The first packet of a flow is much more expensive (filter-table
     walks for every gate). *)
  let r2 = mk_router ~mode:Router.Plugins ~gates () in
  Cost.reset ();
  ignore (Ip_core.process r2 ~now:0L (mk_pkt ()));
  let uncached = Cost.get () in
  check bool_t "uncached > cached" true (uncached > cached)

let test_gate_disabled_costs_nothing () =
  let r = mk_router ~mode:Router.Plugins ~gates:[] () in
  Cost.reset ();
  ignore (Ip_core.process r ~now:0L (mk_pkt ()));
  check int_t "no gates = base" Cost.base_forward (Cost.get ())

(* --- Fault isolation --------------------------------------------------- *)

let bind_fault_plugin ?(config = [ ("mode", "raise"); ("every", "1") ]) r =
  ok (Pcu.modload r.Router.pcu (Fault_plugin.make ~gate:Gate.Firewall ~name:"fault-fw"));
  let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:"fault-fw" config) in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
  inst

let test_fault_contained_and_quarantined () =
  let r = mk_router () in
  let inst = bind_fault_plugin r in
  let id = inst.Plugin.instance_id in
  let faults0 = Rp_obs.Counter.get (Gate.faults Gate.Firewall) in
  let threshold = Pcu.quarantine_threshold r.Router.pcu in
  (* Every packet faults; the default policy is fail-closed: the
     packet is dropped, [process] never sees the exception. *)
  for i = 1 to threshold do
    match Ip_core.process r ~now:(Int64.of_int i) (mk_pkt ~sport:(3000 + i) ()) with
    | Ip_core.Dropped "plugin fault" -> ()
    | v -> Alcotest.failf "packet %d: expected fault drop, got %a" i Ip_core.pp_verdict v
  done;
  check int_t "gate fault counter" threshold
    (Rp_obs.Counter.get (Gate.faults Gate.Firewall) - faults0);
  check bool_t "auto-quarantined at the threshold" true
    (Pcu.is_quarantined r.Router.pcu id);
  (* Bindings are torn down: traffic degrades to the gate default. *)
  (match Ip_core.process r ~now:99L (mk_pkt ~sport:4000 ()) with
   | Ip_core.Enqueued 1 -> ()
   | v -> Alcotest.failf "expected default-path forward, got %a" Ip_core.pp_verdict v);
  check int_t "no further faults once quarantined" threshold
    (Rp_obs.Counter.get (Gate.faults Gate.Firewall) - faults0);
  (* Re-binding a quarantined instance is refused; restore re-arms it. *)
  err "register while quarantined"
    (Pcu.register_instance r.Router.pcu ~instance:id
       (Rp_classifier.Filter.v4 ~proto:Proto.tcp ()));
  ok (Router.restore r id);
  check bool_t "restored" false (Pcu.is_quarantined r.Router.pcu id);
  match Ip_core.process r ~now:100L (mk_pkt ~sport:5000 ()) with
  | Ip_core.Dropped "plugin fault" -> ()
  | v -> Alcotest.failf "expected fault drop after restore, got %a" Ip_core.pp_verdict v

let test_fault_continue_policy () =
  let r = mk_router () in
  Router.set_fault_policy r Fault.Continue_packet;
  ignore (bind_fault_plugin r);
  (* Fail-open: the faulting gate is skipped, the packet forwards. *)
  for i = 1 to 5 do
    match Ip_core.process r ~now:(Int64.of_int i) (mk_pkt ~sport:(3000 + i) ()) with
    | Ip_core.Enqueued 1 -> ()
    | v -> Alcotest.failf "packet %d: expected forward, got %a" i Ip_core.pp_verdict v
  done

let test_fault_unbind_policy () =
  let r = mk_router () in
  Router.set_fault_policy r Fault.Unbind;
  let inst = bind_fault_plugin r in
  (* One fault is enough: the instance is quarantined immediately and
     this very packet continues on the default path. *)
  (match Ip_core.process r ~now:1L (mk_pkt ()) with
   | Ip_core.Enqueued 1 -> ()
   | v -> Alcotest.failf "expected forward, got %a" Ip_core.pp_verdict v);
  check bool_t "quarantined on first fault" true
    (Pcu.is_quarantined r.Router.pcu inst.Plugin.instance_id)

(* A router whose firewall instance burns 50,000 cycles per packet
   under a 10,000-cycle budget. *)
let burning_router () =
  let r = mk_router () in
  Router.set_cycle_budget r (Some 10_000);
  let inst =
    bind_fault_plugin r ~config:[ ("mode", "burn"); ("burn", "50000") ]
  in
  (r, inst)

let check_one_budget_fault label r inst =
  match
    List.find_opt
      (fun (i : Pcu.fault_info) ->
        i.Pcu.instance.Plugin.instance_id = inst.Plugin.instance_id)
      (Pcu.fault_report r.Router.pcu)
  with
  | Some i ->
    check int_t (label ^ ": one fault") 1 i.Pcu.total_faults;
    check bool_t (label ^ ": reason mentions the budget") true
      (String.length i.Pcu.last_fault >= 12
       && String.sub i.Pcu.last_fault 0 12 = "cycle budget")
  | None -> Alcotest.failf "%s: instance missing from fault report" label

let test_fault_cycle_budget () =
  let r, inst = burning_router () in
  (match Ip_core.process r ~now:1L (mk_pkt ()) with
   | Ip_core.Dropped "plugin fault" -> ()
   | v -> Alcotest.failf "expected budget drop, got %a" Ip_core.pp_verdict v);
  check_one_budget_fault "router context" r inst

(* The same containment through both engines.  On a worker domain the
   plugin's own [Cost.charge] and the cycle meter the frame looked up
   once must be the same cell, or the budget check sees no overrun. *)
let test_fault_cycle_budget_engines () =
  List.iter
    (fun mode ->
      let label = Rp_engine.Engine.mode_to_string mode in
      let r, inst = burning_router () in
      let e = Rp_engine.Engine.create mode r in
      check bool_t (label ^ ": accepted") true
        (Rp_engine.Engine.submit e ~now:1L (mk_pkt ()));
      let outcomes = ref [] in
      ignore
        (Rp_engine.Engine.flush e ~f:(fun res ->
             outcomes := res.Rp_engine.Shard.outcome :: !outcomes));
      Rp_engine.Engine.stop e;
      (match !outcomes with
       | [ Rp_engine.Shard.Dropped "plugin fault" ] -> ()
       | _ -> Alcotest.failf "%s: expected one budget drop" label);
      check_one_budget_fault label r inst)
    [ Rp_engine.Engine.Inline; Rp_engine.Engine.Sharded 2 ]

let test_fault_consecutive_resets_on_success () =
  let r = mk_router () in
  (* Faults every 2nd packet: consecutive count keeps resetting, so
     the instance must never be quarantined. *)
  let inst = bind_fault_plugin r ~config:[ ("mode", "raise"); ("every", "2") ] in
  for i = 1 to 20 do
    ignore (Ip_core.process r ~now:(Int64.of_int i) (mk_pkt ~sport:(3000 + i) ()))
  done;
  check bool_t "alternating faults never quarantine" false
    (Pcu.is_quarantined r.Router.pcu inst.Plugin.instance_id)

let test_qdisc_fault_contained () =
  let r = mk_router () in
  let raising_sched =
    {
      (Plugin.simple ~instance_id:77 ~code:0 ~plugin_name:"bad-sched"
         ~gate:Gate.Scheduling (fun _ _ -> Plugin.Continue))
      with
      Plugin.scheduler =
        Some
          {
            Plugin.enqueue = (fun ~now:_ _ _ -> failwith "qdisc boom");
            dequeue = (fun ~now:_ -> Mbuf.dummy);
            backlog = (fun () -> 0);
            sched_stats = (fun () -> []);
          };
    }
  in
  Iface.attach_scheduler (Router.iface r 1) raising_sched;
  let faults0 = Rp_obs.Counter.get (Gate.faults Gate.Scheduling) in
  (match Ip_core.process r ~now:0L (mk_pkt ()) with
   | Ip_core.Dropped "output queue" -> ()
   | v -> Alcotest.failf "expected queue drop, got %a" Ip_core.pp_verdict v);
  check int_t "scheduling fault counted" 1
    (Rp_obs.Counter.get (Gate.faults Gate.Scheduling) - faults0)

(* --- data-path metering fixes ------------------------------------------ *)

let test_partial_fragment_loss_is_visible () =
  let ifaces =
    [ Iface.create ~id:0 (); Iface.create ~id:1 ~mtu:296 ~fifo_limit:2 () ]
  in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let drops_counter = Rp_obs.Registry.counter "ip_core.fragment_drops" in
  let drops0 = Rp_obs.Counter.get drops_counter in
  (* 1000 bytes over a 296-byte MTU -> 4 fragments; only 2 fit the
     queue.  The datagram cannot reassemble, so the verdict is a drop
     and the lost fragments are counted. *)
  (match Ip_core.process r ~now:0L (mk_pkt ()) with
   | Ip_core.Dropped reason ->
     check bool_t
       (Printf.sprintf "partial-loss reason (%s)" reason)
       true
       (String.length reason >= 7 && String.sub reason 0 7 = "partial")
   | v -> Alcotest.failf "expected partial-loss drop, got %a" Ip_core.pp_verdict v);
  let lost = Rp_obs.Counter.get drops_counter - drops0 in
  check bool_t (Printf.sprintf "fragment drops counted (%d)" lost) true (lost > 0);
  check int_t "two fragments queued" 2 (Iface.backlog (Router.iface r 1))

let test_sched_gate_metering_parity () =
  let ifaces =
    [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:1 () ]
  in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let dispatch0 = Rp_obs.Counter.get (Gate.dispatch Gate.Scheduling) in
  let drops0 = Rp_obs.Counter.get (Gate.drops Gate.Scheduling) in
  Rp_obs.Telemetry.enable ~every:1;
  ignore (Ip_core.process r ~now:0L (mk_pkt ()));
  (* Second packet overflows the 1-slot FIFO: a drop at the
     scheduling gate, metered like any other gate drop. *)
  (match Ip_core.process r ~now:1L (mk_pkt ~sport:1001 ()) with
   | Ip_core.Dropped "output queue" -> ()
   | v -> Alcotest.failf "expected queue drop, got %a" Ip_core.pp_verdict v);
  Rp_obs.Telemetry.disable ();
  check int_t "dispatch counted per packet" 2
    (Rp_obs.Counter.get (Gate.dispatch Gate.Scheduling) - dispatch0);
  check int_t "queue drop counted at the gate" 1
    (Rp_obs.Counter.get (Gate.drops Gate.Scheduling) - drops0);
  check bool_t "telemetry span emitted for the scheduling gate" true
    (List.exists
       (fun (e : Rp_obs.Telemetry.event) ->
         e.Rp_obs.Telemetry.kind = Rp_obs.Telemetry.Gate_exit
         && e.Rp_obs.Telemetry.gate = Gate.to_int Gate.Scheduling)
       (Rp_obs.Telemetry.events ()));
  Rp_obs.Telemetry.clear ()

(* --- misc edge cases --------------------------------------------------- *)

let test_router_edge_cases () =
  check bool_t "no interfaces rejected" true
    (try ignore (Router.create ~ifaces:[] ()); false
     with Invalid_argument _ -> true);
  let r = mk_router () in
  check bool_t "bad iface id" true
    (try ignore (Router.iface r 99); false with Invalid_argument _ -> true);
  check bool_t "route to bad iface" true
    (try Router.add_route r (Prefix.of_string "1.0.0.0/8") ~iface:9 (); false
     with Invalid_argument _ -> true);
  Router.add_local_addr r (Ipaddr.v4 1 2 3 4);
  Router.add_local_addr r (Ipaddr.v4 1 2 3 4);
  check int_t "local addrs deduplicated" 1 (List.length (Router.local_addrs r));
  check bool_t "local_addr_for family" true
    (Router.local_addr_for r (Ipaddr.of_string "::1") = None)

let test_iface_attach_rejects_non_scheduler () =
  let ifc = Iface.create ~id:0 () in
  let inst =
    Plugin.simple ~instance_id:1 ~code:0 ~plugin_name:"x" ~gate:Gate.Stats
      (fun _ _ -> Plugin.Continue)
  in
  check bool_t "rejected" true
    (try Iface.attach_scheduler ifc inst; false with Invalid_argument _ -> true)

let test_stats_history_on_evict () =
  let r = mk_router () in
  ok (Pcu.modload r.Router.pcu (module Stats_plugin));
  let inst =
    ok (Pcu.create_instance r.Router.pcu ~plugin:"stats" [ ("history", "4") ])
  in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
       (Rp_classifier.Filter.v4 ()));
  for i = 0 to 2 do
    ignore (Ip_core.process r ~now:(Int64.of_int i) (mk_pkt ~sport:(2000 + i) ()))
  done;
  (* Expire everything: closed flows land in the history. *)
  ignore (Router.expire_flows r ~now:1_000_000_000L ~idle_ns:1L);
  match Stats_plugin.totals_of ~instance_id:inst.Plugin.instance_id with
  | Some t ->
    check int_t "flows closed" 3 t.Stats_plugin.flows_closed;
    check int_t "history recorded" 3 (List.length t.Stats_plugin.history)
  | None -> Alcotest.fail "no totals"

(* --- batch path -------------------------------------------------------- *)

let verdict_equal a b =
  match (a, b) with
  | Ip_core.Enqueued x, Ip_core.Enqueued y -> x = y
  | Ip_core.Delivered_local, Ip_core.Delivered_local -> true
  | Ip_core.Absorbed, Ip_core.Absorbed -> true
  | Ip_core.Dropped x, Ip_core.Dropped y -> String.equal x y
  | _ -> false

(* A router with enough bound plugins that batching has something to
   interleave: a TCP deny at the firewall gate, stats on everything,
   one local address, one route, and the no-route default drop. *)
let batch_router () =
  let r = mk_router () in
  Router.add_local_addr r (Ipaddr.v4 192 168 7 7);
  ok (Pcu.modload r.Router.pcu (module Firewall_plugin));
  let deny =
    ok (Pcu.create_instance r.Router.pcu ~plugin:"firewall" [ ("policy", "deny") ])
  in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:deny.Plugin.instance_id
       (Rp_classifier.Filter.v4 ~proto:Proto.tcp ()));
  ok (Pcu.modload r.Router.pcu (module Stats_plugin));
  let st = ok (Pcu.create_instance r.Router.pcu ~plugin:"stats" []) in
  ok
    (Pcu.register_instance r.Router.pcu ~instance:st.Plugin.instance_id
       (Rp_classifier.Filter.v4 ()));
  r

(* Mixed stream: forwards, no-route drops, TTL expiries, firewall
   drops, local deliveries — every verdict arm of the data path. *)
let batch_stream ~seed ~count =
  let rng = Random.State.make [| seed |] in
  Array.init count (fun _ ->
      let roll = Random.State.int rng 10 in
      let dst =
        if roll = 0 then "8.8.8.8"
        else if roll = 1 then "192.168.7.7"
        else Printf.sprintf "192.168.1.%d" (1 + Random.State.int rng 8)
      in
      let ttl = if roll = 2 then 1 else 64 in
      let proto = if roll >= 8 then Proto.tcp else Proto.udp in
      let sport = 1024 + Random.State.int rng 16 in
      mk_pkt ~ttl ~dst ~proto ~sport ())

(* Run the same stream through [process] per packet on one router and
   through [process_batch] on an identical second router; return the
   verdict arrays, the charged model cycles of each, and the output
   backlogs. *)
let batch_vs_packet ~seed ~count =
  let a = batch_router () in
  let b = batch_router () in
  let pkts_a = batch_stream ~seed ~count in
  let pkts_b = batch_stream ~seed ~count in
  let va, cost_a =
    Cost.measure (fun () -> Array.map (Ip_core.process a ~now:0L) pkts_a)
  in
  let acc = ref [] in
  let (), cost_b =
    Cost.measure (fun () ->
        Ip_core.process_batch b ~now:0L pkts_b ~n:count ~emit:(fun _ v ->
            acc := v :: !acc))
  in
  let vb = Array.of_list (List.rev !acc) in
  let backlog r = Iface.backlog (Router.iface r 1) in
  (va, vb, cost_a, cost_b, backlog a, backlog b)

let test_batch_equals_packet () =
  let va, vb, cost_a, cost_b, qa, qb = batch_vs_packet ~seed:7 ~count:64 in
  check int_t "one verdict per packet" (Array.length va) (Array.length vb);
  Array.iteri
    (fun i v ->
      if not (verdict_equal v vb.(i)) then
        Alcotest.failf "packet %d: %a per-packet vs %a batched" i
          Ip_core.pp_verdict v Ip_core.pp_verdict vb.(i))
    va;
  check int_t "identical model cycles" cost_a cost_b;
  check int_t "identical output backlog" qa qb

let prop_batch_equals_packet =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"process_batch matches process"
       (QCheck2.Gen.int_bound 100_000)
       (fun seed ->
         let va, vb, cost_a, cost_b, qa, qb =
           batch_vs_packet ~seed ~count:32
         in
         cost_a = cost_b && qa = qb
         && Array.length va = Array.length vb
         && Array.for_all2 verdict_equal va vb))

let () =
  Alcotest.run "rp_core"
    [
      ( "gate",
        [
          Alcotest.test_case "numbering" `Quick test_gate_numbering;
          Alcotest.test_case "plugin codes" `Quick test_plugin_codes;
        ] );
      ( "pcu",
        [
          Alcotest.test_case "modload/unload" `Quick test_pcu_modload;
          Alcotest.test_case "instance lifecycle" `Quick test_pcu_instance_lifecycle;
          Alcotest.test_case "register routes to gate table" `Quick
            test_pcu_register_routes_to_gate_table;
          Alcotest.test_case "messages" `Quick test_pcu_messages;
        ] );
      ( "route_table",
        [
          Alcotest.test_case "lpm + metric" `Quick test_route_table;
          Alcotest.test_case "a walking resolve allocates nothing" `Quick
            test_route_resolve_alloc;
        ] );
      ( "ip_core",
        [
          Alcotest.test_case "forwarding" `Quick test_forwarding_basic;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
          Alcotest.test_case "firewall gate" `Quick test_firewall_gate_drops;
          Alcotest.test_case "most specific policy" `Quick
            test_most_specific_firewall_policy;
          Alcotest.test_case "ipv6 options gate" `Quick test_options_gate_v6;
          Alcotest.test_case "punt handler" `Quick test_punt_handler;
          Alcotest.test_case "local delivery" `Quick test_local_delivery;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch = per-packet" `Quick test_batch_equals_packet;
          prop_batch_equals_packet;
        ] );
      ( "faults",
        [
          Alcotest.test_case "contain + auto-quarantine + restore" `Quick
            test_fault_contained_and_quarantined;
          Alcotest.test_case "continue policy" `Quick test_fault_continue_policy;
          Alcotest.test_case "unbind policy" `Quick test_fault_unbind_policy;
          Alcotest.test_case "cycle budget" `Quick test_fault_cycle_budget;
          Alcotest.test_case "cycle budget on both engines" `Quick
            test_fault_cycle_budget_engines;
          Alcotest.test_case "success resets consecutive" `Quick
            test_fault_consecutive_resets_on_success;
          Alcotest.test_case "raising qdisc contained" `Quick
            test_qdisc_fault_contained;
        ] );
      ( "metering",
        [
          Alcotest.test_case "partial fragment loss" `Quick
            test_partial_fragment_loss_is_visible;
          Alcotest.test_case "scheduling gate parity" `Quick
            test_sched_gate_metering_parity;
        ] );
      ( "edges",
        [
          Alcotest.test_case "router edge cases" `Quick test_router_edge_cases;
          Alcotest.test_case "iface attach check" `Quick
            test_iface_attach_rejects_non_scheduler;
          Alcotest.test_case "stats flow history" `Quick test_stats_history_on_evict;
        ] );
      ( "cost",
        [
          Alcotest.test_case "overhead shape (Table 3)" `Quick
            test_cost_overhead_shape;
          Alcotest.test_case "no gates, no overhead" `Quick
            test_gate_disabled_costs_nothing;
        ] );
    ]
