(* Benchmark harness: regenerates every evaluation artifact of the
   paper (see EXPERIMENTS.md for the index and the paper-vs-measured
   discussion).

     table2          worst-case memory accesses of a filter lookup
     table3          per-packet processing cost of the four kernels
     fig-classifier  filter-table lookup vs number of filters (§7.1)
     fig-flowtable   flow-table behaviour vs concurrent flows (§7.2)
     fig-drr         weighted DRR link sharing (§6.1 demonstration)
     fig-hfsc        H-FSC hierarchy + delay/bandwidth decoupling (§6)
     fig-gates       framework overhead vs number of gates (§3.2 claim)
     fig-cache       flow-cache hit rate vs cache size (§3 premise)
     fig-l4          L4 switching through the classifier (§8)
     fig-collapse    wildcard-chain collapsing ablation (§5.1.2)
     fig-grid        grid-of-tries vs set pruning, 2D filters (§5.1.2)
     fig-shard       multicore engine throughput scaling, 1..4 domains
     fig-trace       hot-path tracing overhead vs sampling period
     fig-churn       control-plane churn: delta publication vs recompile
     fig-batch       batched zero-copy data path throughput time series
     fig-coldstart   cold-start classification, compiled vs per-gate
     fig-session     unified session subsystem: NAT+conntrack+QoS per-hit cost
     fig-latency     end-to-end latency SLOs: quantiles, exemplars, T3 identity
     fig-zipf        million-flow Zipf long-haul soak (arrival/expiry churn)
     micro           Bechamel wall-clock micro-benchmarks

   Run all sections: [dune exec bench/main.exe]; or name the sections
   to run, e.g. [dune exec bench/main.exe -- table3 fig-drr].  The run
   ends by checking the gates of the sections it ran (bench/gates.ml)
   and exits 1 if one fails, 2 on a bad argument. *)

open Rp_pkt
open Rp_core
open Bench_util

let ok = function
  | Ok v -> v
  | Error e -> failwith e

let pmgr r cmd = ok (Rp_control.Pmgr.exec r cmd)

(* ---------------------------------------------------------------------- *)
(* Table 2: memory accesses for a worst-case filter lookup.               *)
(* ---------------------------------------------------------------------- *)

let table2 () =
  section "Table 2: memory accesses for a filter lookup (worst case)";
  Printf.printf
    "Filter tables use the BSPL (binary search on prefix lengths) BMP\n\
     plugin; the 'ladder' filter set installs one filter per prefix\n\
     length so the address search must cover every length.\n";
  let run ~family ~bulk ~paper_total =
    let name = match family with `V4 -> "IPv4" | `V6 -> "IPv6" in
    let dag = Workloads.build_dag ~ladder:true ~family bulk in
    let key =
      match family with
      | `V4 -> Workloads.ladder_key_v4
      | `V6 -> Workloads.ladder_key_v6
    in
    (* Warm: BSPL structures build lazily on first use. *)
    ignore (Rp_classifier.Dag.lookup dag key);
    Rp_lpm.Access.reset ();
    let result, accesses =
      Rp_lpm.Access.measure (fun () -> Rp_classifier.Dag.lookup dag key)
    in
    (match result with
     | Some _ -> ()
     | None -> Printf.printf "  (!) ladder key unexpectedly missed\n");
    (* Worst case over random traffic too. *)
    let worst = ref accesses in
    for _ = 1 to 5000 do
      let k =
        match family with
        | `V4 -> Workloads.random_key_v4 ()
        | `V6 -> Workloads.ladder_key_v6
      in
      let _, a = Rp_lpm.Access.measure (fun () -> Rp_classifier.Dag.lookup dag k) in
      if a > !worst then worst := a
    done;
    Printf.printf
      "  %s: %d filters installed, %d trie nodes\n" name
      (Rp_classifier.Dag.length dag)
      (Rp_classifier.Dag.node_count dag);
    Printf.printf
      "  %s full-walk accesses: %d   worst observed: %d   paper: %d\n" name
      accesses !worst paper_total;
    Printf.printf "  %s worst-case lookup time at 60 ns/access: %.2f us (paper: %.1f us)\n"
      name
      (float_of_int !worst *. 60.0 /. 1000.0)
      (float_of_int paper_total *. 60.0 /. 1000.0);
    (* Gated against the paper's 20/24 in bench/gates.ml. *)
    let slug = String.lowercase_ascii name in
    Rp_obs.Registry.set
      (Printf.sprintf "bench.table2.%s.worst_accesses" slug)
      (float_of_int !worst);
    Rp_obs.Registry.set
      (Printf.sprintf "bench.table2.%s.full_walk_accesses" slug)
      (float_of_int accesses);
    Gc.full_major ()
  in
  Printf.printf
    "\n  %-44s %6s %6s\n" "breakdown (paper Table 2)" "IPv4" "IPv6";
  Printf.printf "  %-44s %6d %6d\n" "BMP function pointer" 1 1;
  Printf.printf "  %-44s %6d %6d\n" "index hash function pointer" 1 1;
  Printf.printf "  %-44s %6d %6d\n" "IP address lookups (2 x log2 W / 2)" 10 14;
  Printf.printf "  %-44s %6d %6d\n" "port number lookups" 2 2;
  Printf.printf "  %-44s %6d %6d\n" "DAG edges" 6 6;
  Printf.printf "  %-44s %6d %6d\n" "total (paper)" 20 24;
  Printf.printf "\nmeasured on this implementation:\n";
  run ~family:`V4 ~bulk:30_000 ~paper_total:20;
  run ~family:`V6 ~bulk:15_000 ~paper_total:24

(* ---------------------------------------------------------------------- *)
(* Table 3: overall packet processing time, four kernels.                 *)
(* ---------------------------------------------------------------------- *)

(* Extra inert filters so "the system had 16 filters installed". *)
let install_extra_filters r ~gate ~upto =
  let aiu = Router.aiu r in
  for i = 1 to upto do
    let f =
      Rp_classifier.Filter.v4
        ~src:(Prefix.make (Ipaddr.v4 172 16 i 0) 24)
        ~proto:Proto.tcp ()
    in
    Rp_classifier.Aiu.bind aiu ~gate f
      (Plugin.simple ~instance_id:(9000 + i) ~code:0 ~plugin_name:"inert"
         ~gate:(Option.get (Gate.of_int gate))
         (fun _ _ -> Plugin.Continue))
  done

let table3_run ?(after = ignore) ~label ~slug ~configure () =
  let s =
    configure ()
  in
  Rp_sim.Scenario.table3_workload s ~flows:3 ~per_flow:2000 ~pkt_len:8192 ();
  Rp_sim.Scenario.run s ~seconds:1.0;
  after ();
  let cycles = Rp_sim.Net.cycles_per_packet s.Rp_sim.Scenario.node in
  Rp_obs.Registry.set (Printf.sprintf "bench.table3.%s.cycles" slug) cycles;
  (label, cycles)

let table3 () =
  section "Table 3: overall packet processing time (4 kernels)";
  Printf.printf
    "Workload: 3 concurrent UDP flows of 8 KB datagrams (no\n\
     fragmentation), 2000 packets/flow, 16 filters installed, cycle\n\
     cost model calibrated to the paper's P6/233 (see Cost).\n\n";
  let fast_out = 10_000_000_000L in
  let mk_scn ~mode ~gates () =
    Rp_sim.Scenario.single_router ~mode ~gates ~in_ifaces:1
      ~out_bandwidth_bps:fast_out ()
  in
  let best_effort () = mk_scn ~mode:Router.Best_effort ~gates:[] () in
  let plugins_3gates () =
    let gates = [ Gate.Ip_options; Gate.Security_in; Gate.Stats ] in
    let s = mk_scn ~mode:Router.Plugins ~gates () in
    let r = s.Rp_sim.Scenario.router in
    List.iter
      (fun (g, n) ->
        ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate:g ~name:n));
        ignore (pmgr r (Printf.sprintf "create %s" n));
        ())
      [ (Gate.Ip_options, "e-opt"); (Gate.Security_in, "e-sec"); (Gate.Stats, "e-stat") ];
    ignore (pmgr r "bind 1 <*, *, *, *, *, *>");
    ignore (pmgr r "bind 2 <*, *, *, *, *, *>");
    ignore (pmgr r "bind 3 <*, *, *, *, *, *>");
    install_extra_filters r ~gate:(Gate.to_int Gate.Ip_options) ~upto:13;
    s
  in
  let monolithic_drr () =
    let s = mk_scn ~mode:Router.Best_effort ~gates:[] () in
    let r = s.Rp_sim.Scenario.router in
    ignore (pmgr r "modload drr");
    ignore (pmgr r "create drr");
    ignore (pmgr r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface));
    s
  in
  (* The ALTQ row's DRR finds every flow's queue by key, so after the
     run it may hold no more queues than it has packets queued. *)
  let drr_held () =
    let m k v =
      Rp_obs.Registry.set
        (Printf.sprintf "bench.table3.monolithic_drr.%s" k)
        (float_of_int (v ~instance_id:1))
    in
    m "drr_queues" Rp_sched.Drr_plugin.flow_count;
    m "drr_backlog" Rp_sched.Drr_plugin.backlog
  in
  let plugins_drr () =
    let s = mk_scn ~mode:Router.Plugins ~gates:[ Gate.Scheduling ] () in
    let r = s.Rp_sim.Scenario.router in
    ignore (pmgr r "modload drr");
    ignore (pmgr r "create drr");
    ignore (pmgr r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface));
    ignore (pmgr r "bind 1 <*, *, UDP, *, *, *>");
    install_extra_filters r ~gate:(Gate.to_int Gate.Scheduling) ~upto:15;
    s
  in
  let rows =
    [
      table3_run ~label:"unmodified best-effort kernel" ~slug:"best_effort"
        ~configure:best_effort ();
      table3_run ~label:"plugin framework (3 gates, empty plugins)"
        ~slug:"plugins_3gates" ~configure:plugins_3gates ();
      table3_run ~label:"monolithic kernel + built-in DRR (ALTQ-like)"
        ~slug:"monolithic_drr" ~configure:monolithic_drr ~after:drr_held ();
      table3_run ~label:"plugin framework + DRR plugin (1 gate)"
        ~slug:"plugins_drr" ~configure:plugins_drr ();
    ]
  in
  let paper = [ (6460, 27.73); (6970, 29.91); (8160, 35.0); (8110, 34.8) ] in
  let base_cycles =
    match rows with (_, c) :: _ -> c | [] -> 1.0
  in
  Printf.printf "  %-45s %9s %8s %9s %11s %14s\n" "kernel" "cycles" "us" "overhead"
    "pkts/s" "paper(cyc/us)";
  List.iter2
    (fun (label, cycles) (p_cyc, p_us) ->
      let us = Cost.us_of_cycles (int_of_float cycles) in
      let overhead = (cycles -. base_cycles) /. base_cycles *. 100.0 in
      Printf.printf "  %-45s %9.0f %8.2f %+8.1f%% %11.0f   %6d/%.2f\n" label
        cycles us overhead (1e6 /. us) p_cyc p_us)
    rows paper;
  Printf.printf
    "\n  shape check: plugin overhead %.1f%% (paper: 8%%); DRR-over-best-effort\n\
    \  %.1f%% (paper: ~26%%); plugin DRR vs monolithic DRR: %+.1f%% (paper: -0.6%%)\n"
    (let _, c = List.nth rows 1 in
     (c -. base_cycles) /. base_cycles *. 100.0)
    (let _, c = List.nth rows 2 in
     (c -. base_cycles) /. base_cycles *. 100.0)
    (let _, c3 = List.nth rows 3 in
     let _, c2 = List.nth rows 2 in
     (c3 -. c2) /. c2 *. 100.0)

(* ---------------------------------------------------------------------- *)
(* §7.1: classifier scaling with the number of filters.                   *)
(* ---------------------------------------------------------------------- *)

let key_matching (f : Rp_classifier.Filter.t) =
  let addr_of p = p.Prefix.addr in
  Flow_key.make ~src:(addr_of f.Rp_classifier.Filter.src)
    ~dst:(addr_of f.Rp_classifier.Filter.dst)
    ~proto:
      (match f.Rp_classifier.Filter.proto with
       | Rp_classifier.Filter.Num p -> p
       | Rp_classifier.Filter.Any_num -> Proto.udp)
    ~sport:
      (match f.Rp_classifier.Filter.sport with
       | Rp_classifier.Filter.Port p -> p
       | Rp_classifier.Filter.Port_range (lo, _) -> lo
       | Rp_classifier.Filter.Any_port -> 4321)
    ~dport:
      (match f.Rp_classifier.Filter.dport with
       | Rp_classifier.Filter.Port p -> p
       | Rp_classifier.Filter.Port_range (lo, _) -> lo
       | Rp_classifier.Filter.Any_port -> 4321)
    ~iface:0

let fig_classifier () =
  section "Figure (7.1): filter-table lookup vs number of filters";
  Printf.printf
    "Queries are drawn from the installed filters (hits) plus random\n\
     traffic (mostly misses).  The paper's claim: lookup cost is\n\
     O(fields), independent of the number of filters.\n\n";
  Printf.printf "  %-10s %8s %12s %12s %12s %14s\n" "engine" "filters"
    "avg access" "worst" "ns/lookup" "trie nodes";
  List.iter
    (fun engine ->
      let module E = (val engine : Rp_lpm.Lpm_intf.S) in
      List.iter
        (fun n ->
          let dag = Workloads.build_dag ~engine ~family:`V4 n in
          let filters = ref [] in
          Rp_classifier.Dag.iter (fun f _ -> filters := f :: !filters) dag;
          let filters = Array.of_list !filters in
          let queries =
            Array.init 4000 (fun i ->
                if i land 1 = 0 then
                  key_matching filters.(i * 7919 mod Array.length filters)
                else Workloads.random_key_v4 ())
          in
          (* Warm up lazily-built structures. *)
          Array.iter (fun k -> ignore (Rp_classifier.Dag.lookup dag k)) queries;
          Rp_lpm.Access.reset ();
          let worst = ref 0 and total = ref 0 in
          Array.iter
            (fun k ->
              let _, a =
                Rp_lpm.Access.measure (fun () -> Rp_classifier.Dag.lookup dag k)
              in
              worst := max !worst a;
              total := !total + a)
            queries;
          Rp_lpm.Access.set_enabled false;
          let idx = ref 0 in
          let ns =
            time_ns 20000 (fun () ->
                ignore (Rp_classifier.Dag.lookup dag queries.(!idx));
                idx := (!idx + 1) land 4095 mod Array.length queries)
          in
          Rp_lpm.Access.set_enabled true;
          Printf.printf "  %-10s %8d %12.1f %12d %12.1f %14d\n" E.name n
            (float_of_int !total /. float_of_int (Array.length queries))
            !worst ns
            (Rp_classifier.Dag.node_count dag);
          Gc.full_major ())
        [ 16; 256; 1024; 4096; 16384; 50_000 ])
    [ Rp_lpm.Engines.patricia; Rp_lpm.Engines.bspl; Rp_lpm.Engines.cpe ];
  (* The baseline the paper contrasts with: O(n) linear classifiers. *)
  subsection "linear-scan baseline (the 'typical filter algorithm')";
  Printf.printf "  %-10s %8s %12s\n" "engine" "filters" "ns/lookup";
  List.iter
    (fun n ->
      let linear = Rp_classifier.Linear_ref.create () in
      for i = 0 to n - 1 do
        Rp_classifier.Linear_ref.insert linear (Workloads.bulk_filter_v4 ()) i
      done;
      Rp_lpm.Access.set_enabled false;
      let ns =
        time_ns
          (max 200 (200_000 / n))
          (fun () ->
            ignore
              (Rp_classifier.Linear_ref.classify linear (Workloads.random_key_v4 ())))
      in
      Rp_lpm.Access.set_enabled true;
      Printf.printf "  %-10s %8d %12.1f\n" "linear" n ns)
    [ 16; 256; 1024; 4096 ]

(* ---------------------------------------------------------------------- *)
(* §7.2: flow table behaviour.                                            *)
(* ---------------------------------------------------------------------- *)

let fig_flowtable () =
  section "Figure (7.2): flow table (cache) behaviour";
  Printf.printf
    "32768 buckets (the kernel default); records from the exponential\n\
     free list.  Cycle model: 17-cycle hash + 14 cycles (60 ns) per\n\
     dependent access; the paper reports 1.3 us best case for a cached\n\
     IPv6 flow lookup on the P6/233.\n\n";
  Printf.printf "  %-9s %7s %12s %10s %12s %12s %11s\n" "flows" "load"
    "avg access" "max chain" "model us" "hit ns" "miss ns";
  List.iter
    (fun n ->
      let ft = Rp_classifier.Flow_table.create ~gates:1 () in
      let keys =
        Array.init n (fun i ->
            Flow_key.make
              ~src:(Ipaddr.v4 10 (i lsr 16 land 0xFF) (i lsr 8 land 0xFF) (i land 0xFF))
              ~dst:(Ipaddr.v4 192 168 1 1) ~proto:Proto.udp
              ~sport:(i land 0xFFFF) ~dport:9000 ~iface:0)
      in
      Array.iter (fun k -> ignore (Rp_classifier.Flow_table.insert ft k ~now:0L)) keys;
      Rp_lpm.Access.reset ();
      let total = ref 0 in
      let probes = 20_000 in
      for i = 0 to probes - 1 do
        let k = keys.(i * 104729 mod n) in
        let _, a =
          Rp_lpm.Access.measure (fun () ->
              Rp_classifier.Flow_table.lookup ft k ~now:1L)
        in
        total := !total + a
      done;
      let stats = Rp_classifier.Flow_table.stats ft in
      let avg_access = float_of_int !total /. float_of_int probes in
      let model_cycles = 17.0 +. (avg_access *. 14.0) in
      Rp_lpm.Access.set_enabled false;
      let i = ref 0 in
      let hit_ns =
        time_ns 50_000 (fun () ->
            ignore (Rp_classifier.Flow_table.lookup ft keys.(!i * 31 mod n) ~now:2L);
            incr i)
      in
      let miss_key =
        Flow_key.make ~src:(Ipaddr.v4 1 2 3 4) ~dst:(Ipaddr.v4 5 6 7 8)
          ~proto:Proto.tcp ~sport:1 ~dport:1 ~iface:0
      in
      let miss_ns =
        time_ns 50_000 (fun () ->
            ignore (Rp_classifier.Flow_table.lookup ft miss_key ~now:2L))
      in
      Rp_lpm.Access.set_enabled true;
      Printf.printf "  %-9d %7.2f %12.2f %10d %12.2f %12.1f %11.1f\n" n
        (float_of_int n /. 32768.0)
        avg_access stats.Rp_classifier.Flow_table.chain_max
        (Cost.us_of_cycles (int_of_float model_cycles))
        hit_ns miss_ns)
    [ 1024; 8192; 32768; 131_072 ];
  Printf.printf
    "\n  (model us is the paper's metric; 1.3 us ~ a cached lookup with a\n\
    \   short chain on the P6/233)\n"

(* ---------------------------------------------------------------------- *)
(* §6.1: weighted DRR link sharing.                                       *)
(* ---------------------------------------------------------------------- *)

let fig_drr () =
  section "Figure (6.1): weighted DRR link sharing";
  let out_bw = 8_000_000L in
  let weights = [ (1, 1); (2, 1); (3, 2); (4, 4) ] in
  let run_with ~qdisc =
    let s =
      Rp_sim.Scenario.single_router ~in_ifaces:1 ~out_bandwidth_bps:out_bw ()
    in
    let r = s.Rp_sim.Scenario.router in
    (match qdisc with
     | `Drr ->
       ignore (pmgr r "modload drr");
       ignore (pmgr r "create drr");
       ignore (pmgr r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface));
       ignore (pmgr r "bind 1 <*, *, UDP, *, *, *>");
       List.iter
         (fun (id, w) ->
           if w > 1 then
             ok
               (Rp_sched.Drr_plugin.reserve ~instance_id:1
                  ~key:(Rp_sim.Scenario.sink_key ~id ())
                  ~rate_bps:(w * 1_000_000)))
         weights;
       (* weight-1 flows: reserve the base rate so weights are 1,1,2,4 *)
       List.iter
         (fun (id, w) ->
           if w = 1 then
             ok
               (Rp_sched.Drr_plugin.reserve ~instance_id:1
                  ~key:(Rp_sim.Scenario.sink_key ~id ())
                  ~rate_bps:1_000_000))
         weights
     | `Fifo -> ());
    (* Each flow offers 4 Mb/s: 16 Mb/s onto an 8 Mb/s link. *)
    List.iter
      (fun (id, _) ->
        ignore
          (Rp_sim.Scenario.add_flow s
             {
               Rp_sim.Traffic.key = Rp_sim.Scenario.sink_key ~id ();
               pkt_len = 1000;
               pattern = Rp_sim.Traffic.Cbr 500.0;
               start_ns = 0L;
               stop_ns = Rp_sim.Sim.ns_of_sec 4.0;
               seed = id;
             }))
      weights;
    Rp_sim.Scenario.run s ~seconds:5.0;
    List.map
      (fun (id, w) ->
        let g =
          match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink (Rp_sim.Scenario.sink_key ~id ()) with
          | Some fs -> Rp_sim.Sink.goodput_bps fs
          | None -> 0.0
        in
        (id, w, g))
      weights
  in
  Printf.printf
    "4 UDP flows, each offering 4 Mb/s to an 8 Mb/s link (2x overload);\n\
     reservations give weights 1:1:2:4.\n\n";
  let drr = run_with ~qdisc:`Drr in
  let total_w = List.fold_left (fun a (_, w, _) -> a + w) 0 drr in
  Printf.printf "  weighted DRR:\n";
  Printf.printf "  %-6s %7s %14s %9s %10s\n" "flow" "weight" "goodput Mb/s"
    "share" "expected";
  let total_g = List.fold_left (fun a (_, _, g) -> a +. g) 0.0 drr in
  List.iter
    (fun (id, w, g) ->
      Printf.printf "  %-6d %7d %14.2f %8.1f%% %9.1f%%\n" id w (mbps g)
        (g /. total_g *. 100.0)
        (float_of_int w /. float_of_int total_w *. 100.0);
      let set what v =
        Rp_obs.Registry.set (Printf.sprintf "bench.fig_drr.flow%d.%s" id what) v
      in
      set "share" (g /. total_g);
      set "goodput_mbps" (mbps g))
    drr;
  let fifo = run_with ~qdisc:`Fifo in
  let total_gf = List.fold_left (fun a (_, _, g) -> a +. g) 0.0 fifo in
  Printf.printf "\n  FIFO baseline (no isolation):\n";
  Printf.printf "  %-6s %7s %14s %9s\n" "flow" "weight" "goodput Mb/s" "share";
  List.iter
    (fun (id, w, g) ->
      Printf.printf "  %-6d %7d %14.2f %8.1f%%\n" id w (mbps g)
        (g /. total_gf *. 100.0))
    fifo

(* ---------------------------------------------------------------------- *)
(* §6: H-FSC hierarchy and delay/bandwidth decoupling.                    *)
(* ---------------------------------------------------------------------- *)

let fig_hfsc () =
  section "Figure (6.2): H-FSC hierarchical link sharing";
  let out_bw = 10_000_000L in
  let link_Bps = Int64.to_float out_bw /. 8.0 in
  let s =
    Rp_sim.Scenario.single_router ~in_ifaces:1 ~out_bandwidth_bps:out_bw ()
  in
  let r = s.Rp_sim.Scenario.router in
  ignore (pmgr r "modload hfsc");
  ignore (pmgr r "create hfsc");
  ignore (pmgr r (Printf.sprintf "attach 1 %d" s.Rp_sim.Scenario.out_iface));
  ignore (pmgr r "bind 1 <*, *, UDP, *, *, *>");
  let sc = Rp_sched.Service_curve.linear in
  ok (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"agencyA" ~fsc:(sc (0.6 *. link_Bps)) ());
  ok (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"agencyB" ~fsc:(sc (0.4 *. link_Bps)) ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"A-voice"
       ~parent:"agencyA"
       ~rsc:(Rp_sched.Service_curve.make ~m1:(2.0 *. link_Bps /. 10.0) ~d:0.02
               ~m2:(0.05 *. link_Bps))
       ~fsc:(sc (0.1 *. link_Bps)) ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"A-data"
       ~parent:"agencyA" ~fsc:(sc (0.9 *. link_Bps)) ());
  ok
    (Rp_sched.Hfsc_plugin.add_class ~instance_id:1 ~cname:"B-bulk"
       ~parent:"agencyB" ~fsc:(sc link_Bps) ());
  let assign id cname =
    ok
      (Rp_sched.Hfsc_plugin.assign ~instance_id:1
         ~key:(Rp_sim.Scenario.sink_key ~id ())
         ~cname)
  in
  assign 1 "A-voice";
  assign 2 "A-data";
  assign 3 "B-bulk";
  (* Voice: 64 kb/s of small packets; data and bulk: 12 Mb/s each
     (heavy overload). *)
  let add id ~len ~pps =
    ignore
      (Rp_sim.Scenario.add_flow s
         {
           Rp_sim.Traffic.key = Rp_sim.Scenario.sink_key ~id ();
           pkt_len = len;
           pattern = Rp_sim.Traffic.Cbr pps;
           start_ns = 0L;
           stop_ns = Rp_sim.Sim.ns_of_sec 4.0;
           seed = id;
         })
  in
  add 1 ~len:200 ~pps:40.0;
  add 2 ~len:1000 ~pps:1500.0;
  add 3 ~len:1000 ~pps:1500.0;
  Rp_sim.Scenario.run s ~seconds:5.0;
  let report id cname slug =
    match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink (Rp_sim.Scenario.sink_key ~id ()) with
    | Some fs ->
      let mean, mx = Rp_sim.Sink.latency fs in
      let goodput = mbps (Rp_sim.Sink.goodput_bps fs) in
      Printf.printf "  %-8s %14.3f %14.2f %12.2f\n" cname goodput
        (mean *. 1000.0) (mx *. 1000.0);
      let set what v =
        Rp_obs.Registry.set (Printf.sprintf "bench.fig_hfsc.%s.%s" slug what) v
      in
      set "goodput_mbps" goodput;
      set "mean_latency_ms" (mean *. 1000.0);
      set "max_latency_ms" (mx *. 1000.0)
    | None -> Printf.printf "  %-8s (no packets delivered)\n" cname
  in
  Printf.printf
    "10 Mb/s link; agencies share 60/40; inside A, voice has a concave\n\
     RSC (m1 = 2 Mb/s for 20 ms, m2 = 0.5 Mb/s) but only a 10%% fair\n\
     share.  Voice offers 64 kb/s; data and bulk offer 12 Mb/s each.\n\n";
  Printf.printf "  %-8s %14s %14s %12s\n" "class" "goodput Mb/s" "mean lat ms" "max lat ms";
  report 1 "A-voice" "voice";
  report 2 "A-data" "data";
  report 3 "B-bulk" "bulk";
  Printf.printf
    "\n  expectation: voice gets its full 64 kb/s with millisecond-scale\n\
    \  latency (RSC decouples delay from its small share); data:bulk\n\
    \  split the rest roughly (0.6*10-0.064):(0.4*10) Mb/s.\n"

(* ---------------------------------------------------------------------- *)
(* §3.2: gate scaling — overhead vs number of gates.                      *)
(* ---------------------------------------------------------------------- *)

let fig_gates () =
  section "Figure (3.2 claim): overhead vs number of gates";
  Printf.printf
    "Cached packets pay one indirect call per gate; only the first\n\
     packet of a flow pays the per-gate filter-table lookups.\n\n";
  Printf.printf "  %-7s %16s %16s %18s\n" "gates" "uncached cycles"
    "cached cycles" "cached extra/gate";
  let all = Array.of_list Gate.all in
  List.iter
    (fun n ->
      let gates = Array.to_list (Array.sub all 0 n) in
      let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
      let r = Router.create ~mode:Router.Plugins ~gates ~ifaces () in
      Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
      List.iteri
        (fun i g ->
          let name = Printf.sprintf "empty-%d" i in
          ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate:g ~name));
          let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
          ok
            (Pcu.register_instance r.Router.pcu
               ~instance:inst.Plugin.instance_id
               (Rp_classifier.Filter.v4 ())))
        gates;
      let key id =
        Flow_key.make ~src:(Ipaddr.v4 10 0 0 id) ~dst:(Ipaddr.v4 192 168 1 1)
          ~proto:Proto.udp ~sport:1000 ~dport:9000 ~iface:0
      in
      let process m =
        let v, c = Cost.measure (fun () -> Ip_core.process r ~now:0L m) in
        (match v with
         | Ip_core.Enqueued out -> ignore (Iface.dequeue (Router.iface r out) ~now:0L)
         | Ip_core.Delivered_local | Ip_core.Absorbed | Ip_core.Dropped _ -> ());
        c
      in
      let uncached = process (Mbuf.synth ~key:(key 1) ~len:1000 ()) in
      (* average the cached cost over a few packets *)
      let cached_total = ref 0 in
      for _ = 1 to 50 do
        cached_total := !cached_total + process (Mbuf.synth ~key:(key 1) ~len:1000 ())
      done;
      let cached = float_of_int !cached_total /. 50.0 in
      Printf.printf "  %-7d %16d %16.0f %18.1f\n" n uncached cached
        ((cached -. float_of_int Cost.base_forward) /. float_of_int (max 1 n)))
    [ 1; 2; 3; 4; 6; 8 ]

(* ---------------------------------------------------------------------- *)
(* Flow-cache effectiveness under realistic (heavy-tailed) traffic.       *)
(* ---------------------------------------------------------------------- *)

(* The paper's performance premise: "caching that exploits the
   flow-like characteristics of Internet traffic".  Heavy-tailed flow
   sizes + temporal locality mean even a small flow cache absorbs most
   packets. *)
let fig_cache () =
  section "Figure (premise): flow-cache hit rate vs cache size";
  Printf.printf
    "20000 flows with Pareto(alpha=1.2) sizes (1..2000 packets),\n\
     interleaved over a 64-flow concurrency window; 3 gates enabled.\n\n";
  let rng = Random.State.make [| 77 |] in
  let pareto () =
    let u = Random.State.float rng 1.0 in
    let u = if u < 1e-9 then 1e-9 else u in
    min 2000 (int_of_float (1.0 /. (u ** (1.0 /. 1.2))))
  in
  let n_flows = 20_000 in
  let sizes = Array.init n_flows (fun _ -> pareto ()) in
  let total_packets = Array.fold_left ( + ) 0 sizes in
  (* Interleave: a window of 64 concurrently active flows; each step
     emits one packet from a random active flow. *)
  let sequence = ref [] in
  let window = Queue.create () in
  let next_flow = ref 0 in
  let active = ref [] in
  let refill () =
    while List.length !active < 64 && !next_flow < n_flows do
      active := (!next_flow, ref sizes.(!next_flow)) :: !active;
      incr next_flow
    done
  in
  ignore window;
  refill ();
  while !active <> [] do
    let idx = Random.State.int rng (List.length !active) in
    let id, remaining = List.nth !active idx in
    sequence := id :: !sequence;
    decr remaining;
    if !remaining = 0 then begin
      active := List.filter (fun (i, _) -> i <> id) !active;
      refill ()
    end
  done;
  let sequence = Array.of_list (List.rev !sequence) in
  Printf.printf "  %d packets over %d flows (mean flow %.1f pkts)\n\n"
    total_packets n_flows
    (float_of_int total_packets /. float_of_int n_flows);
  Printf.printf "  %-12s %10s %10s %12s %14s\n" "cache size" "hit rate"
    "recycled" "cycles/pkt" "vs infinite";
  let run cache_size =
    let gates = [ Gate.Ip_options; Gate.Security_in; Gate.Stats ] in
    let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:max_int () ] in
    let r =
      Router.create ~mode:Router.Plugins ~gates ~flow_max:cache_size ~ifaces ()
    in
    Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
    List.iter
      (fun (g, n) ->
        ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate:g ~name:n));
        let i = ok (Pcu.create_instance r.Router.pcu ~plugin:n []) in
        ok
          (Pcu.register_instance r.Router.pcu ~instance:i.Plugin.instance_id
             (Rp_classifier.Filter.v4 ())))
      [ (Gate.Ip_options, "ce0"); (Gate.Security_in, "ce1"); (Gate.Stats, "ce2") ];
    Cost.reset ();
    Array.iteri
      (fun t id ->
        let key =
          Flow_key.make
            ~src:(Ipaddr.v4 10 (id lsr 16 land 0xFF) (id lsr 8 land 0xFF) (id land 0xFF))
            ~dst:(Ipaddr.v4 192 168 1 1) ~proto:Proto.udp
            ~sport:(1024 + (id land 0x3FFF)) ~dport:9000 ~iface:0
        in
        let m = Mbuf.synth ~key ~len:500 () in
        (match Ip_core.process r ~now:(Int64.of_int t) m with
         | Ip_core.Enqueued out -> ignore (Iface.dequeue (Router.iface r out) ~now:0L)
         | Ip_core.Delivered_local | Ip_core.Absorbed | Ip_core.Dropped _ -> ()))
      sequence;
    let cycles = float_of_int (Cost.get ()) /. float_of_int total_packets in
    let st = Rp_classifier.Flow_table.stats (Rp_classifier.Aiu.flow_table (Router.aiu r)) in
    let hit_rate =
      float_of_int st.Rp_classifier.Flow_table.hits
      /. float_of_int st.Rp_classifier.Flow_table.lookups
    in
    (hit_rate, st.Rp_classifier.Flow_table.recycled, cycles)
  in
  let _, _, infinite_cycles = run max_int in
  List.iter
    (fun size ->
      let hit, recycled, cycles = run size in
      Printf.printf "  %-12s %9.1f%% %10d %12.0f %+13.1f%%\n"
        (if size = max_int then "unbounded" else string_of_int size)
        (hit *. 100.0) recycled cycles
        ((cycles -. infinite_cycles) /. infinite_cycles *. 100.0))
    [ 64; 128; 256; 1024; 8192; max_int ]

(* ---------------------------------------------------------------------- *)
(* L4 switching: flow-cached routing vs per-packet LPM (§8).              *)
(* ---------------------------------------------------------------------- *)

let fig_l4 () =
  section "Figure (8): L4 switching — routing through the classifier";
  Printf.printf
    "The paper's future work: \"by unifying routing and packet\n\
     classification, we get QoS-based routing/Level 4 switching for\n\
     free\".  Policy routes are l4-route plugin bindings; cached\n\
     packets route with the FIX indirect call regardless of how many\n\
     policies are installed.\n\n";
  Printf.printf "  %-10s %18s %18s\n" "policies" "uncached cycles" "cached cycles";
  List.iter
    (fun n_policies ->
      let ifaces = List.init 4 (fun id -> Iface.create ~id ()) in
      let r = Router.create ~gates:[ Gate.Routing ] ~ifaces () in
      Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
      ok (Pcu.modload r.Router.pcu (module Route_plugin));
      for i = 0 to n_policies - 1 do
        let inst =
          ok
            (Pcu.create_instance r.Router.pcu ~plugin:"l4-route"
               [ ("iface", string_of_int (2 + (i land 1))) ])
        in
        ok
          (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
             (Rp_classifier.Filter.v4
                ~src:(Prefix.make (Ipaddr.v4 10 (i lsr 8) (i land 0xFF) 0) 24)
                ~proto:Proto.udp ()))
      done;
      let key =
        Flow_key.make ~src:(Ipaddr.v4 10 0 1 7) ~dst:(Ipaddr.v4 192 168 1 1)
          ~proto:Proto.udp ~sport:5000 ~dport:9000 ~iface:0
      in
      let process () =
        let m = Mbuf.synth ~key ~len:500 () in
        let v, c = Cost.measure (fun () -> Ip_core.process r ~now:0L m) in
        (match v with
         | Ip_core.Enqueued out -> ignore (Iface.dequeue (Router.iface r out) ~now:0L)
         | Ip_core.Delivered_local | Ip_core.Absorbed | Ip_core.Dropped _ -> ());
        c
      in
      let uncached = process () in
      let cached_total = ref 0 in
      for _ = 1 to 20 do
        cached_total := !cached_total + process ()
      done;
      Printf.printf "  %-10d %18d %18.0f\n" n_policies uncached
        (float_of_int !cached_total /. 20.0);
      Gc.full_major ())
    [ 1; 64; 1024; 16384 ]

(* ---------------------------------------------------------------------- *)
(* Ablation: wildcard-chain collapsing (§5.1.2 optimization).             *)
(* ---------------------------------------------------------------------- *)

let fig_collapse () =
  section "Ablation (5.1.2): wildcard-chain collapsing";
  Printf.printf
    "Filter sets where protocol/ports/interface are wildcarded leave\n\
     single-wildcard-edge chains in the trie; Dag.optimize jumps them\n\
     in one access.\n\n";
  Printf.printf "  %-10s %16s %16s %14s\n" "filters" "plain access"
    "collapsed access" "saved";
  List.iter
    (fun n ->
      let dag = Rp_classifier.Dag.create ~engine:Rp_lpm.Engines.bspl () in
      for i = 0 to n - 1 do
        (* Address-only filters: everything else wildcarded. *)
        Rp_classifier.Dag.insert dag
          (Rp_classifier.Filter.v4
             ~src:(Prefix.make (Ipaddr.v4 10 (i lsr 8 land 0xFF) (i land 0xFF) 0) 24)
             ~dst:(Prefix.make (Ipaddr.v4 172 16 (i land 0xFF) 0) 24)
             ())
          i
      done;
      let keys =
        Array.init 1000 (fun i ->
            Flow_key.make
              ~src:(Ipaddr.v4 10 (i lsr 8 land 0xFF) (i land 0xFF) 7)
              ~dst:(Ipaddr.v4 172 16 (i land 0xFF) 9) ~proto:Proto.udp
              ~sport:1 ~dport:2 ~iface:0)
      in
      Array.iter (fun k -> ignore (Rp_classifier.Dag.lookup dag k)) keys;
      let measure () =
        let total = ref 0 in
        Array.iter
          (fun k ->
            let _, a =
              Rp_lpm.Access.measure (fun () -> Rp_classifier.Dag.lookup dag k)
            in
            total := !total + a)
          keys;
        float_of_int !total /. float_of_int (Array.length keys)
      in
      let plain = measure () in
      Rp_classifier.Dag.optimize dag;
      let collapsed = measure () in
      Printf.printf "  %-10d %16.1f %16.1f %13.1f%%\n" n plain collapsed
        ((plain -. collapsed) /. plain *. 100.0);
      Gc.full_major ())
    [ 16; 256; 4096 ]

(* ---------------------------------------------------------------------- *)
(* Grid-of-tries vs set pruning on two-dimensional filters (§5.1.2).     *)
(* ---------------------------------------------------------------------- *)

let fig_grid () =
  section "Comparison (5.1.2): grid-of-tries vs set-pruning DAG (2D filters)";
  Printf.printf
    "The paper: grid-of-tries gives \"better memory utilization without\n\
     sacrificing performance, but work[s] only in the special case of\n\
     two-dimensional filters\".  Same (src, dst) filter sets in both\n\
     structures; queries half hits, half random.\n\n";
  Printf.printf "  %-9s %14s %14s %16s %16s\n" "filters" "GoT nodes"
    "DAG nodes" "GoT avg access" "DAG avg access";
  List.iter
    (fun n ->
      let rng = Random.State.make [| 99 |] in
      let addr () =
        Ipaddr.v4 (Random.State.int rng 64) (Random.State.int rng 16)
          (Random.State.int rng 4) 0
      in
      let pairs =
        List.init n (fun _ ->
            ( Prefix.make (addr ()) (8 + Random.State.int rng 17),
              Prefix.make (addr ()) (8 + Random.State.int rng 17) ))
      in
      let got = Rp_classifier.Grid_of_tries.create () in
      let dag = Rp_classifier.Dag.create ~engine:Rp_lpm.Engines.bspl () in
      List.iteri
        (fun i (src, dst) ->
          Rp_classifier.Grid_of_tries.insert got ~src ~dst i;
          Rp_classifier.Dag.insert dag (Rp_classifier.Filter.v4 ~src ~dst ()) i)
        pairs;
      let arr = Array.of_list pairs in
      let queries =
        Array.init 2000 (fun i ->
            if i land 1 = 0 then
              let src, dst = arr.(i * 7919 mod n) in
              (src.Prefix.addr, dst.Prefix.addr)
            else (addr (), addr ()))
      in
      (* Warm lazy structures. *)
      Array.iter
        (fun (src, dst) ->
          ignore (Rp_classifier.Grid_of_tries.lookup got ~src ~dst);
          ignore
            (Rp_classifier.Dag.lookup dag
               (Flow_key.make ~src ~dst ~proto:Proto.udp ~sport:1 ~dport:2
                  ~iface:0)))
        queries;
      let measure f =
        let total = ref 0 in
        Array.iter
          (fun q ->
            let _, a = Rp_lpm.Access.measure (fun () -> f q) in
            total := !total + a)
          queries;
        float_of_int !total /. float_of_int (Array.length queries)
      in
      let got_acc =
        measure (fun (src, dst) -> Rp_classifier.Grid_of_tries.lookup got ~src ~dst)
      in
      let dag_acc =
        measure (fun (src, dst) ->
            Rp_classifier.Dag.lookup dag
              (Flow_key.make ~src ~dst ~proto:Proto.udp ~sport:1 ~dport:2
                 ~iface:0))
      in
      Printf.printf "  %-9d %14d %14d %16.1f %16.1f\n" n
        (Rp_classifier.Grid_of_tries.node_count got)
        (Rp_classifier.Dag.node_count dag)
        got_acc dag_acc;
      Gc.full_major ())
    [ 256; 1024; 4096; 16384 ]

(* ---------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks.                                             *)
(* ---------------------------------------------------------------------- *)

let micro () =
  section "Bechamel micro-benchmarks (wall clock, this machine)";
  Rp_lpm.Access.set_enabled false;
  let open Bechamel in
  (* classifier lookups, one per engine, 1024 bulk filters *)
  let dag_tests =
    List.map
      (fun engine ->
        let module E = (val engine : Rp_lpm.Lpm_intf.S) in
        let dag = Workloads.build_dag ~engine ~family:`V4 1024 in
        let keys = Array.init 256 (fun _ -> Workloads.random_key_v4 ()) in
        Array.iter (fun k -> ignore (Rp_classifier.Dag.lookup dag k)) keys;
        let i = ref 0 in
        Test.make
          ~name:(Printf.sprintf "dag-lookup-%s-1k-filters" E.name)
          (Staged.stage (fun () ->
               incr i;
               ignore (Rp_classifier.Dag.lookup dag keys.(!i land 255)))))
      [ Rp_lpm.Engines.patricia; Rp_lpm.Engines.bspl; Rp_lpm.Engines.cpe ]
  in
  (* flow table hit *)
  let ft = Rp_classifier.Flow_table.create ~gates:1 () in
  let ft_keys =
    Array.init 4096 (fun i ->
        Flow_key.make ~src:(Ipaddr.v4 10 1 (i lsr 8) (i land 0xFF))
          ~dst:(Ipaddr.v4 192 168 1 1) ~proto:Proto.udp ~sport:i ~dport:53
          ~iface:0)
  in
  Array.iter (fun k -> ignore (Rp_classifier.Flow_table.insert ft k ~now:0L)) ft_keys;
  let fi = ref 0 in
  let ft_test =
    Test.make ~name:"flow-table-hit"
      (Staged.stage (fun () ->
           incr fi;
           ignore (Rp_classifier.Flow_table.lookup ft ft_keys.(!fi land 4095) ~now:1L)))
  in
  (* full cached data path *)
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
      ~proto:Proto.udp ~sport:1 ~dport:2 ~iface:0
  in
  let m = Mbuf.synth ~key ~len:1000 () in
  ignore (Ip_core.process r ~now:0L m);
  ignore (Iface.dequeue (Router.iface r 1) ~now:0L);
  let process_test =
    Test.make ~name:"ip-core-process-cached"
      (Staged.stage (fun () ->
           let m = Mbuf.synth ~key ~len:1000 () in
           (match Ip_core.process r ~now:0L m with
            | Ip_core.Enqueued out -> ignore (Iface.dequeue (Router.iface r out) ~now:0L)
            | Ip_core.Delivered_local | Ip_core.Absorbed | Ip_core.Dropped _ -> ())))
  in
  (* crypto *)
  let block = Bytes.make 1500 'x' in
  let md5_test =
    Test.make ~name:"md5-1500B" (Staged.stage (fun () -> ignore (Rp_crypto.Md5.digest_bytes block)))
  in
  let hmac_test =
    Test.make ~name:"hmac-md5-1500B"
      (Staged.stage (fun () -> ignore (Rp_crypto.Hmac.md5_bytes ~key:"k" block 0 1500)))
  in
  let rc4 = Rp_crypto.Rc4.create "bench-key" in
  let rc4_test =
    Test.make ~name:"rc4-1500B" (Staged.stage (fun () -> Rp_crypto.Rc4.apply rc4 block 0 1500))
  in
  let grouped =
    Test.make_grouped ~name:"rp"
      (dag_tests @ [ ft_test; process_test; md5_test; hmac_test; rc4_test ])
  in
  run_bechamel grouped;
  Rp_lpm.Access.set_enabled true

(* ---------------------------------------------------------------------- *)
(* Multicore engine: aggregate throughput scaling across domains.         *)
(* ---------------------------------------------------------------------- *)

(* Classifier-heavy workload (three gates with bound plugins plus the
   Table-3 inert filter load) pumped through the sharded engine at
   1, 2 and 4 worker domains.  Throughput is the cycle model's:
   aggregate mpps = packets / (slowest shard's charged cycles / Hz) —
   shards run flow-disjoint traffic concurrently, so the makespan is
   the busiest shard.  Wall-clock mpps is reported as an informational
   column (it depends on the host's core count, which CI does not
   control). *)
let fig_shard () =
  section "fig-shard: engine throughput scaling across worker domains";
  let flows = 64 and per_flow = 200 in
  Printf.printf
    "%d flows x %d packets through the sharded engine; per-flow state\n\
     and flow caches are domain-private, RSS distribution by flow hash.\n\n"
    flows per_flow;
  let run domains =
    let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
    let r = s.Rp_sim.Scenario.router in
    List.iteri
      (fun i gate ->
        let name = Printf.sprintf "shard-empty-%d" i in
        ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate ~name));
        let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
        ok
          (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
             (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
        install_extra_filters r ~gate:(Gate.to_int gate) ~upto:13)
      [ Gate.Ip_options; Gate.Firewall; Gate.Stats ];
    let e = Rp_engine.Engine.create (Rp_engine.Engine.Sharded domains) r in
    let drained = ref 0 in
    let record _ = incr drained in
    let t0 = Unix.gettimeofday () in
    for f = 0 to flows - 1 do
      let key = Rp_sim.Scenario.sink_key ~id:(100 + f) () in
      for _ = 1 to per_flow do
        let m = Mbuf.synth ~key ~len:1000 () in
        while not (Rp_engine.Engine.submit e ~now:0L m) do
          ignore (Rp_engine.Engine.drain e ~f:record)
        done
      done
    done;
    ignore (Rp_engine.Engine.flush e ~f:record);
    let wall_s = Unix.gettimeofday () -. t0 in
    let max_cycles = ref 0 in
    for i = 0 to domains - 1 do
      let c = Rp_engine.Engine.shard_cycles e i in
      if c > !max_cycles then max_cycles := c
    done;
    Rp_engine.Engine.stop e;
    let hz = Cost.cpu_mhz *. 1e6 in
    let mpps =
      float_of_int !drained /. (float_of_int !max_cycles /. hz) /. 1e6
    in
    let wall_mpps = float_of_int !drained /. wall_s /. 1e6 in
    (mpps, wall_mpps, !drained, !max_cycles)
  in
  Printf.printf "  %-8s %12s %14s %16s %12s\n" "domains" "packets"
    "model mpps" "busiest cycles" "wall mpps";
  let results =
    List.map
      (fun d ->
        let ((mpps, wall_mpps, drained, max_cycles) as res) = run d in
        Printf.printf "  %-8d %12d %14.3f %16d %12.3f\n" d drained mpps
          max_cycles wall_mpps;
        Rp_obs.Registry.set
          (Printf.sprintf "bench.fig_shard.domains%d.mpps" d)
          mpps;
        Rp_obs.Registry.set
          (Printf.sprintf "bench.fig_shard.domains%d.wall_mpps" d)
          wall_mpps;
        (d, res))
      [ 1; 2; 4 ]
  in
  let mpps_of d =
    match List.assoc_opt d results with
    | Some (mpps, _, _, _) -> mpps
    | None -> 0.0
  in
  let speedup = if mpps_of 1 > 0.0 then mpps_of 4 /. mpps_of 1 else 0.0 in
  Rp_obs.Registry.set "bench.fig_shard.speedup_4v1" speedup;
  Printf.printf "\n  aggregate speedup at 4 domains vs 1: %.2fx\n" speedup

(* ---------------------------------------------------------------------- *)
(* Hot-path tracing overhead vs sampling period.                           *)
(* ---------------------------------------------------------------------- *)

(* The telemetry design claim: tracing never charges the cycle cost
   model (model results are identical traced or untraced — a traced
   table3 run checks the Table-3 pins in bench/gates.ml), and
   the *real* recording cost is a few stores per sampled event, so
   wall-clock overhead falls away with the sampling period. *)
let fig_trace () =
  section "fig-trace: hot-path tracing overhead vs sampling period";
  Printf.printf
    "Cached 3-gate data path under sampling off / 1-in-1 / 1-in-16 /\n\
     1-in-256.  Model cycles must not move with sampling (tracing is\n\
     outside the cost model); wall-clock ns/packet shows the real\n\
     event-recording cost on this machine.\n\n";
  let gates = [ Gate.Ip_options; Gate.Security_in; Gate.Stats ] in
  let ifaces =
    [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:max_int () ]
  in
  let r = Router.create ~mode:Router.Plugins ~gates ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  List.iter
    (fun (g, n) ->
      ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate:g ~name:n));
      let i = ok (Pcu.create_instance r.Router.pcu ~plugin:n []) in
      ok
        (Pcu.register_instance r.Router.pcu ~instance:i.Plugin.instance_id
           (Rp_classifier.Filter.v4 ())))
    [ (Gate.Ip_options, "tr0"); (Gate.Security_in, "tr1"); (Gate.Stats, "tr2") ];
  let key =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 1) ~dst:(Ipaddr.v4 192 168 1 1)
      ~proto:Proto.udp ~sport:1000 ~dport:9000 ~iface:0
  in
  let process () =
    let m = Mbuf.synth ~key ~len:1000 () in
    match Ip_core.process r ~now:0L m with
    | Ip_core.Enqueued out -> ignore (Iface.dequeue (Router.iface r out) ~now:0L)
    | Ip_core.Delivered_local | Ip_core.Absorbed | Ip_core.Dropped _ -> ()
  in
  (* Warm the flow cache so every measured packet takes the FIX path. *)
  process ();
  let measure slug every =
    (match every with
     | 0 -> Rp_obs.Telemetry.disable ()
     | n -> Rp_obs.Telemetry.enable ~every:n);
    let cycles =
      let _, c = Cost.measure (fun () -> for _ = 1 to 200 do process () done) in
      float_of_int c /. 200.0
    in
    let ns = time_ns 30_000 process in
    Rp_obs.Telemetry.disable ();
    Rp_obs.Registry.set (Printf.sprintf "bench.fig_trace.%s.cycles" slug) cycles;
    Rp_obs.Registry.set (Printf.sprintf "bench.fig_trace.%s.wall_ns" slug) ns;
    (every, cycles, ns)
  in
  let rows =
    [ measure "off" 0; measure "s1" 1; measure "s16" 16; measure "s256" 256 ]
  in
  let base_ns = match rows with (_, _, ns) :: _ -> ns | [] -> 1.0 in
  Printf.printf "  %-10s %14s %12s %14s\n" "sampling" "model cyc/pkt"
    "wall ns/pkt" "wall overhead";
  List.iter
    (fun (every, cycles, ns) ->
      Printf.printf "  %-10s %14.0f %12.1f %+13.1f%%\n"
        (if every = 0 then "off" else Printf.sprintf "1-in-%d" every)
        cycles ns
        ((ns -. base_ns) /. base_ns *. 100.0))
    rows;
  Printf.printf
    "\n  A traced table3 run checks the same property against the exact\n\
    \  Table-3 pins in bench/gates.ml.\n"

(* ---------------------------------------------------------------------- *)
(* Control-plane churn: delta publication vs full recompilation.           *)
(* ---------------------------------------------------------------------- *)

(* Sustained filter update rate with ~512 background filters installed
   and warm per-shard flow caches.  Each update registers or
   deregisters one /24-source filter, publishes, and brings four
   shards up to the new generation.  The shards are synced
   synchronously on this domain (the exact [Shard.sync] code the
   workers run) so the measurement captures the per-update *work* —
   delta replay with selective invalidation vs recompiling the
   513-filter classifier and flushing the flow cache — rather than
   cross-domain scheduling noise, which on a single-core CI box drowns
   the signal.  Three configurations: the inline router (direct
   mutation, the latency floor), four shards replaying the deltas of
   the snapshots an inline engine hands out, and four shards synced to
   bare snapshots that carry no delta log (every sync recompiles from
   scratch — the fallback a shard takes when the delta chain is
   broken).  bench/gates.ml requires the delta path to sustain >= 10x
   the full-recompile update rate. *)
let fig_churn () =
  section "fig-churn: control-plane churn — delta publication vs recompile";
  let updates = 200 and background = 512 and flows = 32 in
  Printf.printf
    "%d background filters, %d warm flows per shard; %d single-filter\n\
     updates (bind/unbind alternating), each published and applied to\n\
     4 shards via Shard.sync on this domain (scheduler-free).\n\n"
    background flows updates;
  let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let shard_flushes n =
    let t = ref 0 in
    for i = 0 to n - 1 do
      t := !t + counter (Printf.sprintf "engine.shard%d.flow_flushes" i)
    done;
    !t
  in
  let run ~slug ~sync_shards ~deltas =
    let open Rp_engine in
    let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
    let r = s.Rp_sim.Scenario.router in
    let name = "churn-fw" in
    ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate:Gate.Firewall ~name));
    let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
    let id = inst.Plugin.instance_id in
    ok
      (Pcu.register_instance r.Router.pcu ~instance:id
         (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
    (* Background filter load (the "16 filters installed" idea at
       fig-churn scale); bound before the engine exists, so they are
       part of the base snapshot, not the delta stream. *)
    let aiu = Router.aiu r in
    for i = 1 to background do
      Rp_classifier.Aiu.bind aiu ~gate:(Gate.to_int Gate.Firewall)
        (Rp_classifier.Filter.v4
           ~src:
             (Prefix.make (Ipaddr.v4 172 (16 + (i lsr 8)) (i land 0xFF) 0) 24)
           ~proto:Proto.tcp ())
        (Plugin.simple ~instance_id:(9000 + i) ~code:0 ~plugin_name:"inert"
           ~gate:Gate.Firewall
           (fun _ _ -> Plugin.Continue))
    done;
    (* With deltas, an inline engine is the snapshot publisher: its
       AIU listener records the mutation deltas exactly as in sharded
       mode.  Without, each snapshot is captured bare. *)
    let e = if deltas then Some (Engine.create Engine.Inline r) else None in
    let snapshot gen =
      match e with
      | Some e -> Engine.snapshot e
      | None -> Snapshot.capture ~gen r
    in
    let shards =
      List.init sync_shards (fun i -> Shard.create ~index:i (snapshot 0))
    in
    let flushes0 = shard_flushes sync_shards in
    (* Warm every shard's private flow cache (and the router's own, for
       the inline row). *)
    for f = 0 to flows - 1 do
      let key = Rp_sim.Scenario.sink_key ~id:(300 + f) () in
      if sync_shards = 0 then
        ignore (Ip_core.process r ~now:0L (Mbuf.synth ~key ~len:1000 ()))
      else
        List.iter
          (fun sh ->
            Ip_core.run (Shard.ctx sh) ~now:0L
              [| Mbuf.synth ~key ~len:1000 () |]
              ~n:1
              ~emit:(fun _ _ _ -> ()))
          shards
    done;
    let churn_filter i =
      Rp_classifier.Filter.v4
        ~src:(Prefix.make (Ipaddr.v4 10 200 (i land 0xFF) 0) 24)
        ~proto:Proto.udp ()
    in
    let lat = Array.make updates 0.0 in
    let churn_s = ref 0.0 in
    for u = 0 to updates - 1 do
      let f = churn_filter (u / 2) in
      let t0 = Unix.gettimeofday () in
      (if u land 1 = 0 then
         ok (Pcu.register_instance r.Router.pcu ~instance:id f)
       else ok (Pcu.deregister_instance r.Router.pcu ~instance:id f));
      if shards <> [] then begin
        let snap = snapshot (u + 1) in
        List.iter (fun sh -> Shard.sync sh snap) shards
      end;
      let dt = Unix.gettimeofday () -. t0 in
      lat.(u) <- dt;
      churn_s := !churn_s +. dt
    done;
    let flushes = shard_flushes sync_shards - flushes0 in
    Option.iter Engine.stop e;
    Array.sort compare lat;
    let us p = lat.(min (updates - 1) (p * updates / 100)) *. 1e6 in
    let ups = float_of_int updates /. !churn_s in
    Rp_obs.Registry.set (Printf.sprintf "bench.churn.%s.updates_per_s" slug)
      ups;
    Rp_obs.Registry.set (Printf.sprintf "bench.churn.%s.setup_us_p50" slug)
      (us 50);
    Rp_obs.Registry.set (Printf.sprintf "bench.churn.%s.setup_us_p99" slug)
      (us 99);
    Gc.full_major ();
    (ups, us 50, us 99, flushes)
  in
  Printf.printf "  %-22s %12s %12s %12s %14s\n" "configuration" "updates/s"
    "p50 us" "p99 us" "flow flushes";
  let report label (ups, p50, p99, flushes) =
    Printf.printf "  %-22s %12.0f %12.1f %12.1f %14d\n" label ups p50 p99
      flushes
  in
  let inline = run ~slug:"inline" ~sync_shards:0 ~deltas:false in
  report "inline (direct)" inline;
  let delta = run ~slug:"sharded4.delta" ~sync_shards:4 ~deltas:true in
  report "sharded:4 delta" delta;
  let full = run ~slug:"sharded4.full" ~sync_shards:4 ~deltas:false in
  report "sharded:4 recompile" full;
  let ups (u, _, _, _) = u in
  let speedup = if ups full > 0.0 then ups delta /. ups full else 0.0 in
  Rp_obs.Registry.set "bench.churn.delta_speedup_4" speedup;
  Printf.printf
    "\n  delta-over-recompile update-rate speedup at 4 shards: %.1fx\n\
    \  (bench/gates.ml gates >= 10x)\n"
    speedup

(* ---------------------------------------------------------------------- *)
(* Batched zero-copy data path: pool + links + synth generator.            *)
(* ---------------------------------------------------------------------- *)

(* [--csv-out FILE] destination for the fig-batch time series. *)
let csv_out : string option ref = ref None

(* The snabb-style pump: a Synth generator allocates from a packet
   Pool onto a Link; the pump pulls fixed-size batches off the link,
   pushes them through the engine's batched path, and recycles every
   drained descriptor back into the pool — steady state runs entirely
   on preallocated memory.  Throughput is the cycle model's (packets
   over charged cycles; for sharded engines the busiest shard is the
   makespan), reported as a CSV time series with one row per
   [interval] packets so CI can gate the steady-state rows and spot
   warm-up-only performance.  A third, cold run sends every packet on
   a flow of its own into a flow table bounded at 1,024 records, so
   each packet misses, resolves its gates and recycles a record: the
   first-packet path, whose allocation is gated beside the cached
   one. *)
let fig_batch () =
  section "fig-batch: batched zero-copy data path (pool + link + synth)";
  let total = 30_000 and interval = 3_000 and batch = 32 in
  let flows = 64 in
  Printf.printf
    "Synth generator (%d flows, IMIX sizes) -> pool/link -> batched\n\
     dispatch, %d packets per engine, one CSV row per %d packets.\n\
     Mpps is model throughput (charged cycles at %.0f MHz); the first\n\
     row is warm-up (cold flow cache), the rest are steady state.  The\n\
     cold run gives every packet a flow of its own (flow table bounded\n\
     at 1,024 records, so every packet misses and recycles).\n\n"
    flows total interval Cost.cpu_mhz;
  let csv =
    Option.map
      (fun path ->
        Rp_obs.Csv_stats.to_file ~path
          ~columns:
            [
              "engine"; "row"; "packets"; "cum_packets"; "model_s";
              "model_mpps"; "wall_mpps"; "pool_free"; "link_txdrops";
            ])
      !csv_out
  in
  let run ?(cold = false) ~slug ~label ~mode () =
    let gates = [ Gate.Ip_options; Gate.Firewall; Gate.Stats ] in
    let ifaces =
      [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:max_int () ]
    in
    let flow_max = if cold then Some 1024 else None in
    let r = Router.create ~mode:Router.Plugins ~gates ?flow_max ~ifaces () in
    Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
    List.iteri
      (fun i gate ->
        let name = Printf.sprintf "batch-empty-%d" i in
        ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate ~name));
        let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
        ok
          (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
             (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
        install_extra_filters r ~gate:(Gate.to_int gate) ~upto:13)
      gates;
    let e = Rp_engine.Engine.create mode r in
    let pool = Pool.create ~capacity:4096 () in
    let link = Link.create ~capacity:512 () in
    let synth =
      if cold then Rp_sim.Synth.create ~flows:total ~sweep:true ~pool ()
      else Rp_sim.Synth.create ~flows ~pool ()
    in
    let scratch = Array.make batch (Mbuf.synth ~key:(Rp_sim.Traffic.flow_key ~id:0 ()) ~len:0 ()) in
    let drained = ref 0 in
    let recycle (res : Rp_engine.Shard.result) =
      Pool.free pool res.Rp_engine.Shard.m;
      incr drained
    in
    let domains = match mode with
      | Rp_engine.Engine.Inline -> 1
      | Rp_engine.Engine.Sharded n -> n
    in
    let model_cycles () =
      match mode with
      | Rp_engine.Engine.Inline -> Cost.get ()
      | Rp_engine.Engine.Sharded _ ->
        let mx = ref 0 in
        for i = 0 to domains - 1 do
          let c = Rp_engine.Engine.shard_cycles e i in
          if c > !mx then mx := c
        done;
        !mx
    in
    let hz = Cost.cpu_mhz *. 1e6 in
    let row_idx = ref 0 in
    let last_cycles = ref (model_cycles ()) in
    let cycles0 = !last_cycles in
    let last_wall = ref (Unix.gettimeofday ()) in
    let last_drained = ref 0 in
    let steady_sum = ref 0.0 and steady_rows = ref 0 in
    let report () =
      let cycles = model_cycles () in
      let wall = Unix.gettimeofday () in
      let pkts = !drained - !last_drained in
      let dcyc = cycles - !last_cycles in
      let mpps =
        if dcyc > 0 then float_of_int pkts /. (float_of_int dcyc /. hz) /. 1e6
        else 0.0
      in
      let wall_mpps =
        let dt = wall -. !last_wall in
        if dt > 0.0 then float_of_int pkts /. dt /. 1e6 else 0.0
      in
      if !row_idx > 0 then begin
        (* Row 0 is warm-up: cold flow caches, first-packet filter
           walks.  Steady state is everything after it. *)
        steady_sum := !steady_sum +. mpps;
        incr steady_rows
      end;
      Printf.printf "  %-10s %4d %10d %12d %10.4f %12.4f %10.3f\n" label
        !row_idx pkts !drained
        (float_of_int (cycles - cycles0) /. hz)
        mpps wall_mpps;
      (match csv with
       | Some c ->
         Rp_obs.Csv_stats.row c
           [
             label;
             Rp_obs.Csv_stats.i !row_idx;
             Rp_obs.Csv_stats.i pkts;
             Rp_obs.Csv_stats.i !drained;
             Rp_obs.Csv_stats.f6 (float_of_int (cycles - cycles0) /. hz);
             Rp_obs.Csv_stats.f6 mpps;
             Rp_obs.Csv_stats.f6 wall_mpps;
             Rp_obs.Csv_stats.i (Pool.available pool);
             Rp_obs.Csv_stats.i (Link.txdrops link);
           ]
       | None -> ());
      incr row_idx;
      last_cycles := cycles;
      last_wall := wall;
      last_drained := !drained
    in
    Printf.printf "  %-10s %4s %10s %12s %10s %12s %10s\n" "engine" "row"
      "packets" "cum_packets" "model_s" "model_mpps" "wall_mpps";
    let next_report = ref interval in
    let submitted = ref 0 in
    (* Minor words allocated by submit_batch + drain, and the packets
       they drained, over the steady rows (ints: reading the counter
       must allocate nothing itself). *)
    let minor_words () = int_of_float (Gc.minor_words ()) in
    let steady_words = ref 0 and steady_pkts = ref 0 in
    while !drained < total do
      let n =
        if !submitted < total then begin
          ignore (Rp_sim.Synth.pull synth ~now_ns:0L link ~max:(2 * batch));
          Link.receive_batch link ~max:(min batch (total - !submitted)) scratch
        end
        else 0
      in
      let w0 = minor_words () and d0 = !drained in
      if n > 0 then begin
        (match mode with
         | Rp_engine.Engine.Inline ->
           ignore (Rp_engine.Engine.submit_batch e ~now:0L scratch ~n)
         | Rp_engine.Engine.Sharded _ ->
           for i = 0 to n - 1 do
             while not (Rp_engine.Engine.submit e ~now:0L scratch.(i)) do
               ignore (Rp_engine.Engine.drain e ~f:recycle)
             done
           done);
        submitted := !submitted + n
      end;
      ignore (Rp_engine.Engine.drain e ~f:recycle);
      if !row_idx > 0 then begin
        steady_words := !steady_words + (minor_words () - w0);
        steady_pkts := !steady_pkts + (!drained - d0)
      end;
      if !submitted >= total && !drained < total then
        ignore (Rp_engine.Engine.flush e ~f:recycle);
      while !drained >= !next_report do
        report ();
        next_report := !next_report + interval
      done
    done;
    Rp_engine.Engine.stop e;
    let steady =
      if !steady_rows > 0 then !steady_sum /. float_of_int !steady_rows
      else 0.0
    in
    let ps = Pool.stats pool in
    Printf.printf
      "  %-10s steady-state %.4f model mpps/domain; pool allocs=%d frees=%d \
       exhausted=%d\n\n"
      label steady ps.Pool.allocs ps.Pool.frees ps.Pool.exhausted;
    Rp_obs.Registry.set
      (Printf.sprintf "bench.fig_batch.%s.steady_mpps" slug)
      steady;
    Rp_obs.Registry.set
      (Printf.sprintf "bench.fig_batch.%s.rows" slug)
      (float_of_int !row_idx);
    Rp_obs.Registry.set
      (Printf.sprintf "bench.fig_batch.%s.pool_exhausted" slug)
      (float_of_int ps.Pool.exhausted);
    Rp_obs.Registry.set
      (Printf.sprintf "bench.fig_batch.%s.generated" slug)
      (float_of_int (Rp_sim.Synth.generated synth));
    (* A sharded engine's words are its workers', not the caller's. *)
    if mode = Rp_engine.Engine.Inline then begin
      let words =
        float_of_int !steady_words /. float_of_int (max 1 !steady_pkts)
      in
      Printf.printf
        "  %-10s steady-state %.3f minor words/packet through submit_batch \
         + drain\n"
        label words;
      Rp_obs.Registry.set
        (Printf.sprintf "bench.fig_batch.%s.words_per_pkt" slug)
        words
    end;
    Gc.full_major ();
    steady
  in
  let inline =
    run ~slug:"inline" ~label:"inline" ~mode:Rp_engine.Engine.Inline ()
  in
  let sharded =
    run ~slug:"sharded4" ~label:"sharded:4"
      ~mode:(Rp_engine.Engine.Sharded 4) ()
  in
  ignore
    (run ~cold:true ~slug:"inline_cold" ~label:"cold" ~mode:Rp_engine.Engine.Inline ());
  (match csv with Some c -> Rp_obs.Csv_stats.close c | None -> ());
  Printf.printf
    "  steady-state model mpps/domain: inline %.4f, sharded:4 %.4f\n\
    \  (bench/gates.ml gates the sharded floor; inline is Table 3's figure)\n"
    inline sharded

(* ---------------------------------------------------------------------- *)
(* fig-coldstart: compiled cross-gate classification.                     *)
(* ---------------------------------------------------------------------- *)

(* Cold-start cost of the two classifier modes.  Per-gate is the
   paper's section 3.2 behaviour — "the processing of the first packet
   of a new flow with n gates involves n filter table lookups" — while
   compiled resolves every gate's binding in one traversal of the
   cross-gate structure.  Traffic carries as many flow keys as packets
   (all-new flows), so nearly every packet is a cold start and the
   per-miss access count dominates.  The micro part pins the headline
   claim: with identical filter tables installed at every gate, the
   compiled walk's access count does not change with the gate count,
   while the per-gate walk grows linearly. *)
let fig_coldstart () =
  section "fig-coldstart: cold-start classification, compiled vs per-gate";
  let total = 8_192 and batch = 32 in
  Printf.printf
    "Synth traffic, %d flows over %d packets (all-new flows: the flow\n\
     cache misses on ~every first packet).  'cold acc/walk' is\n\
     aiu.miss_accesses / aiu.full_walks — memory accesses charged to\n\
     resolve one cold start across all gates.\n\n"
    total total;
  let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let run ~eng_slug ~label ~mode ~classifier =
    let gates = [ Gate.Ip_options; Gate.Firewall; Gate.Stats ] in
    let ifaces =
      [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:max_int () ]
    in
    let r = Router.create ~mode:Router.Plugins ~gates ~ifaces () in
    Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
    List.iteri
      (fun i gate ->
        let name = Printf.sprintf "cold-empty-%d" i in
        ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate ~name));
        let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
        ok
          (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
             (Rp_classifier.Filter.v4 ~proto:Proto.udp ()));
        install_extra_filters r ~gate:(Gate.to_int gate) ~upto:13)
      gates;
    (* Before the engine captures its gen-0 snapshot, so shards compile
       with the requested mode. *)
    Rp_classifier.Aiu.set_mode (Router.aiu r) classifier;
    let e = Rp_engine.Engine.create mode r in
    let pool = Pool.create ~capacity:4096 () in
    let link = Link.create ~capacity:512 () in
    let synth = Rp_sim.Synth.create ~flows:total ~pool () in
    let scratch =
      Array.make batch
        (Mbuf.synth ~key:(Rp_sim.Traffic.flow_key ~id:0 ()) ~len:0 ())
    in
    let drained = ref 0 in
    let recycle (res : Rp_engine.Shard.result) =
      Pool.free pool res.Rp_engine.Shard.m;
      incr drained
    in
    let model_cycles () =
      match mode with
      | Rp_engine.Engine.Inline -> Cost.get ()
      | Rp_engine.Engine.Sharded n ->
        let mx = ref 0 in
        for i = 0 to n - 1 do
          let c = Rp_engine.Engine.shard_cycles e i in
          if c > !mx then mx := c
        done;
        !mx
    in
    let walks0 = counter "aiu.full_walks" in
    let acc0 = counter "aiu.miss_accesses" in
    let cycles0 = model_cycles () in
    let submitted = ref 0 in
    while !drained < total do
      if !submitted < total then begin
        ignore (Rp_sim.Synth.pull synth ~now_ns:0L link ~max:(2 * batch));
        let n =
          Link.receive_batch link ~max:(min batch (total - !submitted)) scratch
        in
        if n > 0 then begin
          (match mode with
           | Rp_engine.Engine.Inline ->
             ignore (Rp_engine.Engine.submit_batch e ~now:0L scratch ~n)
           | Rp_engine.Engine.Sharded _ ->
             for i = 0 to n - 1 do
               while not (Rp_engine.Engine.submit e ~now:0L scratch.(i)) do
                 ignore (Rp_engine.Engine.drain e ~f:recycle)
               done
             done);
          submitted := !submitted + n
        end
      end;
      ignore (Rp_engine.Engine.drain e ~f:recycle);
      if !submitted >= total && !drained < total then
        ignore (Rp_engine.Engine.flush e ~f:recycle)
    done;
    Rp_engine.Engine.stop e;
    let walks = counter "aiu.full_walks" - walks0 in
    let accesses = counter "aiu.miss_accesses" - acc0 in
    let dcyc = model_cycles () - cycles0 in
    let hz = Cost.cpu_mhz *. 1e6 in
    let mpps =
      if dcyc > 0 then float_of_int total /. (float_of_int dcyc /. hz) /. 1e6
      else 0.0
    in
    let per_walk =
      if walks > 0 then float_of_int accesses /. float_of_int walks else 0.0
    in
    Printf.printf "  %-18s %11d %14d %14.2f %11.4f\n" label walks accesses
      per_walk mpps;
    let set k v =
      Rp_obs.Registry.set
        (Printf.sprintf "bench.fig_coldstart.%s.%s.%s" eng_slug
           (Rp_classifier.Aiu.mode_to_string classifier) k)
        v
    in
    set "full_walks" (float_of_int walks);
    set "cold_accesses_per_walk" per_walk;
    set "model_mpps" mpps;
    Gc.full_major ()
  in
  Printf.printf "  %-18s %11s %14s %14s %11s\n" "engine/mode" "cold_walks"
    "miss_accesses" "cold acc/walk" "model_mpps";
  run ~eng_slug:"inline" ~label:"inline/pergate" ~mode:Rp_engine.Engine.Inline
    ~classifier:`Per_gate;
  run ~eng_slug:"inline" ~label:"inline/compiled"
    ~mode:Rp_engine.Engine.Inline ~classifier:`Compiled;
  run ~eng_slug:"sharded4" ~label:"sharded4/pergate"
    ~mode:(Rp_engine.Engine.Sharded 4) ~classifier:`Per_gate;
  run ~eng_slug:"sharded4" ~label:"sharded4/compiled"
    ~mode:(Rp_engine.Engine.Sharded 4) ~classifier:`Compiled;
  (* Gate-count independence: the same filter table at every gate, 2 vs
     8 gates, one cold start each.  Measured through [classify_key] so
     both modes pay their real resolution path; structures are warmed
     first (lazy BMP builds charge on first use) and the flow cache is
     flushed so the second classify is a guaranteed cold start. *)
  let filters =
    [
      Rp_classifier.Filter.v4 ();
      Rp_classifier.Filter.v4 ~proto:Proto.udp ();
      Rp_classifier.Filter.v4 ~proto:Proto.tcp ();
      Rp_classifier.Filter.v4 ~src:(Prefix.make (Ipaddr.v4 172 16 0 0) 16) ();
      Rp_classifier.Filter.v4
        ~src:(Prefix.make (Ipaddr.v4 172 16 1 0) 24)
        ~proto:Proto.tcp ();
      Rp_classifier.Filter.v4 ~dst:(Prefix.make (Ipaddr.v4 192 94 233 0) 24) ();
      Rp_classifier.Filter.v4
        ~dst:(Prefix.make (Ipaddr.v4 192 94 233 10) 32)
        ~proto:Proto.tcp
        ~dport:(Rp_classifier.Filter.Port 80) ();
      Rp_classifier.Filter.v4
        ~sport:(Rp_classifier.Filter.Port_range (1024, 2048)) ();
      Rp_classifier.Filter.v4
        ~dport:(Rp_classifier.Filter.Port_range (0, 1023)) ();
      Rp_classifier.Filter.v4 ~iface:0 ();
    ]
  in
  let probe =
    Flow_key.make ~src:(Ipaddr.v4 172 16 1 5) ~dst:(Ipaddr.v4 192 94 233 10)
      ~proto:Proto.tcp ~sport:1500 ~dport:80 ~iface:0
  in
  let cold_walk ~classifier ~gates =
    let aiu = Rp_classifier.Aiu.create ~gates () in
    List.iteri
      (fun i f ->
        for g = 0 to gates - 1 do
          Rp_classifier.Aiu.bind aiu ~gate:g f i
        done)
      filters;
    Rp_classifier.Aiu.set_mode aiu classifier;
    ignore (Rp_classifier.Aiu.classify_key aiu probe ~gate:0 ~now:0L);
    Rp_classifier.Aiu.flush_flows aiu;
    let _, a =
      Rp_lpm.Access.measure (fun () ->
          Rp_classifier.Aiu.classify_key aiu probe ~gate:0 ~now:0L)
    in
    a
  in
  Printf.printf
    "\n  identical %d-filter table at every gate, one cold start:\n"
    (List.length filters);
  Printf.printf "  %-10s %10s %10s\n" "mode" "2 gates" "8 gates";
  let micro slug classifier =
    let g2 = cold_walk ~classifier ~gates:2 in
    let g8 = cold_walk ~classifier ~gates:8 in
    Printf.printf "  %-10s %10d %10d\n"
      (Rp_classifier.Aiu.mode_to_string classifier)
      g2 g8;
    Rp_obs.Registry.set
      (Printf.sprintf "bench.fig_coldstart.micro.%s_g2" slug)
      (float_of_int g2);
    Rp_obs.Registry.set
      (Printf.sprintf "bench.fig_coldstart.micro.%s_g8" slug)
      (float_of_int g8)
  in
  micro "pergate" `Per_gate;
  micro "compiled" `Compiled;
  Printf.printf
    "  (bench/gates.ml gates compiled < per-gate on the macro\n\
    \   runs and compiled g2 == g8 — accesses independent of gates)\n"

(* ---------------------------------------------------------------------- *)
(* fig-session: unified session subsystem — NAT + conntrack + QoS.        *)
(* ---------------------------------------------------------------------- *)

(* Three configurations over identical bidirectional NAT'd UDP
   traffic on the inline engine:

     fix      bare FIX fast path, the session library compiled in but
              no session plugin bound (the Table-3 baseline shape);
     cached   nat / conntrack bound with the soft-slot session cache
              on — steady state charges exactly ONE session access
              per packet, and both directions, the NAT'd reply
              included, ride the route cached in their flow records;
     nocache  the same plugins with cache=off: every session gate
              pays a full striped-table lookup (the naive feature
              layering this subsystem replaces).

   'accesses/pkt' is the charged memory-access meter (Rp_lpm.Access)
   over the steady phase; cycles come from the deterministic cost
   model, so both figures are byte-stable across runs and machines.
   bench/gates.ml gates cached <= fix + 1 (the one charged
   session access), zero steady-state table lookups, and cached
   strictly below nocache. *)
let fig_session () =
  section "fig-session: NAT + conntrack + QoS in one flow-table hit";
  let flows = 8 and steady = 4_000 in
  let nat_addr = Ipaddr.v4 198 51 100 7 in
  let fwd_key f =
    Flow_key.make ~src:(Ipaddr.v4 10 0 0 (1 + f)) ~dst:(Ipaddr.v4 192 168 1 9)
      ~proto:Proto.udp ~sport:(4000 + f) ~dport:80 ~iface:0
  in
  (* the reply's ingress tuple: addressed to the (address-only) SNAT
     mapping, distinguished per flow by the untouched source port *)
  let rev_key f =
    Flow_key.make ~src:(Ipaddr.v4 192 168 1 9) ~dst:nat_addr ~proto:Proto.udp
      ~sport:80 ~dport:(4000 + f) ~iface:1
  in
  Printf.printf
    "Bidirectional NAT'd UDP, %d flows, %d steady packets after warm-up.\n\n"
    flows steady;
  Printf.printf "  %-10s %14s %14s %12s %14s %14s\n" "config" "accesses/pkt"
    "cycles/pkt" "model_mpps" "tbl lookups" "cached hits";
  let run ~slug ~session =
    let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
    let r = Router.create ~gates:Gate.all ~ifaces () in
    Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
    Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
    let table =
      match session with
      | None -> None
      | Some cache ->
        let tname = "fig-" ^ slug in
        let t = Rp_session.Session.Table.get tname in
        ignore (Rp_session.Session.Table.flush t);
        Rp_session.Session.Table.add_rule t
          {
            Rp_session.Session.Table.kind = `Snat;
            filter = Rp_classifier.Filter.v4 ();
            addr = nat_addr;
            port = None;
            tos = Some 0x28;
          };
        List.iter
          (fun plugin ->
            let m = Option.get (Rp_control.Plugin_lib.find plugin) in
            ok (Pcu.modload r.Router.pcu m);
            let i =
              ok
                (Pcu.create_instance r.Router.pcu ~plugin
                   [ ("table", tname); ("cache", (if cache then "on" else "off")) ])
            in
            ok
              (Pcu.register_instance r.Router.pcu
                 ~instance:i.Plugin.instance_id
                 (Rp_classifier.Filter.v4 ())))
          [ "nat"; "conntrack" ];
        Some t
    in
    let e = Rp_engine.Engine.create Rp_engine.Engine.Inline r in
    let sink _ = () in
    let shoot now m =
      ignore (Rp_engine.Engine.submit e ~now m);
      ignore (Rp_engine.Engine.flush e ~f:sink)
    in
    (* warm: create every session and cache both directions' routes *)
    for f = 0 to flows - 1 do
      shoot (Int64.of_int (f * 10)) (Mbuf.synth ~key:(fwd_key f) ~len:512 ());
      shoot (Int64.of_int ((f * 10) + 5)) (Mbuf.synth ~key:(rev_key f) ~len:512 ())
    done;
    let stats0 = Option.map Rp_session.Session.Table.stats table in
    let cycles0 = Cost.get () in
    Rp_lpm.Access.set_enabled true;
    let (), accesses =
      Rp_lpm.Access.measure (fun () ->
          for i = 0 to steady - 1 do
            let f = i mod flows in
            let key = if i land 1 = 0 then fwd_key f else rev_key f in
            shoot (Int64.of_int (1000 + i)) (Mbuf.synth ~key ~len:512 ())
          done)
    in
    let dcyc = Cost.get () - cycles0 in
    Rp_engine.Engine.stop e;
    let per_pkt = float_of_int accesses /. float_of_int steady in
    let cyc_pkt = float_of_int dcyc /. float_of_int steady in
    let hz = Cost.cpu_mhz *. 1e6 in
    let mpps = if dcyc > 0 then hz /. cyc_pkt /. 1e6 else 0.0 in
    let lookups, cached_hits =
      match (stats0, Option.map Rp_session.Session.Table.stats table) with
      | Some s0, Some s1 ->
        ( s1.Rp_session.Session.Table.lookups - s0.Rp_session.Session.Table.lookups,
          s1.Rp_session.Session.Table.cached_hits
          - s0.Rp_session.Session.Table.cached_hits )
      | _ -> (0, 0)
    in
    Printf.printf "  %-10s %14.3f %14.1f %12.4f %14d %14d\n" slug per_pkt
      cyc_pkt mpps lookups cached_hits;
    let set k v =
      Rp_obs.Registry.set (Printf.sprintf "bench.fig_session.%s.%s" slug k) v
    in
    set "steady_accesses_per_pkt" per_pkt;
    set "cycles_per_pkt" cyc_pkt;
    set "model_mpps" mpps;
    (match session with
     | Some _ ->
       set "steady_table_lookups" (float_of_int lookups);
       set "cached_hits_per_pkt" (float_of_int cached_hits /. float_of_int steady)
     | None -> ());
    (match table with
     | Some t -> ignore (Rp_session.Session.Table.flush t)
     | None -> ());
    Gc.full_major ()
  in
  run ~slug:"fix" ~session:None;
  run ~slug:"cached" ~session:(Some true);
  run ~slug:"nocache" ~session:(Some false);
  Printf.printf
    "\n  (bench/gates.ml gates cached <= fix + 1 access/pkt, zero\n\
    \   steady-state table lookups, and cached below nocache)\n"

(* ---------------------------------------------------------------------- *)
(* fig-latency: end-to-end latency SLOs on the model clock.               *)
(* ---------------------------------------------------------------------- *)

(* Ingress→verdict latency from the SLO layer: the inline engine's
   cached 3-gate path (per-packet spans), the sharded engine at 4
   domains with paced submission (one packet in flight, so worker
   batches stay at 1 and spans remain per-packet), exemplar capture
   under an armed threshold, and the Table-3 identity check — the same
   fixed workload charged with stamping on vs off must agree to the
   cycle (the SLO layer only reads the clock).  All latency figures
   are model cycles: byte-stable across runs and machines.
   bench/gates.ml gates the p99s, the identity, and at least one
   resolvable exemplar. *)
let fig_latency () =
  section "fig-latency: end-to-end latency SLOs (model cycles)";
  let agg () =
    Rp_obs.Registry.histogram ~bounds:Rp_obs.Slo.latency_bounds
      "slo.latency.cycles"
  in
  (* Earlier sections already pushed packets through the data path;
     start each phase from empty distributions. *)
  let reset_slo () =
    Rp_obs.Histogram.reset (agg ());
    List.iter
      (fun (_, _, h) -> Rp_obs.Histogram.reset h)
      (Rp_obs.Slo.shard_table ());
    Rp_obs.Slo.clear_exemplars ()
  in
  let mk_router () =
    let gates = [ Gate.Ip_options; Gate.Security_in; Gate.Stats ] in
    let ifaces =
      [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:max_int () ]
    in
    let r = Router.create ~mode:Router.Plugins ~gates ~ifaces () in
    Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
    List.iter
      (fun (g, n) ->
        ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate:g ~name:n));
        let i = ok (Pcu.create_instance r.Router.pcu ~plugin:n []) in
        ok
          (Pcu.register_instance r.Router.pcu ~instance:i.Plugin.instance_id
             (Rp_classifier.Filter.v4 ())))
      [ (Gate.Ip_options, "lat0"); (Gate.Security_in, "lat1");
        (Gate.Stats, "lat2") ];
    r
  in
  let flow_key f =
    Flow_key.make
      ~src:(Ipaddr.v4 10 0 (f lsr 8 land 0xFF) (f land 0xFF))
      ~dst:(Ipaddr.v4 192 168 1 1) ~proto:Proto.udp ~sport:(1000 + f)
      ~dport:9000 ~iface:0
  in
  let process r key =
    let m = Mbuf.synth ~key ~len:1000 () in
    match Ip_core.process r ~now:0L m with
    | Ip_core.Enqueued out -> ignore (Iface.dequeue (Router.iface r out) ~now:0L)
    | Ip_core.Delivered_local | Ip_core.Absorbed | Ip_core.Dropped _ -> ()
  in
  let quantiles h =
    ( Rp_obs.Histogram.quantile h 0.5,
      Rp_obs.Histogram.quantile h 0.99,
      Rp_obs.Histogram.quantile h 0.999 )
  in
  Rp_obs.Slo.set_stamping true;
  Rp_obs.Slo.set_threshold 0;

  (* Inline: per-packet ingress→verdict spans on the cached path. *)
  reset_slo ();
  let r = mk_router () in
  process r (flow_key 0);
  for _ = 1 to 2000 do
    process r (flow_key 0)
  done;
  let p50, p99, p999 = quantiles (agg ()) in
  Printf.printf "  %-12s %9s %9s %9s %9s\n" "engine" "packets" "p50" "p99"
    "p999";
  Printf.printf "  %-12s %9d %9.0f %9.0f %9.0f\n" "inline"
    (Rp_obs.Histogram.total (agg ()))
    p50 p99 p999;
  Rp_obs.Registry.set "bench.latency.inline.p50" p50;
  Rp_obs.Registry.set "bench.latency.inline.p99" p99;
  Rp_obs.Registry.set "bench.latency.inline.p999" p999;

  (* Exemplars: arm a 1-cycle threshold so every packet breaches, then
     check each retained exemplar resolves to a flow key and a
     per-gate cycle breakdown. *)
  Rp_obs.Slo.set_threshold 1;
  for _ = 1 to 32 do
    process r (flow_key 0)
  done;
  Rp_obs.Slo.set_threshold 0;
  let exemplars = Rp_obs.Slo.exemplars () in
  let resolvable =
    List.filter
      (fun (e : Rp_obs.Slo.exemplar) -> e.key <> "" && e.gates <> [])
      exemplars
  in
  Printf.printf "\n  exemplars captured: %d retained, %d resolvable\n"
    (List.length exemplars) (List.length resolvable);
  (match resolvable with
   | e :: _ -> Printf.printf "    %s\n" (Rp_obs.Slo.exemplar_to_string e)
   | [] -> ());
  Rp_obs.Registry.set "bench.latency.exemplars"
    (float_of_int (List.length resolvable));

  (* Sharded:4 — paced submission (wait for each result) keeps worker
     batches at one packet, so the spans are comparable to inline. *)
  reset_slo ();
  let r = mk_router () in
  let e = Rp_engine.Engine.create (Rp_engine.Engine.Sharded 4) r in
  let flows = 64 and per_flow = 40 in
  for f = 0 to flows - 1 do
    let key = flow_key (256 + f) in
    for _ = 1 to per_flow do
      let m = Mbuf.synth ~key ~len:1000 () in
      while not (Rp_engine.Engine.submit e ~now:0L m) do
        ignore (Rp_engine.Engine.drain e ~f:(fun _ -> ()))
      done;
      let got = ref 0 in
      while !got = 0 do
        got := Rp_engine.Engine.drain e ~f:(fun _ -> ())
      done
    done
  done;
  ignore (Rp_engine.Engine.flush e ~f:(fun _ -> ()));
  Rp_engine.Engine.stop e;
  let shard_rows =
    List.filter
      (fun (_, cls, h) ->
        cls = Rp_obs.Slo.Fwd && Rp_obs.Histogram.total h > 0)
      (Rp_obs.Slo.shard_table ())
  in
  let max_p99 =
    List.fold_left
      (fun acc (shard, _, h) ->
        let p50, p99, p999 = quantiles h in
        Printf.printf "  %-12s %9d %9.0f %9.0f %9.0f\n"
          (Printf.sprintf "shard%d" shard)
          (Rp_obs.Histogram.total h) p50 p99 p999;
        max acc p99)
      0.0 shard_rows
  in
  Rp_obs.Registry.set "bench.latency.sharded4.max_p99" max_p99;
  Rp_obs.Registry.set "bench.latency.sharded4.shards"
    (float_of_int (List.length shard_rows));

  (* Table-3 identity: the same fixed workload, stamping on vs off,
     must charge exactly the same cycles — the SLO layer never touches
     the model. *)
  let t3 stamping =
    Rp_obs.Slo.set_stamping stamping;
    let r = mk_router () in
    let c0 = Cost.get () in
    for _ = 1 to 500 do
      process r (flow_key 7)
    done;
    Cost.get () - c0
  in
  let t3_on = t3 true in
  let t3_off = t3 false in
  Rp_obs.Slo.set_stamping true;
  Printf.printf
    "\n  Table-3 identity: %d cycles stamped, %d unstamped (%s)\n" t3_on
    t3_off
    (if t3_on = t3_off then "identical" else "MISMATCH");
  Rp_obs.Registry.set "bench.latency.t3_on_cycles" (float_of_int t3_on);
  Rp_obs.Registry.set "bench.latency.t3_off_cycles" (float_of_int t3_off)

(* ---------------------------------------------------------------------- *)
(* fig-zipf: million-flow Zipf long-haul soak.                            *)
(* ---------------------------------------------------------------------- *)

(* The "millions of users" scale test (ROADMAP item 4): 10^6 concurrent
   flows across 4 shards, Zipf(0.99) packet popularity over the flow
   ranks, Pareto heavy-tailed per-flow packet budgets so flows retire
   and fresh ones arrive continuously, and periodic idle-window expiry
   passes — recycling, expiry and the probe index all run hot for
   minutes of simulated time.  bench/gates.ml gates the metrics. *)
let fig_zipf () =
  section "fig-zipf: million-flow Zipf long-haul soak (sharded:4)";
  let flows = 1_000_000 in
  let batch = 64 in
  let steady_total = 3_000_000 in
  (* 8 ms of simulated time per batch: the steady phase spans ~375 s
     of router time while staying a few million packets of real work. *)
  let dt_batch = 8_000_000L in
  let idle_sim_ns = 300_000_000_000L in
  (* Keepalive every 2nd packet bounds any live flow's idle gap at
     2 * flows packets = ~250 s sim < idle_sim_ns, so expiry culls
     only retired flows, never the cold-but-live Zipf tail. *)
  let keepalive_every = 2 in
  let pause_every = 4096 (* batches between idle expiry pauses *) in
  Printf.printf
    "Zipf(0.99) popularity over %d flow ranks, Pareto(1.2, 4) per-flow\n\
     packet budgets (flows retire, fresh ones take over the rank),\n\
     one-packet-per-rank seed sweep, then %d steady packets with an\n\
     expiry pass every %d batches (idle threshold %.0f s sim).\n\n"
    flows steady_total pause_every
    (Int64.to_float idle_sim_ns /. 1e9);
  let counter_get name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let acc_p0 = counter_get "flow_table.accounted_packets" in
  let acc_b0 = counter_get "flow_table.accounted_bytes" in
  let exp_p0 = counter_get "flow_export.packets" in
  let exp_b0 = counter_get "flow_export.bytes" in
  let gates = [ Gate.Ip_options; Gate.Firewall; Gate.Stats ] in
  let ifaces =
    [ Iface.create ~id:0 (); Iface.create ~id:1 ~fifo_limit:max_int () ]
  in
  let r = Router.create ~mode:Router.Plugins ~gates ~ifaces () in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  List.iteri
    (fun i gate ->
      let name = Printf.sprintf "zipf-empty-%d" i in
      ok (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate ~name));
      let inst = ok (Pcu.create_instance r.Router.pcu ~plugin:name []) in
      ok
        (Pcu.register_instance r.Router.pcu ~instance:inst.Plugin.instance_id
           (Rp_classifier.Filter.v4 ~proto:Proto.udp ())))
    gates;
  let e = Rp_engine.Engine.create (Rp_engine.Engine.Sharded 4) r in
  let pool = Pool.create ~capacity:8192 () in
  let link = Link.create ~capacity:1024 () in
  let synth =
    Rp_sim.Synth.create ~flows ~pool ~popularity:(Rp_sim.Synth.Zipf 0.99)
      ~flow_packets:(Rp_sim.Synth.Pareto (1.2, 4.0))
      ~sweep:true ~keepalive_every ()
  in
  let scratch =
    Array.make batch
      (Mbuf.synth ~key:(Rp_sim.Traffic.flow_key ~id:0 ()) ~len:0 ())
  in
  let drained = ref 0 in
  let recycle (res : Rp_engine.Shard.result) =
    Pool.free pool res.Rp_engine.Shard.m;
    incr drained
  in
  let now = ref 0L in
  let pump ~upto =
    (* One pump iteration: refill the link, push one batch into the
       engine (retrying ring-full shards against a drain), collect
       results.  Returns packets submitted. *)
    ignore (Rp_sim.Synth.pull synth ~now_ns:!now link ~max:(2 * batch));
    let n = Link.receive_batch link ~max:(min batch upto) scratch in
    for i = 0 to n - 1 do
      while not (Rp_engine.Engine.submit e ~now:!now scratch.(i)) do
        ignore (Rp_engine.Engine.drain e ~f:recycle)
      done
    done;
    ignore (Rp_engine.Engine.drain e ~f:recycle);
    n
  in
  let flow_total () =
    let s = ref 0 in
    for i = 0 to 3 do
      s := !s + Rp_engine.Engine.shard_flow_count e i
    done;
    !s
  in
  (* Phase 1 — seed sweep: one packet per rank, flow-setup latency
     stamped into the PR 9 SLO histograms (every packet is a miss). *)
  Rp_obs.Histogram.reset
    (Rp_obs.Registry.histogram ~bounds:Rp_obs.Slo.latency_bounds
       "slo.latency.cycles");
  List.iter
    (fun (_, _, h) -> Rp_obs.Histogram.reset h)
    (Rp_obs.Slo.shard_table ());
  Rp_obs.Slo.clear_exemplars ();
  Rp_obs.Slo.set_stamping true;
  Rp_obs.Slo.set_threshold 0;
  let t_sweep0 = Unix.gettimeofday () in
  let submitted = ref 0 in
  while !submitted < flows do
    submitted := !submitted + pump ~upto:(flows - !submitted)
  done;
  ignore (Rp_engine.Engine.flush e ~f:recycle);
  Rp_obs.Slo.set_stamping false;
  let p99_setup =
    List.fold_left
      (fun acc (_, cls, h) ->
        if cls = Rp_obs.Slo.Fwd && Rp_obs.Histogram.total h > 0 then
          max acc (Rp_obs.Histogram.quantile h 0.99)
        else acc)
      0.0
      (Rp_obs.Slo.shard_table ())
  in
  let high_water = flow_total () in
  Printf.printf
    "  sweep: %d flows seeded in %.1f s wall, %d concurrent, p99 \
     flow-setup %.0f cycles\n"
    flows
    (Unix.gettimeofday () -. t_sweep0)
    high_water p99_setup;
  (* Phase 2 — steady churn: Zipf + keepalive traffic with the sim
     clock advancing, pausing every [pause_every] batches to sample
     concurrency and run an idle-window expiry pass. *)
  let cycles0 =
    let mx = ref 0 in
    for i = 0 to 3 do
      mx := max !mx (Rp_engine.Engine.shard_cycles e i)
    done;
    !mx
  in
  (* Slots the shards' expiry passes visit (nothing else sweeps their
     tables in this phase). *)
  let maint_visited () =
    let s = ref 0 in
    for i = 0 to 3 do
      s := !s + (Rp_engine.Engine.shard_flow_stats e i).Rp_classifier
                  .Flow_table.maint_visited
    done;
    !s
  in
  let visited0 = maint_visited () in
  let t_steady0 = Unix.gettimeofday () in
  let steady_sent = ref 0 in
  let batches = ref 0 in
  let min_sustained = ref high_water in
  let expired = ref 0 in
  while !steady_sent < steady_total do
    now := Int64.add !now dt_batch;
    steady_sent := !steady_sent + pump ~upto:(steady_total - !steady_sent);
    incr batches;
    if !batches mod pause_every = 0 then begin
      ignore (Rp_engine.Engine.flush e ~f:recycle);
      let live = flow_total () in
      if live < !min_sustained then min_sustained := live;
      expired := !expired + Rp_engine.Engine.expire_flows e ~now:!now
                              ~idle_ns:idle_sim_ns
    end
  done;
  ignore (Rp_engine.Engine.flush e ~f:recycle);
  let live_end = flow_total () in
  if live_end < !min_sustained then min_sustained := live_end;
  expired := !expired + Rp_engine.Engine.expire_flows e ~now:!now
                          ~idle_ns:idle_sim_ns;
  let expiry_visits = maint_visited () - visited0 in
  let cycles1 =
    let mx = ref 0 in
    for i = 0 to 3 do
      mx := max !mx (Rp_engine.Engine.shard_cycles e i)
    done;
    !mx
  in
  let chain_max =
    let mx = ref 0 in
    for i = 0 to 3 do
      mx := max !mx (Rp_engine.Engine.shard_flow_stats e i).Rp_classifier
              .Flow_table.chain_max
    done;
    !mx
  in
  let hz = Cost.cpu_mhz *. 1e6 in
  let steady_mpps =
    let dcyc = cycles1 - cycles0 in
    if dcyc > 0 then
      float_of_int !steady_sent /. (float_of_int dcyc /. hz) /. 1e6
    else 0.0
  in
  let sim_seconds = Int64.to_float !now /. 1e9 in
  Printf.printf
    "  steady: %d packets over %.0f s sim (%.1f s wall), %.4f model \
     mpps/domain\n\
    \  arrivals=%d expired=%d expiry visits=%d min_sustained=%d probe \
     chain_max=%d\n"
    !steady_sent sim_seconds
    (Unix.gettimeofday () -. t_steady0)
    steady_mpps
    (Rp_sim.Synth.arrivals synth)
    !expired expiry_visits !min_sustained chain_max;
  (* Wind down: the pump pulls up to [2 * batch] packets per iteration
     but submits at most [batch], so a link's worth of generated
     packets can still be queued when the steady loop exits — feed
     them through before reconciling, else they read as lost. *)
  let rec drain_link () =
    let n = Link.receive_batch link ~max:batch scratch in
    if n > 0 then begin
      for i = 0 to n - 1 do
        while not (Rp_engine.Engine.submit e ~now:!now scratch.(i)) do
          ignore (Rp_engine.Engine.drain e ~f:recycle)
        done
      done;
      ignore (Rp_engine.Engine.drain e ~f:recycle);
      drain_link ()
    end
  in
  drain_link ();
  ignore (Rp_engine.Engine.flush e ~f:recycle);
  (* Export every remaining record, then reconcile the export-side
     packet/byte counters against the accounting-side ones — exact
     equality means every accounted packet left the table in exactly
     one flow record. *)
  Rp_engine.Engine.stop e;
  Rp_engine.Engine.flush_flows e;
  let recon_packets =
    counter_get "flow_table.accounted_packets" - acc_p0
    - (counter_get "flow_export.packets" - exp_p0)
  in
  let recon_bytes =
    counter_get "flow_table.accounted_bytes" - acc_b0
    - (counter_get "flow_export.bytes" - exp_b0)
  in
  let lost = Rp_sim.Synth.generated synth - !drained in
  Printf.printf
    "  reconcile: accounted-vs-exported packets %+d bytes %+d, \
     generated-vs-drained %+d\n"
    recon_packets recon_bytes lost;
  (* Phase 3 — insert storm against a bounded table: a max_records
     table under key pressure must degrade by recycling its oldest
     records, never by failing or growing past the bound. *)
  let storm_cap = 65_536 in
  let aiu =
    Rp_classifier.Aiu.create ~max_records:storm_cap ~gates:1 ()
  in
  Rp_classifier.Aiu.bind aiu ~gate:0 (Rp_classifier.Filter.v4 ()) ();
  for id = 0 to (2 * storm_cap) - 1 do
    ignore
      (Rp_classifier.Aiu.classify_key aiu
         (Rp_sim.Traffic.flow_key ~id ())
         ~gate:0 ~now:0L)
  done;
  let ft = Rp_classifier.Aiu.flow_table aiu in
  let storm_stats = Rp_classifier.Flow_table.stats ft in
  Printf.printf
    "  storm: %d inserts into a %d-record table -> capacity %d, \
     recycled %d\n"
    (2 * storm_cap) storm_cap
    (Rp_classifier.Flow_table.capacity ft)
    storm_stats.Rp_classifier.Flow_table.recycled;
  let m k v = Rp_obs.Registry.set (Printf.sprintf "bench.fig_zipf.%s" k) v in
  m "flows" (float_of_int flows);
  m "high_water_flows" (float_of_int high_water);
  m "min_sustained_flows" (float_of_int !min_sustained);
  m "sim_seconds" sim_seconds;
  m "arrivals" (float_of_int (Rp_sim.Synth.arrivals synth));
  m "expired" (float_of_int !expired);
  m "expiry_visits_per_flow"
    (float_of_int expiry_visits /. float_of_int (max 1 high_water));
  m "steady_mpps" steady_mpps;
  m "chain_max" (float_of_int chain_max);
  m "p99_setup_cycles" p99_setup;
  m "recon_packets" (float_of_int recon_packets);
  m "recon_bytes" (float_of_int recon_bytes);
  m "lost_packets" (float_of_int lost);
  m "storm.capacity" (float_of_int (Rp_classifier.Flow_table.capacity ft));
  m "storm.recycled"
    (float_of_int storm_stats.Rp_classifier.Flow_table.recycled)

(* ---------------------------------------------------------------------- *)

let sections =
  [
    ("table2", table2);
    ("table3", table3);
    ("fig-classifier", fig_classifier);
    ("fig-flowtable", fig_flowtable);
    ("fig-drr", fig_drr);
    ("fig-hfsc", fig_hfsc);
    ("fig-gates", fig_gates);
    ("fig-cache", fig_cache);
    ("fig-l4", fig_l4);
    ("fig-collapse", fig_collapse);
    ("fig-grid", fig_grid);
    ("fig-shard", fig_shard);
    ("fig-trace", fig_trace);
    ("fig-churn", fig_churn);
    ("fig-batch", fig_batch);
    ("fig-coldstart", fig_coldstart);
    ("fig-session", fig_session);
    ("fig-latency", fig_latency);
    ("fig-zipf", fig_zipf);
    ("micro", micro);
  ]

(* Print a usage error and exit 2.  Every argument is checked before
   any section runs, so a typo can never skip a section's gates. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let () =
  (* [--metrics-out FILE], [--csv-out FILE] and [--trace-sample N] may
     appear anywhere among the section names: the first dumps the
     metric registry (bench gauges included) as JSON at the end of the
     run; the last runs the sections with hot-path tracing on,
     sampling 1-in-N. *)
  let is_flag = String.starts_with ~prefix:"--" in
  let rec split_args acc metrics trace = function
    | [] -> (List.rev acc, metrics, trace)
    | flag :: rest when is_flag flag && (rest = [] || is_flag (List.hd rest)) ->
      usage_error "%s expects a value" flag
    | "--metrics-out" :: path :: rest -> split_args acc (Some path) trace rest
    | "--csv-out" :: path :: rest ->
      csv_out := Some path;
      split_args acc metrics trace rest
    | "--trace-sample" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> split_args acc metrics (Some n) rest
      | _ ->
        usage_error "--trace-sample %S: expected a positive sampling period" n)
    | name :: rest when List.mem_assoc name sections ->
      split_args (name :: acc) metrics trace rest
    | name :: _ ->
      usage_error "unknown section or flag %S; sections: %s" name
        (String.concat ", " (List.map fst sections))
  in
  let names, metrics_out, trace_sample =
    split_args [] None None (List.tl (Array.to_list Sys.argv))
  in
  Option.iter
    (fun n ->
      Rp_obs.Telemetry.enable ~every:n;
      Printf.printf "(tracing on, sampling 1-in-%d)\n" n)
    trace_sample;
  let requested =
    match names with [] -> List.map fst sections | names -> names
  in
  Printf.printf
    "Router Plugins benchmark harness — reproducing the evaluation of\n\
     Decasper, Dittia, Parulkar & Plattner, SIGCOMM '98.\n\
     Cost model: %d-cycle best-effort base path, %d cycles/memory\n\
     access (60 ns @ %.0f MHz).  See EXPERIMENTS.md.\n"
    Cost.base_forward Cost.mem_access Cost.cpu_mhz;
  List.iter
    (fun name ->
      (List.assoc name sections) ();
      Gc.full_major ())
    requested;
  section "Gates (bench/gates.ml)";
  let failed = Gates.run ~sections:requested in
  (match metrics_out with
   | Some path ->
     Rp_obs.Registry.write_json path;
     Printf.printf "\nmetrics written to %s\n" path
   | None -> ());
  if failed <> [] then begin
    List.iter (Printf.eprintf "bench: FAIL %s\n") failed;
    exit 1
  end
