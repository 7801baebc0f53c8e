(* DiffServ edge router: per-flow profile enforcement at the
   congestion gate (paper, section 2: edge routers "enforcing the
   configured profiles of differential service flows", on "a
   per-application flow basis").

   Two customers share an edge uplink.  Customer A bought a 2 Mb/s
   committed rate with hard policing (excess dropped); customer B
   bought 1 Mb/s with soft policing (excess forwarded, but re-marked to
   a scavenger DSCP).  Both offer 4 Mb/s.  Token-bucket plugin
   instances at the congestion gate implement both profiles; nothing in
   the forwarding code knows about either.

   Run with: dune exec examples/diffserv_edge.exe *)


let pmgr r cmd =
  match Rp_control.Pmgr.exec r cmd with
  | Ok out ->
    Printf.printf "  pmgr> %-52s %s\n" cmd out;
    out
  | Error e -> failwith (Printf.sprintf "pmgr %s: %s" cmd e)

let () =
  print_endline "== DiffServ edge (token-bucket profile enforcement) ==\n";
  let s =
    Rp_sim.Scenario.single_router ~in_ifaces:1 ~out_bandwidth_bps:100_000_000L ()
  in
  let r = s.Rp_sim.Scenario.router in
  ignore (pmgr r "modload token-bucket");
  (* Customer A: hard policing at 2 Mb/s (250 kB/s). *)
  ignore (pmgr r "create token-bucket rate=250000 burst=20000 action=drop");
  ignore (pmgr r "bind 1 <10.0.0.1, *, UDP, *, *, *>");
  (* Customer B: soft policing at 1 Mb/s, excess re-marked DSCP 7. *)
  ignore (pmgr r "create token-bucket rate=125000 burst=20000 action=mark dscp=7");
  ignore (pmgr r "bind 2 <10.0.0.2, *, UDP, *, *, *>");
  print_newline ();

  (* Both customers blast 4 Mb/s for 2 seconds. *)
  List.iter
    (fun id ->
      ignore
        (Rp_sim.Scenario.add_flow s
           {
             Rp_sim.Traffic.key = Rp_sim.Scenario.sink_key ~id ();
             pkt_len = 1000;
             pattern = Rp_sim.Traffic.Cbr 500.0;  (* 4 Mb/s *)
             start_ns = 0L;
             stop_ns = Rp_sim.Sim.ns_of_sec 2.0;
             seed = id;
           }))
    [ 1; 2 ];
  Rp_sim.Scenario.run s ~seconds:2.5;

  let report label id instance =
    let conformed, exceeded =
      Option.value (Rp_sched.Tb_plugin.counters ~instance_id:instance)
        ~default:(0, 0)
    in
    let delivered =
      match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink (Rp_sim.Scenario.sink_key ~id ()) with
      | Some fs -> Rp_sim.Sink.goodput_bps fs /. 1e6
      | None -> 0.0
    in
    Printf.printf "  %-12s offered 4.00 Mb/s   in-profile %4d pkts   excess %4d pkts   delivered %.2f Mb/s\n"
      label conformed exceeded delivered
  in
  print_endline "results after 2 s at 4 Mb/s offered each:";
  report "customer A" 1 1;
  report "customer B" 2 2;
  List.iter
    (fun (reason, n) ->
      if n > 0 then
        Printf.printf "  edge dropped %d packets (%s)\n" n
          (Rp_obs.Drop_reason.name reason))
    (Rp_obs.Drop_reason.table ());
  Printf.printf
    "\nCustomer A's excess died at the edge (hard policing); customer\n\
     B's excess crossed the link re-marked to the scavenger class\n\
     (DSCP 7), ready for preferential dropping downstream.  Both\n\
     profiles are per-flow soft state in the flow table — adding a\n\
     customer is one pmgr 'create' + 'bind'.\n"
