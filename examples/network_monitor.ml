(* Network monitoring: per-flow statistics gathering without touching
   the forwarding code (the network-management application of the
   paper's section 2: "to be able to quickly and easily change the
   kinds of statistics being collected ... without incurring
   significant overhead on the data path").

   Two stats instances are bound to different slices of the traffic
   (per-department accounting); a third is added *while traffic is
   flowing* to start watching DNS specifically; reports are pulled
   through plugin-specific PCU messages. *)

open Rp_pkt

let pmgr r cmd =
  match Rp_control.Pmgr.exec r cmd with
  | Ok out -> out
  | Error e -> failwith (Printf.sprintf "pmgr %s: %s" cmd e)

let () =
  print_endline "== network monitor (stats plugins) ==\n";
  let s = Rp_sim.Scenario.single_router ~in_ifaces:1 () in
  let r = s.Rp_sim.Scenario.router in
  ignore (pmgr r "modload stats");
  (* Engineering is 10.1/16, sales is 10.2/16. *)
  ignore (pmgr r "create stats");
  ignore (pmgr r "create stats");
  ignore (pmgr r "bind 1 <10.1.0.0/16, *, *, *, *, *>");
  ignore (pmgr r "bind 2 <10.2.0.0/16, *, *, *, *, *>");
  print_endline "instances: 1 = engineering (10.1/16), 2 = sales (10.2/16)";

  let flow ~id ~src ~dport ~rate ~len =
    ignore
      (Rp_sim.Scenario.add_flow s
         {
           Rp_sim.Traffic.key =
             Flow_key.make ~src:(Ipaddr.of_string src)
               ~dst:(Ipaddr.v4 192 168 1 (10 + id)) ~proto:Proto.udp
               ~sport:(5000 + id) ~dport ~iface:0;
           pkt_len = len;
           pattern = Rp_sim.Traffic.Poisson rate;
           start_ns = 0L;
           stop_ns = Rp_sim.Sim.ns_of_sec 2.0;
           seed = id;
         })
  in
  flow ~id:1 ~src:"10.1.0.4" ~dport:8080 ~rate:400.0 ~len:900;
  flow ~id:2 ~src:"10.1.0.9" ~dport:53 ~rate:120.0 ~len:120;
  flow ~id:3 ~src:"10.2.0.7" ~dport:8080 ~rate:250.0 ~len:1200;
  flow ~id:4 ~src:"10.3.0.2" ~dport:443 ~rate:100.0 ~len:700;

  (* Halfway in, the operator starts DNS-specific monitoring — a new
     instance, hot-bound; the more specific filter wins for DNS
     packets from engineering. *)
  Rp_sim.Sim.at s.Rp_sim.Scenario.sim (Rp_sim.Sim.ns_of_sec 1.0) (fun () ->
      ignore (pmgr r "create stats history=16");
      ignore (pmgr r "bind 3 <10.1.0.0/16, *, UDP, *, 53, *>");
      print_endline "\n[t=1s] operator: started DNS monitor (instance 3)");

  Rp_sim.Scenario.run s ~seconds:3.0;

  print_endline "\n-- reports pulled through PCU messages --";
  List.iter
    (fun (label, id) ->
      Printf.printf "  %-22s %s\n" label (pmgr r (Printf.sprintf "message stats report %d" id)))
    [ ("engineering (1):", 1); ("sales (2):", 2); ("dns monitor (3):", 3) ];

  print_endline "\n-- instance self-descriptions --";
  print_endline (pmgr r "show instances");

  let out = Rp_core.Router.iface r s.Rp_sim.Scenario.out_iface in
  Printf.printf
    "\nrouter forwarded %d packets; stats gathering ran entirely in\n\
     plugins — departmental totals changed per-flow, mid-traffic, with\n\
     zero forwarding-code changes.\n"
    out.Rp_core.Iface.counters.Rp_core.Iface.tx_packets
