open Rp_pkt
open Rp_core

type t = {
  sim : Sim.t;
  node : Net.node;
  router : Router.t;
  sink : Sink.t;
  out_iface : int;
}

let sink_key ?(proto = Proto.udp) ?(iface = 0) ~id () =
  Flow_key.make
    ~src:(Ipaddr.v4 10 0 (id lsr 8 land 0xFF) (id land 0xFF))
    ~dst:(Ipaddr.v4 192 168 1 (1 + (id mod 250)))
    ~proto
    ~sport:(1024 + (id mod 60000))
    ~dport:9000 ~iface

let single_router ?(mode = Router.Plugins) ?(gates = Gate.all) ?engine
    ?(in_ifaces = 2) ?(out_bandwidth_bps = 155_000_000L) ?flow_max () =
  let sim = Sim.create () in
  let ifaces =
    List.init (in_ifaces + 1) (fun id ->
        if id < in_ifaces then Iface.create ~id ()
        else Iface.create ~id ~bandwidth_bps:out_bandwidth_bps ())
  in
  let router = Router.create ~mode ~gates ?flow_max ~ifaces () in
  let out_iface = in_ifaces in
  Router.add_route router (Prefix.of_string "192.168.0.0/16") ~iface:out_iface ();
  Router.add_route router (Prefix.of_string "2001:db8::/32") ~iface:out_iface ();
  let node = Net.add_router ?engine sim router in
  let sink = Sink.create () in
  Net.connect node ~iface:out_iface (Net.To_sink sink) ~prop_ns:10_000L;
  { sim; node; router; sink; out_iface }

let add_flow t flow = Traffic.install t.sim t.node flow

let run t ~seconds = ignore (Sim.run ~until:(Sim.ns_of_sec seconds) t.sim)

(* Table 3: "We sent 8 KByte UDP/IPv6 datagrams ... belonging to three
   different flows concurrently through our router ... a total of 100
   packets per flow."  Packets are injected back to back so the
   processing path, not the arrival pattern, dominates. *)
let table3_workload t ?(flows = 3) ?(per_flow = 100) ?(pkt_len = 8192) () =
  for id = 0 to flows - 1 do
    ignore
      (add_flow t
         {
           Traffic.key = sink_key ~id ();
           pkt_len;
           pattern = Traffic.Cbr 25_000.0;
           start_ns = 1_000L;
           stop_ns = Int64.add 1_000L (Int64.of_float (float_of_int per_flow *. 4e4));
           seed = id;
         })
  done
