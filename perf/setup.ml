(* Router configurations of the four workloads.  Everything is built
   through the router's public control surface — mostly [pmgr]
   commands — from inputs drawn from the seed. *)

open Rp_pkt
open Rp_core
module Engine = Rp_engine.Engine
module Session = Rp_session.Session

type rig = {
  router : Router.t;
  engine : Engine.t;
  sessions : Session.Table.t option;
  control : int -> unit;
      (** control operation number [j]: bind (even [j]) or unbind (odd
          [j]) a filter on one source /24 at the security-in gate *)
}

type workload = {
  name : string;
  segment : int;  (** packets per timed segment *)
  segments : int;  (** timed segments in a 10 s run *)
  warmup : int;  (** untimed packets before the first segment *)
  churn : bool;  (** one control operation at the start of every segment *)
  prepare : seed:int -> (Engine.mode -> rig) * (unit -> Gen.t);
      (** draws the inputs from the seed, returning the router build
          (what [setup_s] times) and the traffic generator *)
}

let pmgr r cmd =
  match Rp_control.Pmgr.exec r cmd with
  | Ok out -> out
  | Error e -> failwith (Printf.sprintf "pmgr %S: %s" cmd e)

let create r plugin =
  Scanf.sscanf (pmgr r ("create " ^ plugin)) "instance %d" Fun.id

let ifaces n = List.init n (fun id -> Iface.create ~id ())

(* Each source /24 10.0.0-15.x holds 256 flows of the uniform traffic. *)
let ctl_op r ~sec j =
  ignore
    (pmgr r
       (Printf.sprintf "%s %d <10.0.%d.0/24, *, *, *, *, *>"
          (if j land 1 = 0 then "bind" else "unbind")
          sec
          (j / 2 mod 16)))

let rig ?sessions ~sec mode r =
  { router = r; engine = Engine.create mode r; sessions; control = ctl_op r ~sec }

(* Idle timeout of nat-drr's sessions and flow records: 100,000
   packets of simulated time.  A conversation draws a packet once in
   4,096 on average, so the chance that a live one idles this long is
   e^-24 per gap; a finished one lingers this long, which holds the
   table near 10,800 sessions, the 4,096 live ones included. *)
let idle_ns = 100_000_000L

(* Expire idle sessions and flow records at simulated time [now]: the
   router's maintenance, run wherever it keeps sessions.  Shard flow
   tables may only be swept with the workers idle, hence the flush. *)
let expire (rig : rig) ~now =
  match rig.sessions with
  | None -> ()
  | Some t ->
    ignore (Engine.flush rig.engine ~f:ignore);
    ignore (Session.Table.expire t ~now);
    ignore (Engine.expire_flows rig.engine ~now ~idle_ns)

let table3_gates = [ Gate.Ip_options; Gate.Security_in; Gate.Stats ]

(* The Table-3 plugin configuration: empty plugins at the ip-options,
   security-in and stats gates, each bound to every flow; returns the
   three instance ids in that order. *)
let empty_plugins r =
  List.map
    (fun p ->
      ignore (pmgr r ("modload " ^ p));
      let id = create r p in
      ignore (pmgr r (Printf.sprintf "bind %d <*, *, *, *, *, *>" id));
      id)
    [ "empty-options"; "empty-security"; "empty-stats" ]

(* "The system had 16 filters installed": 13 inert TCP filters at the
   ip-options gate, as in the paper-reproduction harness. *)
let inert_filters r =
  for i = 1 to 13 do
    Rp_classifier.Aiu.bind (Router.aiu r)
      ~gate:(Gate.to_int Gate.Ip_options)
      (Rp_classifier.Filter.v4
         ~src:(Prefix.make (Ipaddr.v4 172 16 i 0) 24)
         ~proto:Proto.tcp ())
      (Plugin.simple ~instance_id:(9000 + i) ~code:0 ~plugin_name:"inert"
         ~gate:Gate.Ip_options (fun _ _ -> Plugin.Continue))
  done

let uniform_routes r =
  for j = 0 to 1023 do
    Router.add_route r
      (Prefix.make (Ipaddr.v4 20 (j lsr 8) (j land 255) 0) 24)
      ~iface:1 ()
  done

(* Bulk filters with BGP-like prefix lengths (/16../31 IPv4, /48../64
   IPv6), TCP or UDP, 30% with an exact destination port. *)
let bulk_filters ~seed ~salt n ~v6_every =
  let rng = Random.State.make [| seed; salt |] in
  let int = Random.State.int rng in
  List.init n (fun i ->
      let proto = if Random.State.bool rng then Proto.tcp else Proto.udp in
      if v6_every > 0 && i mod v6_every = v6_every - 1 then
        let a () =
          Ipaddr.v6
            (Int32.of_int (0x20010000 lor int 0x10000))
            (Int32.of_int (Random.State.bits rng))
            (Int32.of_int (Random.State.bits rng))
            0l
        in
        Rp_classifier.Filter.v6
          ~src:(Prefix.make (a ()) (48 + int 17))
          ~dst:(Prefix.make (a ()) (48 + int 17))
          ~proto ()
      else
        let a () = Ipaddr.v4 (1 + int 222) (int 256) (int 256) (int 256) in
        Rp_classifier.Filter.v4
          ~src:(Prefix.make (a ()) (16 + int 16))
          ~dst:(Prefix.make (a ()) (16 + int 16))
          ~proto
          ~dport:(if int 10 < 3 then Rp_classifier.Filter.Port (int 10)
                  else Rp_classifier.Filter.Any_port)
          ())

let register r id filters =
  List.iter
    (fun f ->
      match Pcu.register_instance r.Router.pcu ~instance:id f with
      | Ok () -> ()
      | Error e -> failwith e)
    filters

(* --- the four workloads ----------------------------------------------- *)

let fwd64 =
  {
    name = "fwd64";
    segment = 100_000;
    segments = 50;
    warmup = 50_000;
    churn = false;
    prepare =
      (fun ~seed ->
        ( (fun mode ->
            let r = Router.create ~gates:table3_gates ~ifaces:(ifaces 2) () in
            let ids = empty_plugins r in
            inert_filters r;
            uniform_routes r;
            rig ~sec:(List.nth ids 1) mode r),
          fun () -> Gen.uniform ~seed ~flows:1024 ));
  }

let flowchurn =
  {
    name = "flowchurn";
    segment = 20_000;
    segments = 50;
    warmup = 200_000;
    churn = false;
    prepare =
      (fun ~seed ->
        let prefixes = Gen.bgp_prefixes ~seed ~count:100_000 in
        let filters =
          List.map
            (fun salt -> bulk_filters ~seed ~salt 2000 ~v6_every:5)
            [ 1; 2; 3 ]
        in
        ( (fun mode ->
            let r =
              Router.create ~gates:table3_gates ~flow_max:65_536
                ~ifaces:(ifaces 2) ()
            in
            let ids = empty_plugins r in
            List.iter2
              (fun id fs -> register r id (Rp_classifier.Filter.v6 () :: fs))
              ids filters;
            Router.add_route r Prefix.any_v4 ~iface:1 ();
            Router.add_route r Prefix.any_v6 ~iface:1 ();
            Array.iter (fun p -> Router.add_route r p ~iface:1 ()) prefixes;
            rig ~sec:(List.nth ids 1) mode r),
          fun () -> Gen.churn ~seed ~ranks:1_000_000 ~prefixes ));
  }

let session_tables = ref 0

let nat_drr =
  {
    name = "nat-drr";
    segment = 30_000;
    segments = 50;
    warmup = 100_000;
    churn = false;
    prepare =
      (fun ~seed ->
        ( (fun mode ->
            let r =
              Router.create
                ~gates:
                  [ Gate.Security_in; Gate.Firewall; Gate.Security_out; Gate.Scheduling ]
                ~flow_max:65_536 ~ifaces:(ifaces 2) ()
            in
            (* a fresh session table per build: tables are process-wide *)
            incr session_tables;
            let name = Printf.sprintf "perf-%d" !session_tables in
            let sessions = Session.Table.get name in
            List.iter
              (fun c -> Session.Table.set_timeout sessions c idle_ns)
              [ `Tcp_syn; `Tcp_est; `Tcp_fin; `Udp; `Other ];
            Session.Table.add_rule sessions
              {
                Session.Table.kind = `Snat;
                filter =
                  Rp_classifier.Filter.v4 ~src:(Prefix.of_string "10.0.0.0/8") ();
                addr = Gen.nat_addr;
                port = None;
                tos = None;
              };
            let ids =
              List.map
                (fun p ->
                  ignore (pmgr r ("modload " ^ p));
                  let id = create r (Printf.sprintf "%s table=%s" p name) in
                  ignore (pmgr r (Printf.sprintf "bind %d <*, *, *, *, *, *>" id));
                  id)
                [ "nat"; "conntrack"; "nat-out" ]
            in
            (* one DRR qdisc per egress interface; the scheduling-gate
               binding gives every flow its own DRR queue *)
            ignore (pmgr r "modload drr");
            List.iteri
              (fun i ifc ->
                let id = create r "drr" in
                if i = 0 then
                  ignore (pmgr r (Printf.sprintf "bind %d <*, *, *, *, *, *>" id));
                ignore (pmgr r (Printf.sprintf "attach %d %d" id ifc)))
              [ 1; 0 ];
            ignore (pmgr r "route add 10.0.0.0/8 0");
            ignore (pmgr r "route add 198.18.0.0/15 1");
            rig ~sessions ~sec:(List.hd ids) mode r),
          fun () -> Gen.conversations ~seed ~live:4096 ));
  }

let ctl_churn =
  {
    name = "ctl-churn";
    segment = 160_000;
    segments = 20;
    warmup = 50_000;
    churn = true;
    prepare =
      (fun ~seed ->
        let filters =
          List.map (fun salt -> bulk_filters ~seed ~salt 1000 ~v6_every:0) [ 4; 5; 6 ]
        in
        ( (fun mode ->
            let r = Router.create ~gates:table3_gates ~ifaces:(ifaces 2) () in
            let ids = empty_plugins r in
            List.iter2 (register r) ids filters;
            uniform_routes r;
            ignore (pmgr r "classifier compiled on");
            rig ~sec:(List.nth ids 1) mode r),
          fun () -> Gen.uniform ~seed ~flows:4096 ));
  }

let all = [ fwd64; flowchurn; nat_drr; ctl_churn ]
let find name = List.find_opt (fun w -> w.name = name) all
