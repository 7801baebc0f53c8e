open Rp_pkt

type mode =
  | Best_effort
  | Plugins

type punt_action = Punt_forward | Punt_consume

type t = {
  name : string;
  mode : mode;
  pcu : Pcu.t;
  routes : Route_table.t;
  ifaces : Iface.t array;
  mutable enabled_gates : Gate.t list;
  punts : (int, now:int64 -> Mbuf.t -> punt_action) Hashtbl.t;
  mutable local_addrs : Ipaddr.t list;
  mutable icmp_sent : int;
  mutable fault_policy : Fault.policy;
  mutable cycle_budget : int option;
  ctx : t Domain_ctx.t;
}

let create ?(name = "router") ?(mode = Plugins) ?(gates = Gate.all) ?engine
    ?flow_buckets ?flow_max ?(fault_policy = Fault.Drop_packet) ?cycle_budget
    ?quarantine_threshold ~ifaces () =
  if ifaces = [] then invalid_arg "Router.create: no interfaces";
  let pcu = Pcu.create ?engine ?buckets:flow_buckets ?max_records:flow_max () in
  (match quarantine_threshold with
   | Some n -> Pcu.set_quarantine_threshold pcu n
   | None -> ());
  Flow_export.install (Pcu.aiu pcu);
  let routes = Route_table.create ?engine () in
  let ifaces = Array.of_list ifaces in
  let ctx =
    Domain_ctx.create ~shard:0 ~birth_clock:false ~aiu:(Pcu.aiu pcu) ~routes
      ~mtus:(Array.map (fun i -> i.Iface.mtu) ifaces)
  in
  let t =
    {
      name;
      mode;
      pcu;
      routes;
      ifaces;
      enabled_gates = gates;
      punts = Hashtbl.create 8;
      local_addrs = [];
      icmp_sent = 0;
      fault_policy;
      cycle_budget;
      ctx;
    }
  in
  ctx.Domain_ctx.owner <- Some t;
  t

let iface t i =
  if i < 0 || i >= Array.length t.ifaces then
    invalid_arg (Printf.sprintf "Router.iface: no interface %d" i);
  t.ifaces.(i)

let aiu t = Pcu.aiu t.pcu

let gate_enabled t g =
  match t.mode with
  | Best_effort -> false
  | Plugins -> List.exists (Gate.equal g) t.enabled_gates

let enable_gates t gs = t.enabled_gates <- gs

let add_route t prefix ?next_hop ?(metric = 0) ~iface () =
  if iface < 0 || iface >= Array.length t.ifaces then
    invalid_arg (Printf.sprintf "Router.add_route: no interface %d" iface);
  Route_table.add t.routes { Route_table.prefix; next_hop; iface; metric }

let add_local_addr t a =
  if not (List.exists (Ipaddr.equal a) t.local_addrs) then
    t.local_addrs <- a :: t.local_addrs

let is_local t a = List.exists (Ipaddr.equal a) t.local_addrs

let local_addr_for t a =
  List.find_opt (fun l -> Ipaddr.width l = Ipaddr.width a) t.local_addrs

let set_punt t ~proto handler = Hashtbl.replace t.punts proto handler
let clear_punt t ~proto = Hashtbl.remove t.punts proto

let expire_flows t ~now ~idle_ns =
  Rp_classifier.Aiu.expire_flows (aiu t) ~now ~idle_ns

(* Quarantine is a PCU operation (filter-binding teardown) plus a
   router-level one: a scheduling instance attached as a qdisc must
   also be detached so the interface degrades to its default FIFO. *)
let quarantine t id =
  match Pcu.quarantine t.pcu id with
  | Error _ as e -> e
  | Ok () ->
    Array.iter
      (fun ifc ->
        match ifc.Iface.qdisc with
        | Some q when q.Plugin.instance_id = id -> Iface.detach_scheduler ifc
        | Some _ | None -> ())
      t.ifaces;
    Ok ()

(* The symmetric restore only re-binds filters; a previously attached
   qdisc is *not* re-attached automatically — the operator re-attaches
   once satisfied the plugin is healthy. *)
let restore t id = Pcu.restore t.pcu id
