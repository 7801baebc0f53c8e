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
  punts : (int, now:int64 -> Mbuf.t -> punt_action) Hashtbl.t;
  mutable icmp_sent : int;
  ctx : t Domain_ctx.t;
}

let create ?(name = "router") ?(mode = Plugins) ?(gates = Gate.all) ?flow_max
    ?(fault_policy = Fault.Drop_packet) ?cycle_budget ?quarantine_threshold
    ~ifaces () =
  if ifaces = [] then invalid_arg "Router.create: no interfaces";
  let pcu = Pcu.create ?max_records:flow_max () in
  (match quarantine_threshold with
   | Some n -> Pcu.set_quarantine_threshold pcu n
   | None -> ());
  Flow_export.install (Pcu.aiu pcu);
  let routes = Route_table.create () in
  let ifaces = Array.of_list ifaces in
  let ctx =
    Domain_ctx.create ~shard:0 ~birth_clock:false ~aiu:(Pcu.aiu pcu) ~routes
      ~control:
        {
          Domain_ctx.gates = (if mode = Best_effort then [] else gates);
          policy = fault_policy;
          budget = cycle_budget;
          punts = [];
          locals = [];
          mtus = Array.map (fun i -> i.Iface.mtu) ifaces;
        }
  in
  let t = { name; mode; pcu; routes; ifaces; punts = Hashtbl.create 8; icmp_sent = 0; ctx } in
  ctx.Domain_ctx.owner <- Some t;
  t

let iface t i =
  if i < 0 || i >= Array.length t.ifaces then
    invalid_arg (Printf.sprintf "Router.iface: no interface %d" i);
  t.ifaces.(i)

let aiu t = Pcu.aiu t.pcu
let control t = t.ctx.Domain_ctx.control

(* Every change installs a fresh record: the stamp an engine compares
   against its published snapshot. *)
let set_control t c = t.ctx.Domain_ctx.control <- c

let gate_enabled t g = List.exists (Gate.equal g) (control t).gates

let enable_gates t gs =
  if t.mode = Plugins then set_control t { (control t) with gates = gs }

let fault_policy t = (control t).policy
let set_fault_policy t policy = set_control t { (control t) with policy }
let cycle_budget t = (control t).budget
let set_cycle_budget t budget = set_control t { (control t) with budget }

let add_route t prefix ?next_hop ?(metric = 0) ~iface () =
  if iface < 0 || iface >= Array.length t.ifaces then
    invalid_arg (Printf.sprintf "Router.add_route: no interface %d" iface);
  Route_table.add t.routes { Route_table.prefix; next_hop; iface; metric }

let local_addrs t = (control t).locals
(* A plain walk: [List.exists (Ipaddr.equal a)] would build a closure
   for every packet the data path checks. *)
let rec mem_addr a = function
  | [] -> false
  | l :: rest -> Ipaddr.equal a l || mem_addr a rest

let is_local t a = mem_addr a (local_addrs t)

let add_local_addr t a =
  if not (is_local t a) then
    set_control t { (control t) with locals = a :: local_addrs t }

let local_addr_for t a =
  List.find_opt (fun l -> Ipaddr.width l = Ipaddr.width a) (local_addrs t)

let note_punt_protos t =
  set_control t
    { (control t) with punts = Hashtbl.fold (fun proto _ acc -> proto :: acc) t.punts [] }

let set_punt t ~proto handler =
  Hashtbl.replace t.punts proto handler;
  note_punt_protos t

let clear_punt t ~proto =
  Hashtbl.remove t.punts proto;
  note_punt_protos t

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
