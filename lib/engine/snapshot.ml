open Rp_core

type delta =
  | Bind of int * Rp_classifier.Filter.t * Plugin.t
  | Unbind of int * Rp_classifier.Filter.t
  | Flush
  | Refresh

type t = {
  gen : int;
  gates : Gate.t list;
  bindings : (int * Rp_classifier.Filter.t * Plugin.t) list;
  routes : Route_table.route list;
  policy : Fault.policy;
  budget : int option;
  punts : int list;
  locals : Rp_pkt.Ipaddr.t list;
  mtus : int array;
  classifier : Rp_classifier.Aiu.mode;
  deltas : (int * delta) list;
}

let capture ~gen ?(deltas = []) router =
  let aiu = Router.aiu router in
  let bindings = ref [] in
  for gate = 0 to Gate.count - 1 do
    Rp_classifier.Dag.iter
      (fun filter inst -> bindings := (gate, filter, inst) :: !bindings)
      (Rp_classifier.Aiu.filter_table aiu ~gate)
  done;
  let routes = ref [] in
  Route_table.iter (fun r -> routes := r :: !routes) router.Router.routes;
  {
    gen;
    (* via [gate_enabled] so Best_effort mode snapshots no gates *)
    gates = List.filter (Router.gate_enabled router) Gate.all;
    bindings = !bindings;
    routes = !routes;
    policy = router.Router.fault_policy;
    budget = router.Router.cycle_budget;
    punts = Hashtbl.fold (fun proto _ acc -> proto :: acc) router.Router.punts [];
    locals = router.Router.local_addrs;
    mtus = router.Router.ctx.Domain_ctx.mtus;
    classifier = Rp_classifier.Aiu.mode aiu;
    deltas;
  }

let pp ppf t =
  Format.fprintf ppf "snapshot gen=%d gates=%d bindings=%d routes=%d deltas=%d"
    t.gen
    (List.length t.gates)
    (List.length t.bindings)
    (List.length t.routes)
    (List.length t.deltas)
