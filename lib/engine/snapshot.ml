open Rp_core

type delta =
  | Bind of int * Rp_classifier.Filter.t * Plugin.t
  | Unbind of int * Rp_classifier.Filter.t
  | Flush
  | Refresh

type t = {
  gen : int;
  bindings : (int * Rp_classifier.Filter.t * Plugin.t) list;
  routes : Route_table.route list;
  route_stamp : int;
  control : Domain_ctx.control;
  classifier : Rp_classifier.Aiu.mode;
  flow_max : int;
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
    bindings = !bindings;
    routes = !routes;
    route_stamp = Route_table.stamp router.Router.routes;
    control = router.Router.ctx.Domain_ctx.control;
    classifier = Rp_classifier.Aiu.mode aiu;
    flow_max = Rp_classifier.(Flow_table.max_records (Aiu.flow_table aiu));
    deltas;
  }

let current t router =
  t.control == router.Router.ctx.Domain_ctx.control
  && t.route_stamp = Route_table.stamp router.Router.routes
  && t.classifier = Rp_classifier.Aiu.mode (Router.aiu router)

let pp ppf t =
  Format.fprintf ppf "snapshot gen=%d gates=%d bindings=%d routes=%d deltas=%d"
    t.gen
    (List.length t.control.Domain_ctx.gates)
    (List.length t.bindings)
    (List.length t.routes)
    (List.length t.deltas)
