(** Routing plugin — the paper's L4 switching / QoS-based routing
    (sections 4 and 8: "we plan to also add support for a Routing
    plugin, which would allow routing table lookups to be based on the
    flow classification that is performed by the AIU ... By unifying
    routing and packet classification, we get QoS-based routing/Level 4
    switching for free").

    An instance is a forwarding decision: an output interface and an
    optional next hop.  Binding instances to six-tuple filters routes
    by {e flow class} rather than destination alone — policy routing,
    per-application paths, QoS routing.  Because decisions ride the
    flow cache like any other gate binding, a cached packet's route
    costs one indirect call; the per-destination LPM in the core is
    only the fallback for unbound flows.

    Config: [iface=<n>] (required), [nexthop=<addr>], or
    [action=blackhole] to discard matching flows (null routing). *)

open Rp_pkt

type decision =
  | Forward of {
      out_iface : int;
      next_hop : Ipaddr.t option;
    }
  | Blackhole

type totals = {
  mutable routed : int;
  mutable blackholed : int;
}

let instance_totals : (int, totals) Hashtbl.t = Hashtbl.create 8

let totals_of ~instance_id = Hashtbl.find_opt instance_totals instance_id

let name = "l4-route"
let gate = Gate.Routing
let description = "per-flow forwarding decisions (L4 switching)"

let apply t decision (m : Mbuf.t) =
  match decision with
  | Blackhole ->
    t.blackholed <- t.blackholed + 1;
    Plugin.Drop "null route"
  | Forward { out_iface; next_hop } ->
    t.routed <- t.routed + 1;
    m.Mbuf.out_iface <- Some out_iface;
    m.Mbuf.next_hop <-
      (match next_hop with Some nh -> nh | None -> m.Mbuf.key.Flow_key.dst);
    Plugin.Continue

let create_instance ~instance_id ~code ~config =
  let decision =
    match List.assoc_opt "action" config with
    | Some "blackhole" -> Ok Blackhole
    | Some other -> Error (Printf.sprintf "l4-route: unknown action %S" other)
    | None ->
      (match List.assoc_opt "iface" config with
       | None -> Error "l4-route: config must set iface=<n> or action=blackhole"
       | Some s ->
         (match int_of_string_opt s with
          | None -> Error (Printf.sprintf "l4-route: bad iface %S" s)
          | Some out_iface ->
            let next_hop =
              Option.bind (List.assoc_opt "nexthop" config) Ipaddr.of_string_opt
            in
            Ok (Forward { out_iface; next_hop })))
  in
  Result.map
    (fun decision ->
      let t = { routed = 0; blackholed = 0 } in
      Hashtbl.replace instance_totals instance_id t;
      Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
        ~describe:(fun () ->
          match decision with
          | Blackhole -> Printf.sprintf "l4-route: blackhole (%d dropped)" t.blackholed
          | Forward { out_iface; next_hop } ->
            Printf.sprintf "l4-route: -> if%d%s (%d routed)" out_iface
              (match next_hop with
               | Some a -> " via " ^ Ipaddr.to_string a
               | None -> "")
              t.routed)
        (fun _ctx m -> apply t decision m))
    decision

let message key _ =
  match key with
  | "plugin-info" -> Ok description
  | _ -> Error (Printf.sprintf "l4-route: unknown message %s" key)
