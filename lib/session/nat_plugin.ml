(* The NAT plugin pair.

   [In] sits at Security_in — before routing, like a NetBSD pfil hook
   on the inbound path — and does the session subsystem's single
   steady-state table hit: resolve (or create) the session, apply the
   SNAT/DNAT rewrite in place (parsed key + wire bytes with RFC 1624
   checksum fixup), stamp the session's QoS class into the TOS byte,
   and install the cached next-hop so the Routing gate skips the LPM
   lookup.  Flow bindings resolve at ingress against the pre-rewrite
   tuple (the AIU classifies all gates at miss time), so rewriting the
   key here does not disturb the packet's FIX record.

   [Out] sits at Security_out — after routing — and only learns: the
   first routed packet of each direction writes its routing decision
   (out_iface, next_hop) into the session, set-once, so every later
   packet of that direction gets it for free at [In]. *)

open Rp_pkt
open Rp_core

let table_of config =
  Session.Table.get
    (Option.value (List.assoc_opt "table" config) ~default:"default")

let cache_of config = List.assoc_opt "cache" config <> Some "off"

module In = struct
  let name = "nat"
  let gate = Gate.Security_in

  let description =
    "session NAT: rewrite + QoS class + cached next-hop, one session hit"

  (* A packet refused a session is dropped rather than passed
     untranslated. *)
  let handle table ~cache ctx m =
    let hit = Session.cached_resolve table ~cache ~charge:true ctx m in
    if hit == Session.Hit.none then Plugin.Continue
    else if hit == Session.Hit.full then Plugin.Drop Session.full_why
    else begin
      if Session.Hit.rewrite hit m then begin
        Session.Table.note_rewrite table;
        if Rp_obs.Telemetry.on () && m.Mbuf.tseq <> 0 then
          Rp_obs.Telemetry.record ~ts:(Cost.get ())
            ~kind:Rp_obs.Telemetry.Rewrite ~gate:(Gate.to_int gate)
            ~pkt:m.Mbuf.tseq ~arg:(Session.Hit.id hit)
      end;
      Session.Hit.stamp hit m;
      Plugin.Continue
    end

  let create_instance ~instance_id ~code ~config =
    let table = table_of config in
    let cache = cache_of config in
    Ok
      (Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
         ~describe:(fun () ->
           Printf.sprintf "nat table=%s cache=%s rules=%d"
             (Session.Table.name table)
             (if cache then "on" else "off")
             (List.length (Session.Table.rules table)))
         (handle table ~cache))

  let message key _ =
    match key with
    | "plugin-info" -> Ok description
    | _ -> Error (Printf.sprintf "nat: unknown message %s" key)
end

module Out = struct
  let name = "nat-out"
  let gate = Gate.Security_out
  let description = "session route learning: cache the routing decision"

  let handle table ~cache ctx m =
    (if cache then
       let hit =
         Session.cached_resolve table ~create:false ~cache ~charge:false ctx m
       in
       if not (Session.Hit.route_known hit) then
         match m.Mbuf.out_iface with
         | Some ifc when Session.Hit.route_learnable hit m.Mbuf.key ->
           Session.Hit.learn hit ifc m.Mbuf.next_hop
         | Some _ | None -> ());
    Plugin.Continue

  let create_instance ~instance_id ~code ~config =
    let table = table_of config in
    let cache = cache_of config in
    Ok
      (Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
         ~describe:(fun () ->
           Printf.sprintf "nat-out table=%s" (Session.Table.name table))
         (handle table ~cache))

  let message key _ =
    match key with
    | "plugin-info" -> Ok description
    | _ -> Error (Printf.sprintf "nat-out: unknown message %s" key)
end
