(* The NAT plugin, at Security_in — before routing, like a NetBSD pfil
   hook on the inbound path.  It does the session subsystem's single
   steady-state table hit: resolve (or create) the session, apply the
   SNAT/DNAT rewrite in place (parsed key + wire bytes with RFC 1624
   checksum fixup) and stamp the session's QoS class into the TOS
   byte.  Flow bindings resolve at ingress against the pre-rewrite
   tuple (the AIU classifies all gates at miss time), so rewriting the
   key here does not disturb the packet's FIX record, whose route
   cache then serves the rewritten destination. *)

open Rp_pkt
open Rp_core

let table_of config =
  Session.Table.get
    (Option.value (List.assoc_opt "table" config) ~default:"default")

let cache_of config = List.assoc_opt "cache" config <> Some "off"

module In = struct
  let name = "nat"
  let gate = Gate.Security_in

  let description = "session NAT: rewrite + QoS class, one session hit"

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
