open Rp_pkt
open Rp_core
open Rp_classifier

type msg =
  | Path of {
      flow : Flow_key.t;
      phop : Ipaddr.t;
    }
  | Resv of {
      flow : Flow_key.t;
      rate_bps : int;
    }

(* Encoding: tag(1) family(1) flow(src dst proto sport dport)
   extra(addr or rate). *)

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

let u16 buf off =
  Char.code (Bytes.get buf off) * 256 + Char.code (Bytes.get buf (off + 1))

let encode m =
  let tag, flow, extra_len =
    match m with
    | Path { flow; phop } -> (3, flow, Ipaddr.width phop / 8)
    | Resv { flow; _ } -> (4, flow, 8)
  in
  let alen = Ipaddr.width flow.Flow_key.src / 8 in
  let buf = Bytes.create (2 + (2 * alen) + 5 + extra_len) in
  Bytes.set buf 0 (Char.chr tag);
  Bytes.set buf 1 (Char.chr (if alen = 4 then 4 else 6));
  Ipaddr.write flow.Flow_key.src buf 2;
  Ipaddr.write flow.Flow_key.dst buf (2 + alen);
  let off = 2 + (2 * alen) in
  Bytes.set buf off (Char.chr (flow.Flow_key.proto land 0xFF));
  set_u16 buf (off + 1) flow.Flow_key.sport;
  set_u16 buf (off + 3) flow.Flow_key.dport;
  (match m with
   | Path { phop; _ } -> Ipaddr.write phop buf (off + 5)
   | Resv { rate_bps; _ } -> Bytes.set_int64_be buf (off + 5) (Int64.of_int rate_bps));
  buf

let decode buf =
  if Bytes.length buf < 2 then Error "rsvp: truncated message"
  else
    let tag = Char.code (Bytes.get buf 0) in
    let family = Char.code (Bytes.get buf 1) in
    match (match family with 4 -> Some 4 | 6 -> Some 16 | _ -> None) with
    | None -> Error "rsvp: bad address family"
    | Some alen ->
      let base = 2 + (2 * alen) + 5 in
      let extra = match tag with 3 -> alen | 4 -> 8 | _ -> 0 in
      if Bytes.length buf < base + extra then Error "rsvp: truncated message"
      else begin
        let read = if alen = 4 then Ipaddr.read_v4 else Ipaddr.read_v6 in
        let off = 2 + (2 * alen) in
        let flow =
          Flow_key.make ~src:(read buf 2) ~dst:(read buf (2 + alen))
            ~proto:(Char.code (Bytes.get buf off))
            ~sport:(u16 buf (off + 1))
            ~dport:(u16 buf (off + 3))
            ~iface:0
        in
        match tag with
        | 3 -> Ok (Path { flow; phop = read buf (off + 5) })
        | 4 ->
          Ok (Resv { flow; rate_bps = Int64.to_int (Bytes.get_int64_be buf (off + 5)) })
        | _ -> Error "rsvp: unknown message type"
      end

module FK = Flow_key.Table

type path_entry = {
  phop : Ipaddr.t;
  out_iface : int;
  mutable path_refreshed_ns : int64;
}

type resv_entry = {
  rate : int;
  instance : int;
  mutable resv_refreshed_ns : int64;
}

type t = {
  rtr : Router.t;
  my_addr : Ipaddr.t;
  paths : path_entry FK.t;
  resvs : resv_entry FK.t;
  mutable failed : int;
}

let normalize (flow : Flow_key.t) = { flow with Flow_key.iface = 0 }

let filter_of_flow (flow : Flow_key.t) =
  let mk = if Ipaddr.is_v4 flow.Flow_key.src then Filter.v4 else Filter.v6 in
  mk
    ~src:(Prefix.host flow.Flow_key.src)
    ~dst:(Prefix.host flow.Flow_key.dst)
    ~proto:flow.Flow_key.proto
    ~sport:(Filter.Port flow.Flow_key.sport)
    ~dport:(Filter.Port flow.Flow_key.dport)
    ()

let drr_on_iface t out_iface =
  match (Router.iface t.rtr out_iface).Iface.qdisc with
  | Some inst when inst.Plugin.plugin_name = "drr" -> Some inst
  | Some _ | None -> None

let handle_path t ~now flow phop (m : Mbuf.t) =
  let flow = normalize flow in
  (* The downstream interface: where the PATH (addressed like the data
     flow) will leave this router. *)
  match Route_table.lookup t.rtr.Router.routes flow.Flow_key.dst with
  | None -> t.failed <- t.failed + 1
  | Some r ->
    (match FK.find_opt t.paths flow with
     | Some entry ->
       entry.path_refreshed_ns <- now
     | None ->
       FK.replace t.paths flow
         { phop; out_iface = r.Route_table.iface; path_refreshed_ns = now });
    (* Rewrite the previous hop to this router before forwarding. *)
    let k = m.Mbuf.key in
    let fwd =
      Mbuf.datagram ~ttl:m.Mbuf.ttl ~tos:m.Mbuf.tos ~flow_label:m.Mbuf.flow_label
        ~options:m.Mbuf.options ~src:k.Flow_key.src ~dst:k.Flow_key.dst
        ~proto:Proto.rsvp ~iface:k.Flow_key.iface
        (encode (Path { flow; phop = t.my_addr }))
    in
    m.Mbuf.raw <- fwd.Mbuf.raw;
    m.Mbuf.len <- fwd.Mbuf.len

let install_resv t ~now flow rate =
  match FK.find_opt t.paths flow with
  | None ->
    t.failed <- t.failed + 1;
    None
  | Some path ->
    (match FK.find_opt t.resvs flow with
     | Some r ->
       r.resv_refreshed_ns <- now;
       Some path.phop
     | None ->
       (match drr_on_iface t path.out_iface with
        | None ->
          t.failed <- t.failed + 1;
          None
        | Some inst ->
          let id = inst.Plugin.instance_id in
          (match Rp_sched.Drr_plugin.reserve ~instance_id:id ~key:flow ~rate_bps:rate with
           | Error _ ->
             t.failed <- t.failed + 1;
             None
           | Ok () ->
             (match
                Pcu.register_instance t.rtr.Router.pcu ~instance:id
                  (filter_of_flow flow)
              with
              | Error _ ->
                t.failed <- t.failed + 1;
                None
              | Ok () ->
                FK.replace t.resvs flow
                  { rate; instance = id; resv_refreshed_ns = now };
                Some path.phop))))

let remove_resv t flow (entry : resv_entry) =
  ignore (Rp_sched.Drr_plugin.unreserve ~instance_id:entry.instance ~key:flow);
  ignore
    (Pcu.deregister_instance t.rtr.Router.pcu ~instance:entry.instance
       (filter_of_flow flow));
  FK.remove t.resvs flow

let path_packet ~sender ~flow =
  let flow = normalize flow in
  Mbuf.datagram ~src:sender ~dst:flow.Flow_key.dst ~proto:Proto.rsvp
    ~iface:flow.Flow_key.iface
    (encode (Path { flow; phop = sender }))

let resv_packet ~receiver ~to_hop ~flow ~rate_bps =
  let flow = normalize flow in
  Mbuf.datagram ~src:receiver ~dst:to_hop ~proto:Proto.rsvp ~iface:0
    (encode (Resv { flow; rate_bps }))

(* Relay the RESV toward our previous hop by re-injecting an upstream
   copy into our own data path (from our address, so only to a hop of
   its family). *)
let relay_resv t ~now flow rate phop =
  if
    (not (Ipaddr.equal phop flow.Flow_key.src))
    && (not (Router.is_local t.rtr phop))
    && Ipaddr.is_v4 phop = Ipaddr.is_v4 t.my_addr
  then
    ignore
      (Ip_core.process t.rtr ~now
         (resv_packet ~receiver:t.my_addr ~to_hop:phop ~flow ~rate_bps:rate))

let attach rtr =
  let my_addr =
    match Router.local_addrs rtr with
    | a :: _ -> a
    | [] -> invalid_arg "Rsvp.attach: router needs a local address"
  in
  let t = { rtr; my_addr; paths = FK.create 16; resvs = FK.create 16; failed = 0 } in
  Router.set_punt rtr ~proto:Proto.rsvp (fun ~now (m : Mbuf.t) ->
      match Mbuf.l4_message m with
      | None ->
        t.failed <- t.failed + 1;
        Router.Punt_consume
      | Some msg ->
        (match decode msg with
         | Ok (Path { flow; phop }) ->
           (* PATH follows the data path downstream. *)
           handle_path t ~now flow phop m;
           Router.Punt_forward
         | Ok (Resv { flow; rate_bps }) ->
           if not (Router.is_local t.rtr m.Mbuf.key.Flow_key.dst) then
             (* Hop-by-hop addressed to another router: pass through. *)
             Router.Punt_forward
           else begin
             let flow = normalize flow in
             (match install_resv t ~now flow rate_bps with
              | Some phop -> relay_resv t ~now flow rate_bps phop
              | None -> ());
             (* RESV terminates here; the relay above continues it. *)
             Router.Punt_consume
           end
         | Error _ ->
           t.failed <- t.failed + 1;
           Router.Punt_consume));
  t

let path_state t =
  FK.fold (fun flow e acc -> (flow, e.phop, e.out_iface) :: acc) t.paths []

let reservations t =
  FK.fold (fun flow e acc -> (flow, e.rate, e.instance) :: acc) t.resvs []

let failures t = t.failed

let tick t ~now ~lifetime_ns =
  let stale_paths = ref [] and stale_resvs = ref [] in
  FK.iter
    (fun flow e ->
      if Int64.sub now e.path_refreshed_ns > lifetime_ns then
        stale_paths := flow :: !stale_paths)
    t.paths;
  FK.iter
    (fun flow e ->
      if Int64.sub now e.resv_refreshed_ns > lifetime_ns then
        stale_resvs := (flow, e) :: !stale_resvs)
    t.resvs;
  List.iter (fun (flow, e) -> remove_resv t flow e) !stale_resvs;
  List.iter (FK.remove t.paths) !stale_paths;
  (List.length !stale_paths, List.length !stale_resvs)
