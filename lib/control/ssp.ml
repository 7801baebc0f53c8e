open Rp_pkt
open Rp_core
open Rp_classifier

type msg =
  | Setup of {
      flow : Flow_key.t;
      rate_bps : int;
    }
  | Teardown of { flow : Flow_key.t }

(* Encoding: tag(1) family(1) src dst proto(1) sport(2) dport(2)
   rate(8).  Addresses are 4 or 16 bytes by family. *)

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

let u16 buf off =
  Char.code (Bytes.get buf off) * 256 + Char.code (Bytes.get buf (off + 1))

let encode m =
  let tag, flow, rate =
    match m with
    | Setup { flow; rate_bps } -> (1, flow, rate_bps)
    | Teardown { flow } -> (2, flow, 0)
  in
  let alen = Ipaddr.width flow.Flow_key.src / 8 in
  let buf = Bytes.create (2 + (2 * alen) + 5 + 8) in
  Bytes.set buf 0 (Char.chr tag);
  Bytes.set buf 1 (Char.chr (if alen = 4 then 4 else 6));
  Ipaddr.write flow.Flow_key.src buf 2;
  Ipaddr.write flow.Flow_key.dst buf (2 + alen);
  let off = 2 + (2 * alen) in
  Bytes.set buf off (Char.chr (flow.Flow_key.proto land 0xFF));
  set_u16 buf (off + 1) flow.Flow_key.sport;
  set_u16 buf (off + 3) flow.Flow_key.dport;
  Bytes.set_int64_be buf (off + 5) (Int64.of_int rate);
  buf

let decode buf =
  if Bytes.length buf < 2 then Error "ssp: truncated message"
  else
    let tag = Char.code (Bytes.get buf 0) in
    let family = Char.code (Bytes.get buf 1) in
    let alen = match family with 4 -> Some 4 | 6 -> Some 16 | _ -> None in
    match alen with
    | None -> Error "ssp: bad address family"
    | Some alen ->
      let need = 2 + (2 * alen) + 5 + 8 in
      if Bytes.length buf < need then Error "ssp: truncated message"
      else begin
        let read = if alen = 4 then Ipaddr.read_v4 else Ipaddr.read_v6 in
        let src = read buf 2 and dst = read buf (2 + alen) in
        let off = 2 + (2 * alen) in
        let flow =
          Flow_key.make ~src ~dst
            ~proto:(Char.code (Bytes.get buf off))
            ~sport:(u16 buf (off + 1))
            ~dport:(u16 buf (off + 3))
            ~iface:0
        in
        let rate = Int64.to_int (Bytes.get_int64_be buf (off + 5)) in
        match tag with
        | 1 -> Ok (Setup { flow; rate_bps = rate })
        | 2 -> Ok (Teardown { flow })
        | _ -> Error "ssp: unknown message type"
      end

module FK = Flow_key.Table

type t = {
  rtr : Router.t;
  installed : (int * int) FK.t;  (** flow -> (rate, instance id) *)
  mutable failed : int;
}

(* An exact filter for the flow, with the incoming interface
   wildcarded (the reservation applies wherever the flow enters). *)
let filter_of_flow (flow : Flow_key.t) =
  let family = if Ipaddr.is_v4 flow.Flow_key.src then `V4 else `V6 in
  let mk = match family with `V4 -> Filter.v4 | `V6 -> Filter.v6 in
  mk
    ~src:(Prefix.host flow.Flow_key.src)
    ~dst:(Prefix.host flow.Flow_key.dst)
    ~proto:flow.Flow_key.proto
    ~sport:(Filter.Port flow.Flow_key.sport)
    ~dport:(Filter.Port flow.Flow_key.dport)
    ()

(* The DRR instance scheduling the flow's output interface, if any. *)
let drr_on_route t flow =
  match Route_table.lookup t.rtr.Router.routes flow.Flow_key.dst with
  | None -> None
  | Some r ->
    (match (Router.iface t.rtr r.Route_table.iface).Iface.qdisc with
     | Some inst when inst.Plugin.plugin_name = "drr" -> Some inst
     | Some _ | None -> None)

let normalize (flow : Flow_key.t) = { flow with Flow_key.iface = 0 }

let handle_setup t flow rate_bps =
  let flow = normalize flow in
  match drr_on_route t flow with
  | None -> t.failed <- t.failed + 1
  | Some inst ->
    let id = inst.Plugin.instance_id in
    (match Rp_sched.Drr_plugin.reserve ~instance_id:id ~key:flow ~rate_bps with
     | Error _ -> t.failed <- t.failed + 1
     | Ok () ->
       (match
          Pcu.register_instance t.rtr.Router.pcu ~instance:id (filter_of_flow flow)
        with
        | Ok () -> FK.replace t.installed flow (rate_bps, id)
        | Error _ -> t.failed <- t.failed + 1))

let handle_teardown t flow =
  let flow = normalize flow in
  match FK.find_opt t.installed flow with
  | None -> ()
  | Some (_, id) ->
    ignore (Rp_sched.Drr_plugin.unreserve ~instance_id:id ~key:flow);
    ignore
      (Pcu.deregister_instance t.rtr.Router.pcu ~instance:id (filter_of_flow flow));
    FK.remove t.installed flow

let attach rtr =
  let t = { rtr; installed = FK.create 16; failed = 0 } in
  Router.set_punt rtr ~proto:Proto.ssp (fun ~now:_ (m : Mbuf.t) ->
      (match Mbuf.l4_message m with
       | None -> t.failed <- t.failed + 1
       | Some msg ->
         (match decode msg with
          | Ok (Setup { flow; rate_bps }) -> handle_setup t flow rate_bps
          | Ok (Teardown { flow }) -> handle_teardown t flow
          | Error _ -> t.failed <- t.failed + 1));
      (* Setup state travels hop by hop to the receiver. *)
      Router.Punt_forward);
  t

let reservations t =
  FK.fold (fun flow (rate, id) acc -> (flow, rate, id) :: acc) t.installed []

let failures t = t.failed

let control_packet ~src ~(flow : Flow_key.t) msg =
  Mbuf.datagram ~src ~dst:flow.Flow_key.dst ~proto:Proto.ssp
    ~iface:flow.Flow_key.iface (encode msg)

let setup_packet ~src ~flow ~rate_bps =
  control_packet ~src ~flow (Setup { flow; rate_bps })

let teardown_packet ~src ~flow = control_packet ~src ~flow (Teardown { flow })
