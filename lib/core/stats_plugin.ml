(** Statistics-gathering plugin — one of the plugin types the paper
    motivates for network management ("to monitor transit traffic at
    routers ... and to gather and report various statistics thereof",
    section 2).

    Aggregate counters live in the instance; per-flow counters live in
    flow-record soft state, so changing what is collected (or
    removing collection entirely) never touches the forwarding code. *)

open Rp_pkt
open Rp_classifier

type flow_stat = {
  key : Flow_key.t;
  mutable f_packets : int;
  mutable f_bytes : int;
  mutable first_ns : int64;
  mutable last_ns : int64;
}

type Flow_table.soft += Stat of flow_stat

type totals = {
  mutable packets : int;
  mutable bytes : int;
  mutable flows_seen : int;
  mutable flows_closed : int;
  (* Completed flows' stats, most recent first, bounded. *)
  mutable history : flow_stat list;
  history_limit : int;
}

let instance_totals : (int, totals) Hashtbl.t = Hashtbl.create 8

let totals_of ~instance_id = Hashtbl.find_opt instance_totals instance_id

let name = "stats"
let gate = Gate.Stats
let description = "per-flow and aggregate traffic statistics"

let record t (ctx : Plugin.ctx) m =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + m.Mbuf.len;
  (match ctx.Plugin.binding with
   | None -> ()
   | Some b ->
     let fs =
       match b.Flow_table.soft with
       | Some (Stat fs) -> fs
       | Some _ | None ->
         let fs =
           {
             key = m.Mbuf.key;
             f_packets = 0;
             f_bytes = 0;
             first_ns = ctx.Plugin.now_ns;
             last_ns = ctx.Plugin.now_ns;
           }
         in
         b.Flow_table.soft <- Some (Stat fs);
         t.flows_seen <- t.flows_seen + 1;
         fs
     in
     fs.f_packets <- fs.f_packets + 1;
     fs.f_bytes <- fs.f_bytes + m.Mbuf.len;
     fs.last_ns <- ctx.Plugin.now_ns);
  Plugin.Continue

let on_flow_evict t (b : Plugin.t Flow_table.binding) =
  match b.Flow_table.soft with
  | Some (Stat fs) ->
    t.flows_closed <- t.flows_closed + 1;
    let keep = t.history_limit - 1 in
    t.history <-
      fs :: (if List.length t.history > keep
             then List.filteri (fun i _ -> i < keep) t.history
             else t.history);
    b.Flow_table.soft <- None
  | Some _ | None -> ()

let create_instance ~instance_id ~code ~config =
  match Plugin.positive_int config "history" ~default:64 with
  | Error _ as e -> e
  | Ok history_limit ->
    let t =
      {
        packets = 0;
        bytes = 0;
        flows_seen = 0;
        flows_closed = 0;
        history = [];
        history_limit;
      }
    in
    Hashtbl.replace instance_totals instance_id t;
    let base =
      Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
        ~describe:(fun () ->
          Printf.sprintf "stats: %d pkts / %d bytes over %d flows" t.packets
            t.bytes t.flows_seen)
        (fun _ _ -> Plugin.Continue)
    in
    Ok
      {
        base with
        Plugin.handle = (fun ctx m -> record t ctx m);
        on_flow_evict = Some (on_flow_evict t);
      }

let message key payload =
  match key with
  | "plugin-info" -> Ok description
  | "report" ->
    (match int_of_string_opt payload with
     | None -> Error "report expects an instance id"
     | Some id ->
       (match totals_of ~instance_id:id with
        | None -> Error (Printf.sprintf "no stats instance %d" id)
        | Some t ->
          Ok
            (Printf.sprintf "packets=%d bytes=%d flows=%d closed=%d" t.packets
               t.bytes t.flows_seen t.flows_closed)))
  | _ -> Error (Printf.sprintf "stats: unknown message %s" key)
