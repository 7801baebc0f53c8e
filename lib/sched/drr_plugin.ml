open Rp_pkt
open Rp_core
open Rp_classifier

let name = "drr"
let gate = Gate.Scheduling
let description = "weighted Deficit Round Robin fair queueing"

let instances : (int, Drr_core.t) Hashtbl.t = Hashtbl.create 8

(* A flow's queue is the enqueuing qdisc's own.  A binding whose queue
   another qdisc made (a route change moved the flow to another
   interface) gets a new one here; the old one drains on its own
   qdisc's ring and is freed there. *)
let queue_of st binding (m : Mbuf.t) =
  match binding with
  | Some (b : Plugin.t Flow_table.binding) ->
    (match b.Flow_table.soft with
     | Some (Drr_core.Drr_flow fq) when Drr_core.owns st fq -> fq
     | soft ->
       (match soft with
        | Some (Drr_core.Drr_flow fq) -> Drr_core.release fq
        | Some _ | None -> ());
       let fq = Drr_core.bind st m.Mbuf.key in
       b.Flow_table.soft <- Drr_core.soft fq;
       fq)
  | None ->
    (* Monolithic mode: no AIU binding, classify internally by
       hashing the flow key — the ALTQ comparison path of Table 3. *)
    Cost.charge Cost.monolithic_classifier;
    Drr_core.find st m.Mbuf.key

let enqueue st ~now:_ m binding =
  if Drr_core.push st (queue_of st binding m) m then begin
    Cost.charge Cost.drr_enqueue;
    Plugin.Enqueued
  end
  else Plugin.Rejected "per-flow queue full"

let dequeue st =
  let m = Drr_core.pop st in
  if m != Mbuf.dummy then Cost.charge Cost.drr_dequeue;
  m

(* Queued packets of an evicted flow are lost, and counted so by the
   queue's owner, which frees the queue once it is off its ring. *)
let on_flow_evict (b : Plugin.t Flow_table.binding) =
  match b.Flow_table.soft with
  | Some (Drr_core.Drr_flow fq) ->
    b.Flow_table.soft <- None;
    Drr_core.evict fq
  | Some _ | None -> ()

let ( let* ) = Result.bind

let create_instance ~instance_id ~code ~config =
  let* quantum = Plugin.positive_int config "quantum" ~default:512 in
  let* limit = Plugin.positive_int config "flow-limit" ~default:128 in
  let st = Drr_core.create ~quantum ~limit in
  Hashtbl.replace instances instance_id st;
  let scheduler =
    {
      Plugin.enqueue = (fun ~now m binding -> enqueue st ~now m binding);
      dequeue = (fun ~now:_ -> dequeue st);
      backlog = (fun () -> Drr_core.backlog st);
      sched_stats =
        (fun () ->
          [
            ("backlog", string_of_int (Drr_core.backlog st));
            ("dropped", string_of_int (Drr_core.dropped st));
            ("flows", string_of_int (Drr_core.held st));
            ("quantum", string_of_int (Drr_core.quantum st));
          ]);
    }
  in
  let base =
    Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
      ~describe:(fun () ->
        Printf.sprintf "drr: quantum=%d flows=%d backlog=%d"
          (Drr_core.quantum st) (Drr_core.held st) (Drr_core.backlog st))
      (fun _ _ -> Plugin.Continue)
  in
  Ok
    {
      base with
      Plugin.scheduler = Some scheduler;
      on_flow_evict = Some on_flow_evict;
    }

let state_of instance_id =
  match Hashtbl.find_opt instances instance_id with
  | Some st -> Ok st
  | None -> Error (Printf.sprintf "drr: no instance %d" instance_id)

let reserve ~instance_id ~key ~rate_bps =
  if rate_bps <= 0 then Error "drr: reservation rate must be positive"
  else
    Result.map
      (fun st -> Drr_core.reserve st key rate_bps)
      (state_of instance_id)

let unreserve ~instance_id ~key =
  Result.map (fun st -> Drr_core.unreserve st key) (state_of instance_id)

let weight_of ~instance_id ~key =
  Result.to_option
    (Result.map (fun st -> Drr_core.weight_for st key) (state_of instance_id))

let queue_state (b : Plugin.t Flow_table.binding) =
  match b.Flow_table.soft with
  | Some (Drr_core.Drr_flow fq) -> Some (Drr_core.state fq)
  | Some _ | None -> None

let count f ~instance_id =
  match state_of instance_id with Ok st -> f st | Error _ -> 0

let drop_count = count Drr_core.dropped
let flow_count = count Drr_core.held
let backlog = count Drr_core.backlog

let message key payload =
  match key with
  | "plugin-info" -> Ok description
  | "stats" ->
    (match int_of_string_opt payload with
     | None -> Error "stats expects an instance id"
     | Some id ->
       Result.map
         (fun st ->
           Printf.sprintf "flows=%d backlog=%d dropped=%d"
             (Drr_core.held st) (Drr_core.backlog st)
             (Drr_core.dropped st))
         (state_of id))
  | _ -> Error (Printf.sprintf "drr: unknown message %s" key)
