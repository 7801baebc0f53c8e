open Rp_pkt
open Rp_core
open Rp_classifier

let name = "drr"
let gate = Gate.Scheduling
let description = "weighted Deficit Round Robin fair queueing"

module FK = Hashtbl.Make (struct
  type t = Flow_key.t

  let equal = Flow_key.equal
  let hash = Flow_key.hash
end)

(* A flow's queue.  The record outlives its flow: a released record
   goes on its owner's free list once it is off the active ring, and
   the owner's next new flow takes it, with its ring at the size it
   grew to and its soft-slot option, built once with the record. *)
type flow_q = {
  mutable fkey : Flow_key.t;
  q : Mbuf.t Ring.t;  (* bounded by [flow_limit] *)
  mutable deficit : int;
  mutable weight : int;
  mutable on_ring : bool;
  mutable released : bool;
      (* no flow refers to it: its queued packets still drain, and it
         is free once off the active ring *)
  owner : owner;
  soft : Flow_table.soft option;  (* [Some (Drr_flow self)] *)
}

(* The instance that made a queue.  A flow's binding may name another
   instance than the qdisc its packets reach (one binding, several
   interfaces), so eviction goes by the queue's owner. *)
and owner = Unowned | Owned of state

and state = {
  instance_id : int;
  quantum : int;
  flow_limit : int;
  ring : flow_q Ring.t;  (* the backlogged flows, each once *)
  free : flow_q Ring.t;  (* released records off every ring, for reuse *)
  flows : flow_q FK.t;
  reservations : int FK.t;  (** flow key -> reserved rate (bps) *)
  mutable backlog : int;
  mutable dropped : int;
  mutable self : owner;  (* [Owned] of this state *)
}

type Flow_table.soft += Drr_flow of flow_q

let instances : (int, state) Hashtbl.t = Hashtbl.create 8

(* Reserved weights are recalculated relative to the smallest live
   reservation whenever the reservation set changes (paper: weights
   are "dynamically recalculated for reserved flows if a new reserved
   flow is added"). *)
let recompute_weights st =
  let min_rate = FK.fold (fun _ r acc -> min r acc) st.reservations max_int in
  let weight_of_key k =
    match FK.find_opt st.reservations k with
    | Some rate -> max 1 (rate / max 1 min_rate)
    | None -> 1
  in
  FK.iter (fun k fq -> fq.weight <- weight_of_key k) st.flows

let weight_for st k =
  let min_rate = FK.fold (fun _ r acc -> min r acc) st.reservations max_int in
  match FK.find_opt st.reservations k with
  | Some rate -> max 1 (rate / max 1 min_rate)
  | None -> 1

(* A queue for the new flow [k]: a recycled record when one is free,
   reset to an empty queue, no deficit and [k]'s weight. *)
let new_flow st k =
  let fq =
    if Ring.is_empty st.free then
      let rec fq =
        {
          fkey = k;
          q = Ring.create ~limit:st.flow_limit ~dummy:Mbuf.dummy ();
          deficit = 0;
          weight = weight_for st k;
          on_ring = false;
          released = false;
          owner = st.self;
          soft = Some (Drr_flow fq);
        }
      in
      fq
    else begin
      let fq = Ring.pop st.free in
      fq.fkey <- k;
      fq.deficit <- 0;
      fq.weight <- weight_for st k;
      fq.released <- false;
      fq
    end
  in
  FK.replace st.flows k fq;
  fq

let free fq =
  match fq.owner with Owned st -> ignore (Ring.push st.free fq) | Unowned -> ()

(* No flow refers to [fq] from now on. *)
let release fq =
  (match fq.owner with Owned st -> FK.remove st.flows fq.fkey | Unowned -> ());
  fq.released <- true;
  if not fq.on_ring then free fq

(* A flow's queue is the enqueuing qdisc's own.  A binding whose queue
   another qdisc made (a route change moved the flow to another
   interface) gets a new one here; the old one drains on its own
   qdisc's ring and is freed there. *)
let flow_of st binding (m : Mbuf.t) =
  match binding with
  | Some (b : Plugin.t Flow_table.binding) ->
    (match b.Flow_table.soft with
     | Some (Drr_flow fq) when fq.owner == st.self -> fq
     | soft ->
       (match soft with Some (Drr_flow fq) -> release fq | Some _ | None -> ());
       let fq = new_flow st m.Mbuf.key in
       b.Flow_table.soft <- fq.soft;
       fq)
  | None ->
    (* Monolithic mode: no AIU binding, classify internally by
       hashing the flow key — the ALTQ comparison path of Table 3. *)
    Cost.charge Cost.monolithic_classifier;
    (match FK.find st.flows m.Mbuf.key with
     | fq -> fq
     | exception Not_found -> new_flow st m.Mbuf.key)

let enqueue st ~now:_ m binding =
  let fq = flow_of st binding m in
  if not (Ring.push fq.q m) then begin
    st.dropped <- st.dropped + 1;
    Plugin.Rejected "per-flow queue full"
  end
  else begin
    st.backlog <- st.backlog + 1;
    if not fq.on_ring then begin
      fq.deficit <- 0;
      fq.on_ring <- true;
      ignore (Ring.push st.ring fq)
    end;
    Cost.charge Cost.drr_enqueue;
    Plugin.Enqueued
  end

(* Take [fq] off the head of the active ring; a released record is
   free from then on. *)
let retire st fq =
  ignore (Ring.pop st.ring);
  fq.on_ring <- false;
  fq.deficit <- 0;
  if fq.released then free fq

let rec dequeue st =
  if Ring.is_empty st.ring then Mbuf.dummy
  else begin
    let fq = Ring.peek st.ring in
    if Ring.is_empty fq.q then begin
      retire st fq;
      dequeue st
    end
    else begin
      let head_len = (Ring.peek fq.q).Mbuf.len in
      if fq.deficit >= head_len then begin
        let m = Ring.pop fq.q in
        fq.deficit <- fq.deficit - head_len;
        st.backlog <- st.backlog - 1;
        if Ring.is_empty fq.q then retire st fq;
        Cost.charge Cost.drr_dequeue;
        m
      end
      else begin
        (* The round-robin pointer visits this flow: top up its
           deficit by one (weighted) quantum and move on. *)
        fq.deficit <- fq.deficit + (st.quantum * fq.weight);
        ignore (Ring.push st.ring (Ring.pop st.ring));
        dequeue st
      end
    end
  end

(* Queued packets of an evicted flow are lost, and counted so by the
   queue's owner.  The record is free once it is off the active ring:
   at once, or when the dequeue loop next reaches it there. *)
let on_flow_evict (b : Plugin.t Flow_table.binding) =
  match b.Flow_table.soft with
  | Some (Drr_flow ({ owner = Owned st; _ } as fq)) ->
    st.dropped <- st.dropped + Ring.length fq.q;
    st.backlog <- st.backlog - Ring.length fq.q;
    Ring.clear fq.q;
    b.Flow_table.soft <- None;
    release fq
  | Some _ | None -> ()

(* Stands in a free slot of the active ring and the free list. *)
let no_flow =
  {
    fkey = Mbuf.dummy.Mbuf.key;
    q = Ring.create ~limit:1 ~dummy:Mbuf.dummy ();
    deficit = 0;
    weight = 1;
    on_ring = false;
    released = true;
    owner = Unowned;
    soft = None;
  }

let ( let* ) = Result.bind

let create_instance ~instance_id ~code ~config =
  let* quantum = Plugin.positive_int config "quantum" ~default:512 in
  let* flow_limit = Plugin.positive_int config "flow-limit" ~default:128 in
  let st =
    {
      instance_id;
      quantum;
      flow_limit;
      ring = Ring.create ~limit:max_int ~dummy:no_flow ();
      free = Ring.create ~limit:max_int ~dummy:no_flow ();
      flows = FK.create 64;
      reservations = FK.create 16;
      backlog = 0;
      dropped = 0;
      self = Unowned;
    }
  in
  st.self <- Owned st;
  Hashtbl.replace instances instance_id st;
  let scheduler =
    {
      Plugin.enqueue = (fun ~now m binding -> enqueue st ~now m binding);
      dequeue = (fun ~now:_ -> dequeue st);
      backlog = (fun () -> st.backlog);
      sched_stats =
        (fun () ->
          [
            ("backlog", string_of_int st.backlog);
            ("dropped", string_of_int st.dropped);
            ("flows", string_of_int (FK.length st.flows));
            ("quantum", string_of_int st.quantum);
          ]);
    }
  in
  let base =
    Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
      ~describe:(fun () ->
        Printf.sprintf "drr: quantum=%d flows=%d backlog=%d" st.quantum
          (FK.length st.flows) st.backlog)
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
      (fun st ->
        FK.replace st.reservations key rate_bps;
        recompute_weights st)
      (state_of instance_id)

let unreserve ~instance_id ~key =
  Result.map
    (fun st ->
      FK.remove st.reservations key;
      recompute_weights st)
    (state_of instance_id)

let weight_of ~instance_id ~key =
  match state_of instance_id with
  | Error _ -> None
  | Ok st ->
    (match FK.find_opt st.flows key with
     | Some fq -> Some fq.weight
     | None -> Some (weight_for st key))

let queue_state (b : Plugin.t Flow_table.binding) =
  match b.Flow_table.soft with
  | Some (Drr_flow fq) -> Some (Ring.length fq.q, fq.deficit, fq.weight)
  | Some _ | None -> None

let drop_count ~instance_id =
  match state_of instance_id with Ok st -> st.dropped | Error _ -> 0

let message key payload =
  match key with
  | "plugin-info" -> Ok description
  | "stats" ->
    (match int_of_string_opt payload with
     | None -> Error "stats expects an instance id"
     | Some id ->
       (match state_of id with
        | Error e -> Error e
        | Ok st ->
          Ok
            (Printf.sprintf "flows=%d backlog=%d dropped=%d"
               (FK.length st.flows) st.backlog st.dropped)))
  | _ -> Error (Printf.sprintf "drr: unknown message %s" key)
