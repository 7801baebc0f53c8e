open Rp_pkt
open Rp_core
open Rp_classifier

let name = "hfsc"
let gate = Gate.Scheduling
let description = "Hierarchical Fair Service Curve scheduling"

module FK = Flow_key.Table

(* Leaf queueing discipline (the paper's HSF future work, section 6:
   "DRR could be used to do fair queuing for all flows ending in the
   same H-FSC leaf node" — plain H-FSC uses FIFO per leaf, "which may
   result in unfair service to different flows").  A DRR leaf is a
   {!Drr_core} whose flows are all found by key, each queue bounded
   by the class limit. *)
type leaf_q = Fifo_q of Mbuf.t Ring.t | Drr_q of Drr_core.t

type class_t = {
  cname : string;
  parent : class_t option;
  mutable children : class_t list;
  rsc : Service_curve.t option;
  fsc : Service_curve.t;
  usc : Service_curve.t option;  (** upper-limit curve: service cap *)
  limit : int;
  q : leaf_q;  (** leaf queue *)
  mutable rt_curve : Service_curve.anchored option;
  mutable ul_curve : Service_curve.anchored option;
  mutable cumul_rt : float;  (** bytes served, for the rt criterion *)
  mutable cumul_total : float;  (** bytes served, all criteria (for ul) *)
  mutable vt : float;  (** virtual time among siblings *)
  mutable sent_pkts : int;
  mutable sent_bytes : int;
}

(* --- leaf queue operations ------------------------------------------- *)

let leaf_len = function
  | Fifo_q q -> Ring.length q
  | Drr_q d -> Drr_core.backlog d

let leaf_is_empty q = leaf_len q = 0

(* The caller checked the class limit, so the pushes succeed. *)
let leaf_push q (m : Mbuf.t) =
  match q with
  | Fifo_q fq -> ignore (Ring.push fq m)
  | Drr_q d -> ignore (Drr_core.push d (Drr_core.find d m.Mbuf.key) m)

(* Length of the packet a pop would return, 0 when the leaf is empty:
   for DRR leaves the head of the ring's first backlogged queue (the
   rt criterion only needs a deadline estimate; intra-leaf order is
   fairness, not guarantee). *)
let leaf_peek_len = function
  | Fifo_q fq -> if Ring.is_empty fq then 0 else (Ring.peek fq).Mbuf.len
  | Drr_q d -> Drr_core.head_len d

(* The leaf's next packet, or [Mbuf.dummy] when it is empty. *)
let leaf_pop q =
  match q with
  | Fifo_q fq -> if Ring.is_empty fq then Mbuf.dummy else Ring.pop fq
  | Drr_q d -> Drr_core.pop d

type Flow_table.soft += Hfsc_flow of class_t

type state = {
  instance_id : int;
  root : class_t;
  mutable classes : (string * class_t) list;
  assignments : class_t FK.t;
  default_limit : int;
  mutable backlog : int;
  mutable dropped : int;
}

let instances : (int, state) Hashtbl.t = Hashtbl.create 8

let mk_class ~cname ~parent ~rsc ~fsc ?usc ~limit ?(leaf = `Fifo) () =
  {
    cname;
    parent;
    children = [];
    rsc;
    fsc;
    usc;
    limit;
    q =
      (match leaf with
       | `Fifo -> Fifo_q (Ring.create ~limit ~dummy:Mbuf.dummy ())
       | `Drr quantum -> Drr_q (Drr_core.create ~quantum ~limit));
    rt_curve = None;
    ul_curve = None;
    cumul_rt = 0.0;
    cumul_total = 0.0;
    vt = 0.0;
    sent_pkts = 0;
    sent_bytes = 0;
  }

let is_leaf c = c.children = []

(* Packets queued anywhere in the subtree. *)
let rec subtree_backlog c =
  leaf_len c.q + List.fold_left (fun acc k -> acc + subtree_backlog k) 0 c.children

let leaves st =
  List.filter_map (fun (_, c) -> if is_leaf c then Some c else None) st.classes

let sec_of_ns ns = Int64.to_float ns /. 1e9

(* --- enqueue --------------------------------------------------------- *)

let leaf_for st binding (m : Mbuf.t) =
  let from_table () =
    match FK.find_opt st.assignments m.Mbuf.key with
    | Some c -> c
    | None -> List.assoc "default" st.classes
  in
  match binding with
  | Some (b : Plugin.t Flow_table.binding) ->
    (match b.Flow_table.soft with
     | Some (Hfsc_flow c) -> c
     | Some _ | None ->
       let c = from_table () in
       b.Flow_table.soft <- Some (Hfsc_flow c);
       c)
  | None -> from_table ()

let enqueue st ~now m binding =
  let leaf = leaf_for st binding m in
  if leaf_len leaf.q >= leaf.limit then begin
    st.dropped <- st.dropped + 1;
    Plugin.Rejected "class queue full"
  end
  else begin
    if leaf_is_empty leaf.q then begin
      (* New backlogged period: re-anchor the deadline curve at the
         current (time, service) point so the m1 segment applies. *)
      (match leaf.rsc with
       | Some sc ->
         leaf.rt_curve <-
           Some (Service_curve.anchor sc ~x:(sec_of_ns now) ~y:leaf.cumul_rt)
       | None -> ());
      (match leaf.usc with
       | Some sc when leaf.ul_curve = None ->
         (* The upper limit anchors once, at the first backlogged
            period, so the cap holds across bursts. *)
         leaf.ul_curve <-
           Some (Service_curve.anchor sc ~x:(sec_of_ns now) ~y:leaf.cumul_total)
       | Some _ | None -> ());
      (* Virtual-time catch-up: a newly backlogged class must not
         carry credit from its idle period. *)
      let siblings =
        match leaf.parent with Some p -> p.children | None -> []
      in
      let min_vt =
        List.fold_left
          (fun acc s ->
            if s != leaf && subtree_backlog s > 0 then min acc s.vt else acc)
          infinity siblings
      in
      if min_vt < infinity then leaf.vt <- max leaf.vt min_vt
    end;
    leaf_push leaf.q m;
    st.backlog <- st.backlog + 1;
    Cost.charge Cost.hfsc_enqueue;
    Plugin.Enqueued
  end

(* --- dequeue --------------------------------------------------------- *)

(* Real-time criterion: among backlogged leaves with an RSC whose
   eligible time has arrived, pick the earliest deadline. *)
let rt_candidate st ~now =
  let t = sec_of_ns now in
  List.fold_left
    (fun best leaf ->
      match leaf.rt_curve with
      | Some a when not (leaf_is_empty leaf.q) ->
        let eligible = Service_curve.anchored_inverse a leaf.cumul_rt in
        if eligible <= t then begin
          let head_len = float_of_int (leaf_peek_len leaf.q) in
          let deadline =
            Service_curve.anchored_inverse a (leaf.cumul_rt +. head_len)
          in
          match best with
          | Some (_, d) when d <= deadline -> best
          | Some _ | None -> Some (leaf, deadline)
        end
        else best
      | Some _ | None -> best)
    None (leaves st)

(* Is the class allowed more service at time [t] under its upper
   limit? *)
let under_limit c ~t =
  match c.ul_curve with
  | None -> true
  | Some a -> c.cumul_total < Service_curve.anchored_value a t

(* Link-sharing criterion: descend from the root following minimal
   virtual time among backlogged, non-rate-capped children. *)
let rec ls_candidate ~t c =
  if is_leaf c then if leaf_is_empty c.q then None else Some c
  else
    let best =
      List.fold_left
        (fun acc k ->
          if subtree_backlog k = 0 || not (under_limit k ~t) then acc
          else
            match acc with
            | Some b when b.vt <= k.vt -> acc
            | Some _ | None -> Some k)
        None c.children
    in
    match best with
    | Some k -> ls_candidate ~t k
    | None -> None

(* Advance virtual times along the path from [c] up to the root's
   children (link-sharing accounting happens for every transmission,
   whichever criterion chose it). *)
let rec advance st c len =
  let share = max 1.0 c.fsc.Service_curve.m2 in
  c.vt <- c.vt +. (float_of_int len /. share);
  match c.parent with
  | Some p when p != st.root -> advance st p len
  | Some _ | None -> ()

let serve st leaf ~rt =
  let m = leaf_pop leaf.q in
  if m != Mbuf.dummy then begin
    let len = m.Mbuf.len in
    leaf.sent_pkts <- leaf.sent_pkts + 1;
    leaf.sent_bytes <- leaf.sent_bytes + len;
    leaf.cumul_total <- leaf.cumul_total +. float_of_int len;
    st.backlog <- st.backlog - 1;
    if rt then leaf.cumul_rt <- leaf.cumul_rt +. float_of_int len;
    advance st leaf len;
    Cost.charge Cost.hfsc_dequeue
  end;
  m

let dequeue st ~now =
  match rt_candidate st ~now with
  | Some (leaf, _deadline) -> serve st leaf ~rt:true
  | None ->
    (match ls_candidate ~t:(sec_of_ns now) st.root with
     | Some leaf -> serve st leaf ~rt:false
     | None -> Mbuf.dummy)

(* --- control --------------------------------------------------------- *)

let state_of instance_id =
  match Hashtbl.find_opt instances instance_id with
  | Some st -> Ok st
  | None -> Error (Printf.sprintf "hfsc: no instance %d" instance_id)

let add_class ~instance_id ~cname ?parent ?rsc ?fsc ?usc ?limit ?leaf () =
  match state_of instance_id with
  | Error _ as e -> e
  | Ok st ->
    if List.mem_assoc cname st.classes then
      Error (Printf.sprintf "hfsc: class %s exists" cname)
    else if Option.value limit ~default:1 < 1 then
      Error "hfsc: a class limit must be a positive integer"
    else begin
      let parent_c =
        match parent with
        | None -> Some st.root
        | Some p -> List.assoc_opt p st.classes
      in
      match parent_c with
      | None -> Error (Printf.sprintf "hfsc: no parent class %s" (Option.value parent ~default:"?"))
      | Some p when not (leaf_is_empty p.q) ->
        Error "hfsc: cannot add a child to a backlogged leaf"
      | Some p ->
        let c =
          mk_class ~cname ~parent:(Some p)
            ~rsc
            ~fsc:(Option.value fsc ~default:(Service_curve.linear 1.0))
            ?usc
            ~limit:(Option.value limit ~default:st.default_limit)
            ?leaf ()
        in
        p.children <- p.children @ [ c ];
        st.classes <- st.classes @ [ (cname, c) ];
        Ok ()
    end

let assign ~instance_id ~key ~cname =
  match state_of instance_id with
  | Error _ as e -> e
  | Ok st ->
    (match List.assoc_opt cname st.classes with
     | None -> Error (Printf.sprintf "hfsc: no class %s" cname)
     | Some c when not (is_leaf c) -> Error "hfsc: flows attach to leaves"
     | Some c ->
       FK.replace st.assignments key c;
       Ok ())

let drop_count ~instance_id =
  match state_of instance_id with Ok st -> st.dropped | Error _ -> 0

let leaf_queues ~instance_id ~cname =
  match state_of instance_id with
  | Error _ -> None
  | Ok st ->
    (match List.assoc_opt cname st.classes with
     | Some { q = Drr_q d; _ } -> Some (Drr_core.held d)
     | Some _ | None -> None)

let on_flow_evict (b : Plugin.t Flow_table.binding) =
  match b.Flow_table.soft with
  | Some (Hfsc_flow _) -> b.Flow_table.soft <- None
  | Some _ | None -> ()

let ( let* ) = Result.bind

let create_instance ~instance_id ~code ~config =
  let* default_limit = Plugin.positive_int config "class-limit" ~default:256 in
  let root =
    mk_class ~cname:"root" ~parent:None ~rsc:None
      ~fsc:(Service_curve.linear 1.0) ~limit:default_limit ()
  in
  let default_leaf =
    mk_class ~cname:"default" ~parent:(Some root) ~rsc:None
      ~fsc:(Service_curve.linear 1.0) ~limit:default_limit ()
  in
  root.children <- [ default_leaf ];
  let st =
    {
      instance_id;
      root;
      classes = [ ("root", root); ("default", default_leaf) ];
      assignments = FK.create 64;
      default_limit;
      backlog = 0;
      dropped = 0;
    }
  in
  Hashtbl.replace instances instance_id st;
  let scheduler =
    {
      Plugin.enqueue = (fun ~now m binding -> enqueue st ~now m binding);
      dequeue = (fun ~now -> dequeue st ~now);
      backlog = (fun () -> st.backlog);
      sched_stats =
        (fun () ->
          ("backlog", string_of_int st.backlog)
          :: ("dropped", string_of_int st.dropped)
          :: List.filter_map
               (fun (n, c) ->
                 if is_leaf c then
                   Some (n, Printf.sprintf "%dpkt/%dB" c.sent_pkts c.sent_bytes)
                 else None)
               st.classes);
    }
  in
  let base =
    Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
      ~describe:(fun () ->
        Printf.sprintf "hfsc: %d classes, backlog=%d" (List.length st.classes)
          st.backlog)
      (fun _ _ -> Plugin.Continue)
  in
  Ok
    {
      base with
      Plugin.scheduler = Some scheduler;
      on_flow_evict = Some on_flow_evict;
    }

(* Message syntax: "add-class <instance> <name> [parent=<p>]
   [rsc=m1:d:m2] [fsc=m1:d:m2] [limit=<n>]" and
   "assign <instance> <class> <filter six-tuple without spaces>". *)
let parse_curve s =
  match String.split_on_char ':' s with
  | [ m1; d; m2 ] ->
    (match float_of_string_opt m1, float_of_string_opt d, float_of_string_opt m2 with
     | Some m1, Some d, Some m2 -> Some (Service_curve.make ~m1 ~d ~m2)
     | _, _, _ -> None)
  | _ -> None

let message key payload =
  match key with
  | "plugin-info" -> Ok description
  | "add-class" ->
    (match String.split_on_char ' ' payload with
     | instance :: cname :: opts ->
       (match int_of_string_opt instance with
        | None -> Error "add-class: bad instance id"
        | Some instance_id ->
          let find_opt prefix =
            List.find_map
              (fun o ->
                let p = prefix ^ "=" in
                if String.length o > String.length p
                   && String.sub o 0 (String.length p) = p
                then Some (String.sub o (String.length p) (String.length o - String.length p))
                else None)
              opts
          in
          let parent = find_opt "parent" in
          let rsc = Option.bind (find_opt "rsc") parse_curve in
          let fsc = Option.bind (find_opt "fsc") parse_curve in
          let usc = Option.bind (find_opt "ul") parse_curve in
          (* A malformed limit reads as 0, which [add_class] refuses. *)
          let limit =
            Option.map
              (fun s -> Option.value (int_of_string_opt s) ~default:0)
              (find_opt "limit")
          in
          let leaf =
            match find_opt "leaf" with
            | Some "fifo" -> Some `Fifo
            | Some s when String.length s > 4 && String.sub s 0 4 = "drr:" ->
              Option.map (fun q -> `Drr q)
                (int_of_string_opt (String.sub s 4 (String.length s - 4)))
            | Some "drr" -> Some (`Drr 512)
            | Some _ | None -> None
          in
          (match add_class ~instance_id ~cname ?parent ?rsc ?fsc ?usc ?limit ?leaf () with
           | Ok () -> Ok (Printf.sprintf "class %s added" cname)
           | Error e -> Error e))
     | _ -> Error "add-class: expected '<instance> <name> [options]'")
  | "stats" ->
    (match int_of_string_opt payload with
     | None -> Error "stats expects an instance id"
     | Some id ->
       (match state_of id with
        | Error e -> Error e
        | Ok st ->
          Ok (Printf.sprintf "classes=%d backlog=%d dropped=%d"
                (List.length st.classes) st.backlog st.dropped)))
  | _ -> Error (Printf.sprintf "hfsc: unknown message %s" key)
