open Rp_pkt
module D = Domain_ctx

type verdict =
  | Enqueued of int
  | Delivered_local
  | Absorbed  (** a plugin consumed the packet (e.g. reassembly) *)
  | Dropped of string

let pp_verdict ppf = function
  | Enqueued i -> Format.fprintf ppf "enqueued on if%d" i
  | Delivered_local -> Format.pp_print_string ppf "delivered locally"
  | Absorbed -> Format.pp_print_string ppf "consumed by a plugin"
  | Dropped why -> Format.fprintf ppf "dropped (%s)" why

type handoff =
  | Settled
  | Icmp_error of Icmp.message
  | Local
  | Egress of int * Plugin.t Rp_classifier.Flow_table.binding option

type ctx = Router.t D.t

(* Fragments lost to a full output queue while siblings of the same
   datagram were accepted — the datagram itself is then reported
   [Dropped], since an incomplete fragment set cannot reassemble. *)
let m_frag_drops = Rp_obs.Registry.counter "ip_core.fragment_drops"

(* Verdict counters, written by every domain's context. *)
let m_packets = Rp_obs.Registry.counter "ip_core.packets"
let m_forwarded = Rp_obs.Registry.counter "ip_core.forwarded"
let m_delivered = Rp_obs.Registry.counter "ip_core.delivered_local"
let m_absorbed = Rp_obs.Registry.counter "ip_core.absorbed"
let m_dropped = Rp_obs.Registry.counter "ip_core.dropped"

(* A packet's state in its frame: live, settled, or parked (its next,
   router-owned stage handed back by an owner-less context). *)
let live = 0
let forwarded = 1
let delivered = 2
let absorbed = 3
let dropped = 4
let dropped_icmp = 5 (* dropped, its ICMP error handed back *)
let parked_local = 6
let parked_egress = 7

(* Where a frame starts: a fresh packet, or a handed-back one. *)
let from_entry = 0
let from_local = 1
let from_egress = 2

(* Gates traversed inline, in data-path order (routing and scheduling
   run at their own stages). *)
let inline_gates_pre = [ Gate.Ip_options; Gate.Security_in; Gate.Firewall ]
let inline_gates_post = [ Gate.Congestion; Gate.Security_out; Gate.Stats ]

(* --- latency SLOs ---------------------------------------------------- *)

(* The SLO layer only *reads* the cost-model clock (the frame's
   [cycles] meter) — reading is free — so Table-3 cycles are
   byte-identical with stamping on or off.  [slo_open]/[slo_close]
   bracket one packet's traversal of a domain, [slo_close] noting its
   latency into the context's tallies, which [close] settles once per
   frame; [slo_attrib] accumulates per-gate cycles into the mbuf when
   exemplar capture is armed. *)

let slo_open cost m =
  if Rp_obs.Slo.on () then begin
    m.Mbuf.ingress_cycles <- !cost;
    if Rp_obs.Slo.armed () then begin
      (* The attribution array is cached on the descriptor (pooled
         descriptors allocate it once), so the armed steady state stays
         GC-silent. *)
      if Array.length m.Mbuf.gate_cycles = 0 then
        m.Mbuf.gate_cycles <- Array.make Gate.count 0
      else Array.fill m.Mbuf.gate_cycles 0 Gate.count 0
    end
  end

let slo_attrib m ~gate cycles =
  let a = m.Mbuf.gate_cycles in
  if Array.length a > 0 then begin
    let g = Gate.to_int gate in
    a.(g) <- a.(g) + cycles
  end

let slo_close (ctx : ctx) cost m cls =
  if Rp_obs.Slo.on () then begin
    let cycles = !cost - m.Mbuf.ingress_cycles in
    Rp_obs.Slo.note ctx.D.slo cls cycles;
    if Rp_obs.Slo.armed () && Rp_obs.Slo.is_breach cycles then begin
      let a = m.Mbuf.gate_cycles in
      let gates =
        List.filter_map
          (fun g ->
            let c = if Array.length a > 0 then a.(Gate.to_int g) else 0 in
            if c > 0 then Some (Gate.name g, c) else None)
          Gate.all
      in
      Rp_obs.Slo.capture ~shard:ctx.D.shard ~cls ~cycles
        ~key:(Flow_key.to_string m.Mbuf.key)
        ~gates ~trace_pkt:m.Mbuf.tseq
    end
  end

(* --- fault containment ----------------------------------------------- *)

(* Attribute a fault event to the instance in the PCU — which
   auto-quarantines past the consecutive-fault threshold — and apply
   the [Unbind] policy. *)
let apply_event router = function
  | Fault.Recovered id -> Pcu.record_success router.Router.pcu id
  | Fault.Faulted (id, reason) ->
    Logs.warn (fun m -> m "ip_core: contained fault of instance %d: %s" id reason);
    let pcu = router.Router.pcu in
    let threshold = Pcu.record_fault pcu id ~reason = `Quarantine in
    let unbind =
      Router.fault_policy router = Fault.Unbind && not (Pcu.is_quarantined pcu id)
    in
    if threshold || unbind then ignore (Router.quarantine router id)

(* PCU fault accounting is router-owned: the router's context applies
   an event at once, a shard's queues it for the control domain. *)
let post (ctx : ctx) ev =
  match ctx.D.owner with
  | Some router -> apply_event router ev
  | None -> ctx.D.events <- ev :: ctx.D.events

(* Fault containment (the plugin may be third-party code the router
   does not trust): count the fault, report it, and convert it to the
   fault policy.  Nothing here charges the cost model. *)
let contain (ctx : ctx) ~gate m inst (reason : Fault.reason) =
  Rp_obs.Counter.inc (Gate.faults gate);
  let id = inst.Plugin.instance_id in
  (* Faults are rare and diagnostic gold: when tracing is on they are
     recorded even for unsampled packets (pkt 0). *)
  if Rp_obs.Telemetry.on () then
    Rp_obs.Telemetry.record ~ts:(Cost.get ()) ~kind:Rp_obs.Telemetry.Fault
      ~gate:(Gate.to_int gate) ~pkt:m.Mbuf.tseq ~arg:id;
  if not (List.mem id ctx.D.outstanding) then
    ctx.D.outstanding <- id :: ctx.D.outstanding;
  post ctx (Fault.Faulted (id, Fault.reason_to_string reason));
  match ctx.D.control.D.policy with
  | Fault.Drop_packet -> Plugin.Drop "plugin fault"
  | Fault.Continue_packet | Fault.Unbind -> Plugin.Continue

(* A clean return ends the instance's consecutive-fault run — which
   only exists if its last invocation here faulted. *)
let recovered (ctx : ctx) id =
  if List.mem id ctx.D.outstanding then begin
    ctx.D.outstanding <- List.filter (fun o -> o <> id) ctx.D.outstanding;
    post ctx (Fault.Recovered id)
  end

(* Run one instance's handler under containment: an escaping exception
   or a per-invocation cycle-budget overrun becomes a fault instead of
   unwinding the pipeline.  The handler's own [Cost.charge]s land in
   the frame's meter: a frame runs on one domain.  The handler is given
   the frame's context, refilled for this call; the clock, which rarely
   changes within a frame, is written only when it does, which saves
   its write barrier. *)
let run_handler (ctx : ctx) (f : D.frame) ~now ~gate inst binding m =
  let cost = f.D.cycles in
  let c0 = !cost in
  let hctx = f.D.hctx in
  if hctx.Plugin.now_ns != now then hctx.Plugin.now_ns <- now;
  hctx.Plugin.binding <- binding;
  match inst.Plugin.handle hctx m with
  | exception e -> contain ctx ~gate m inst (Fault.Exn (Printexc.to_string e))
  | action -> (
      let used = !cost - c0 in
      match ctx.D.control.D.budget with
      | Some budget when used > budget -> contain ctx ~gate m inst (Fault.Budget used)
      | _ ->
        if ctx.D.outstanding <> [] then recovered ctx inst.Plugin.instance_id;
        action)

(* --- the gate stage -------------------------------------------------- *)

(* Classify at [gate], charging the framework costs to the given
   meters (a frame's): the flow hash the first time this packet
   consults the AIU, the measured memory accesses of whatever lookups
   the AIU performed (a cached flow costs ~2; the first packet of a
   flow pays the full cold-start resolution), one gate's invocation
   overhead.  Returns the flow's record. *)
let charge_classify cost acc aiu ~now ~gate m =
  let had_fix = m.Mbuf.fix >= 0 in
  let a0 = !acc in
  let record = Rp_classifier.Aiu.classify aiu m ~gate:(Gate.to_int gate) ~now in
  let accesses = !acc - a0 in
  if not had_fix then cost := !cost + Cost.flow_hash;
  cost := !cost + (accesses * Cost.mem_access) + Cost.gate_invoke;
  if m.Mbuf.tseq <> 0 then
    Rp_obs.Telemetry.record ~ts:!cost ~kind:Rp_obs.Telemetry.Classify
      ~gate:(Gate.to_int gate) ~pkt:m.Mbuf.tseq ~arg:accesses;
  record

let classify aiu ~now ~gate m =
  charge_classify (Cost.meter ()) (Rp_lpm.Access.meter ()) aiu ~now ~gate m

let rec mem_gate g = function
  | [] -> false
  | x :: rest -> Gate.equal g x || mem_gate g rest

let rec mem_proto p = function
  | [] -> false
  | x :: rest -> x = p || mem_proto p rest

let gate_enabled (ctx : ctx) g = mem_gate g ctx.D.control.D.gates

let settle_drop (f : D.frame) i why =
  f.D.state.(i) <- dropped;
  f.D.why.(i) <- why

(* One gate over every live packet of a frame (gate-major): classify,
   run the bound handler under containment — the scheduling gate only
   classifies, its binding riding to the output queue — and meter the
   traversal three ways: the per-gate counters, added once per frame;
   the packet's SLO attribution; and, for a sampled packet, its
   telemetry span.  All three only read the frame's meters, so
   Table-3 figures are untouched. *)
let sweep (ctx : ctx) (f : D.frame) batch off n gate =
  let g = Gate.to_int gate in
  let cost = f.D.cycles and acc = f.D.accesses in
  let visits = ref 0 and cycles = ref 0 and drops = ref 0 in
  for i = 0 to n - 1 do
    if f.D.state.(i) = live then begin
      incr visits;
      let m = batch.(off + i) in
      let now = f.D.now.(i) in
      let tseq = m.Mbuf.tseq in
      if tseq <> 0 then
        Rp_obs.Telemetry.record ~ts:!cost
          ~kind:Rp_obs.Telemetry.Gate_enter ~gate:g ~pkt:tseq ~arg:0;
      let c0 = !cost and a0 = !acc in
      let record = charge_classify cost acc ctx.D.aiu ~now ~gate m in
      let binding = Rp_classifier.Flow_table.binding record ~gate:g in
      let action =
        match (gate, binding) with
        | Gate.Scheduling, _ ->
          f.D.sched.(i) <- binding;
          Plugin.Continue
        | _, None -> Plugin.Continue
        | _, Some b ->
          run_handler ctx f ~now ~gate b.Rp_classifier.Flow_table.instance
            binding m
      in
      let c = !cost - c0 in
      cycles := !cycles + c;
      slo_attrib m ~gate c;
      if tseq <> 0 then
        Rp_obs.Telemetry.record ~ts:!cost
          ~kind:Rp_obs.Telemetry.Gate_exit ~gate:g ~pkt:tseq
          ~arg:(!acc - a0);
      match action with
      | Plugin.Continue -> ()
      | Plugin.Consumed -> f.D.state.(i) <- absorbed
      | Plugin.Drop why ->
        incr drops;
        settle_drop f i why
    end
  done;
  if !visits > 0 then begin
    Rp_obs.Counter.add (Gate.dispatch gate) !visits;
    Rp_obs.Counter.add (Gate.cycles gate) !cycles
  end;
  if !drops > 0 then Rp_obs.Counter.add (Gate.drops gate) !drops

let rec run_gates ctx f batch off n = function
  | [] -> ()
  | gate :: rest ->
    if gate_enabled ctx gate then sweep ctx f batch off n gate;
    run_gates ctx f batch off n rest

(* --- frames ---------------------------------------------------------- *)

(* Frames stack by nesting depth, so a packet the router originates
   mid-batch (an ICMP error, an echo reply) runs in its own frame.  A
   frame looks up the running domain's meters once.  The outermost
   frame holds the context's AIU and route table, whose per-packet
   registry counters then settle once, as it leaves. *)
let enter (ctx : ctx) =
  let d = ctx.D.depth in
  if d = Array.length ctx.D.frames then
    ctx.D.frames <- Array.append ctx.D.frames [| D.frame () |];
  if d = 0 then begin
    Rp_classifier.Aiu.hold ctx.D.aiu;
    Route_table.hold ctx.D.routes
  end;
  ctx.D.depth <- d + 1;
  let f = ctx.D.frames.(d) in
  f.D.cycles <- Cost.meter ();
  f.D.accesses <- Rp_lpm.Access.meter ();
  f

let leave (ctx : ctx) =
  let d = ctx.D.depth - 1 in
  ctx.D.depth <- d;
  if d = 0 then begin
    Rp_classifier.Aiu.release ctx.D.aiu;
    Route_table.release ctx.D.routes
  end

(* [Enqueued o] for the first 256 interfaces, built once, so a verdict
   allocates nothing; a higher index builds its own. *)
let enqueued_on = Array.init 256 (fun o -> Enqueued o)

let enqueued o =
  if o >= 0 && o < Array.length enqueued_on then enqueued_on.(o) else Enqueued o

let verdict_of (f : D.frame) i =
  let st = f.D.state.(i) in
  if st = forwarded || st = parked_egress then enqueued f.D.out.(i)
  else if st = delivered || st = parked_local then Delivered_local
  else if st = absorbed then Absorbed
  else Dropped f.D.why.(i)

let handoff_of (f : D.frame) i =
  let st = f.D.state.(i) in
  if st = dropped_icmp then Icmp_error f.D.icmp.(i)
  else if st = parked_local then Local
  else if st = parked_egress then Egress (f.D.out.(i), f.D.sched.(i))
  else Settled

(* Verdict accounting: each settled packet counts once; a parked one
   counts when the control domain settles it.  Then the packet's
   traversal of this domain closes — telemetry end, SLO latency,
   NetFlow accounting against the record its FIX names, a parked packet
   under its provisional verdict — unless it is a resumed one, whose
   domain closed it when parking it ([span] false). *)
let close (ctx : ctx) (f : D.frame) ~span batch off n =
  let fwd = ref 0 and del = ref 0 and abso = ref 0 and drop = ref 0 in
  let ft = Rp_classifier.Aiu.flow_table ctx.D.aiu in
  for i = 0 to n - 1 do
    let m = batch.(off + i) in
    let st = f.D.state.(i) in
    let is_drop = st = dropped || st = dropped_icmp in
    let is_fwd = st = forwarded || st = parked_egress in
    if st = forwarded then incr fwd
    else if st = delivered then incr del
    else if st = absorbed then incr abso
    else if is_drop then begin
      incr drop;
      Rp_obs.Drop_reason.count_why f.D.why.(i)
    end;
    let tseq = m.Mbuf.tseq in
    if span && tseq <> 0 then begin
      let ts = !(f.D.cycles) in
      if is_drop then
        Rp_obs.Telemetry.record ~ts ~kind:Rp_obs.Telemetry.Drop ~gate:(-1)
          ~pkt:tseq ~arg:0;
      Rp_obs.Telemetry.record ~ts ~kind:Rp_obs.Telemetry.Pkt_end ~gate:(-1)
        ~pkt:tseq ~arg:0
    end;
    if span then begin
      slo_close ctx f.D.cycles m
        Rp_obs.Slo.(if is_drop then Drop else if is_fwd then Fwd else Absorb);
      Rp_classifier.Flow_table.account ft m
        ~verdict:(if is_drop then `Drop else if is_fwd then `Fwd else `Absorb)
    end;
    if st >= parked_local then begin
      (* The trace ends with this domain's traversal; a packet leaving
         mid-path is classified again where it resumes. *)
      m.Mbuf.tseq <- 0;
      if st = parked_local then m.Mbuf.fix <- Mbuf.no_fix
    end
  done;
  if span then Rp_obs.Slo.settle ctx.D.slo;
  if !fwd > 0 then Rp_obs.Counter.add m_forwarded !fwd;
  if !del > 0 then Rp_obs.Counter.add m_delivered !del;
  if !abso > 0 then Rp_obs.Counter.add m_absorbed !abso;
  if !drop > 0 then Rp_obs.Counter.add m_dropped !drop

(* --- the pipeline ---------------------------------------------------- *)

let unreachable = Icmp.Dest_unreachable Icmp.Net_unreachable

(* One frame through the data path, stage by stage (paper, Figure 3):
   entry/TTL, pre-routing gates, punt/local delivery, routing (gate,
   else table), post-routing gates, scheduling classification, the
   fragment/DF decision and the output queue, verdict accounting.
   Each stage walks the whole frame before the next begins; a settled
   packet sits out the rest.  Router-owned stages run at once on the
   router's context and park the packet on a shard's. *)
let rec run_frame (ctx : ctx) f ~from ~now batch off n =
  if from = from_entry then begin
    entry ctx f ~now batch off n;
    run_gates ctx f batch off n inline_gates_pre
  end;
  if from <= from_local then begin
    local ctx f batch off n;
    run_gates ctx f batch off n [ Gate.Routing ];
    route ctx f batch off n;
    run_gates ctx f batch off n inline_gates_post;
    run_gates ctx f batch off n [ Gate.Scheduling ]
  end;
  egress_stage ctx f batch off n;
  close ctx f ~span:(from = from_entry) batch off n

and run_in ctx f ~from ~now batch off n =
  match run_frame ctx f ~from ~now batch off n with
  | () -> ()
  | exception e ->
    leave ctx;
    raise e

(* Sampling decision, arrival accounting, TTL.  Nothing in the
   telemetry path charges the cost model.  On the router's context the
   receiving interfaces count the frame's packets, with one add to the
   process-wide totals. *)
and entry ctx f ~now batch off n =
  Rp_obs.Counter.add m_packets n;
  let cost = f.D.cycles in
  let rx_bytes = ref 0 in
  for i = 0 to n - 1 do
    let m = batch.(off + i) in
    f.D.state.(i) <- live;
    f.D.now.(i) <- (if ctx.D.birth_clock then m.Mbuf.birth_ns else now);
    if Rp_obs.Telemetry.on () && m.Mbuf.tseq = 0 then
      m.Mbuf.tseq <- Rp_obs.Telemetry.sample ();
    let tseq = m.Mbuf.tseq in
    if tseq <> 0 then
      Rp_obs.Telemetry.record ~ts:!cost ~kind:Rp_obs.Telemetry.Pkt_start
        ~gate:(-1) ~pkt:tseq ~arg:m.Mbuf.len;
    slo_open cost m;
    cost := !cost + Cost.base_forward;
    (match ctx.D.owner with
     | Some router ->
       Iface.note_rx (Router.iface router m.Mbuf.key.Flow_key.iface) m;
       rx_bytes := !rx_bytes + m.Mbuf.len
     | None -> ());
    if m.Mbuf.ttl <= 1 then drop_icmp ctx f i m "ttl expired" Icmp.Time_exceeded
    else Mbuf.set_ttl m (m.Mbuf.ttl - 1)
  done;
  if ctx.D.owner <> None then Iface.add_rx ~packets:n ~bytes:!rx_bytes

(* A drop with an ICMP error to the source. *)
and drop_icmp ctx f i m why message =
  match ctx.D.owner with
  | Some router ->
    icmp_error router ~now:f.D.now.(i) m message;
    settle_drop f i why
  | None ->
    f.D.state.(i) <- dropped_icmp;
    f.D.why.(i) <- why;
    f.D.icmp.(i) <- message

(* Local punt (protocols handled by a daemon on this router, e.g. SSP)
   and local delivery.  A shard recognises these packets by the punt
   protocols and local addresses of its snapshot and hands them back;
   the router's context consults the same protocol list before it
   hashes into its handler table. *)
and local ctx f batch off n =
  for i = 0 to n - 1 do
    if f.D.state.(i) = live then
      let m = batch.(off + i) in
      match ctx.D.owner with
      | Some router ->
        let now = f.D.now.(i) and key = m.Mbuf.key in
        let proto = key.Flow_key.proto in
        if
          (mem_proto proto ctx.D.control.D.punts
          && match Hashtbl.find_opt router.Router.punts proto with
             | Some handler -> handler ~now m = Router.Punt_consume
             | None -> false)
          || Router.is_local router key.Flow_key.dst
             && begin
               answer_echo router ~now m;
               true
             end
        then f.D.state.(i) <- delivered
      | None ->
        let key = m.Mbuf.key and c = ctx.D.control in
        if
          mem_proto key.Flow_key.proto c.D.punts
          || (c.D.locals <> []
             && List.exists (Ipaddr.equal key.Flow_key.dst) c.D.locals)
        then f.D.state.(i) <- parked_local
  done

(* A routing-gate plugin may have fixed the output interface (L4
   switching), which must exist; otherwise consult the routing table,
   through the route cached with the packet's flow record. *)
and route ctx f batch off n =
  for i = 0 to n - 1 do
    if f.D.state.(i) = live then
      let m = batch.(off + i) in
      match m.Mbuf.out_iface with
      | Some o when o >= 0 && o < Array.length ctx.D.control.D.mtus -> f.D.out.(i) <- o
      | Some _ -> drop_icmp ctx f i m "no route to destination" unreachable
      | None ->
        let o =
          Route_table.resolve ctx.D.routes
            (Rp_classifier.Aiu.flow_table ctx.D.aiu)
            m
        in
        if o >= 0 then f.D.out.(i) <- o
        else drop_icmp ctx f i m "no route to destination" unreachable
  done

(* After all gates, the fragment/DF decision: a datagram over the
   egress MTU that may not be fragmented (IPv4 with DF, IPv6) is
   dropped with an ICMP "packet too big"; the rest go to the output
   queue.  The scheduling binding rides with the packet only while its
   block is still bound for the packet's flow: a later packet of the
   frame may have recycled the flow's slot and refilled the block for
   another flow, whose soft state the packet must not touch.  A shard
   lends the block it parks a packet with, so it never refills a block
   the control domain may be writing. *)
and egress_stage ctx f batch off n =
  let sched = gate_enabled ctx Gate.Scheduling in
  for i = 0 to n - 1 do
    if f.D.state.(i) = live then
      let m = batch.(off + i) in
      let mtu = ctx.D.control.D.mtus.(f.D.out.(i)) in
      let big = Frag.needs_fragmentation m ~mtu in
      if big && (m.Mbuf.version = Mbuf.V6 || m.Mbuf.dont_fragment) then
        drop_icmp ctx f i m "needs fragmentation" (Icmp.Packet_too_big mtu)
      else begin
        (if not sched then f.D.sched.(i) <- None
         else
           let b = f.D.sched.(i) in
           let live = Rp_classifier.Flow_table.still_bound b m.Mbuf.fix in
           if live != b then f.D.sched.(i) <- live);
        match ctx.D.owner with
        | None ->
          Rp_classifier.Flow_table.lend f.D.sched.(i);
          f.D.state.(i) <- parked_egress
        | Some router when not big ->
          if enqueue router f i m then f.D.state.(i) <- forwarded
          else settle_drop f i "output queue"
        | Some router -> (
            (* A datagram missing fragments cannot reassemble: it drops. *)
            match Frag.fragment m ~mtu with
            | Ok fragments ->
              let total = List.length fragments in
              let queued = List.filter (enqueue router f i) fragments in
              let lost = total - List.length queued in
              if lost > 0 then Rp_obs.Counter.add m_frag_drops lost;
              if lost = 0 then f.D.state.(i) <- forwarded
              else if lost = total then settle_drop f i "output queue"
              else
                settle_drop f i
                  (Printf.sprintf "partial fragment loss (%d/%d fragments queued)"
                     (total - lost) total)
            | Error _ -> settle_drop f i "needs fragmentation")
      end
  done

(* Hand one packet (or fragment) to the output queue, with the same
   containment as a gate handler: an exception escaping an attached
   scheduler is counted at the scheduling gate, attributed to the
   qdisc instance, and treated as a queue drop (a quarantined qdisc is
   detached, so subsequent packets take the default FIFO).  Queue
   rejections count as scheduling-gate drops. *)
and enqueue router f i piece =
  let ctx = router.Router.ctx and ifc = Router.iface router f.D.out.(i) in
  let ok =
    match Iface.enqueue ifc ~now:f.D.now.(i) ~binding:f.D.sched.(i) piece with
    | ok ->
      (match ifc.Iface.qdisc with
       | Some inst when ok && ctx.D.outstanding <> [] ->
         recovered ctx inst.Plugin.instance_id
       | Some _ | None -> ());
      ok
    | exception e ->
      (match ifc.Iface.qdisc with
       | Some inst ->
         ignore
           (contain ctx ~gate:Gate.Scheduling piece inst
              (Fault.Exn (Printexc.to_string e)))
       | None -> Rp_obs.Counter.inc (Gate.faults Gate.Scheduling));
      false
  in
  if (not ok) && gate_enabled ctx Gate.Scheduling then
    Rp_obs.Counter.inc (Gate.drops Gate.Scheduling);
  ok

(* Answer ICMP echo requests addressed to the router itself (so the
   router is pingable end to end). *)
and answer_echo router ~now (m : Mbuf.t) =
  let key = m.Mbuf.key in
  let proto = key.Flow_key.proto in
  if proto = Proto.icmp || proto = Proto.icmpv6 then
    match Mbuf.l4_message m with
    | None -> ()
    | Some msg -> (
      match Icmp.parse ~src:key.Flow_key.src ~dst:key.Flow_key.dst msg with
      | Ok { Icmp.message = Icmp.Echo_request { ident; seq }; payload } ->
        send_icmp router ~now ~src:key.Flow_key.dst ~to_:m
          { Icmp.message = Icmp.Echo_reply { ident; seq }; payload }
      | Ok _ | Error _ -> ())

(* Generate an ICMP error about [orig] back toward its source.  Per the
   RFC rules: never about ICMP itself, and only when the router has an
   address of the right family to source it from.  It quotes the
   offending datagram's IPv4 header and first 8 data bytes (RFC 792),
   or as much of the IPv6 datagram as keeps the error within the
   1,280-byte minimum MTU (RFC 4443 section 2.4(c)); never past its
   [len]. *)
and icmp_error router ~now (orig : Mbuf.t) message =
  let proto = orig.Mbuf.key.Flow_key.proto in
  if proto <> Proto.icmp && proto <> Proto.icmpv6 then
    match Router.local_addr_for router orig.Mbuf.key.Flow_key.src with
    | None -> ()
    | Some src ->
      let payload =
        match orig.Mbuf.raw with
        | Some raw ->
          let quote =
            match orig.Mbuf.version with
            | Mbuf.V4 -> ((Bytes.get_uint8 raw 0 land 0xF) * 4) + 8
            | Mbuf.V6 -> 1280 - Ipv6_header.size - 8
          in
          let len = min orig.Mbuf.len (Bytes.length raw) in
          Bytes.sub_string raw 0 (min quote len)
        | None -> ""
      in
      router.Router.icmp_sent <- router.Router.icmp_sent + 1;
      send_icmp router ~now ~src ~to_:orig { Icmp.message; payload }

(* Route an ICMP message from [src] back to [to_]'s source through this
   router's own data path, as a whole datagram. *)
and send_icmp router ~now ~src ~to_ icmp =
  let dst = to_.Mbuf.key.Flow_key.src in
  let m =
    Mbuf.datagram ~src ~dst
      ~proto:(if Ipaddr.is_v4 src then Proto.icmp else Proto.icmpv6)
      ~iface:to_.Mbuf.key.Flow_key.iface
      (Icmp.serialize ~src ~dst icmp)
  in
  ignore (process router ~now m)

(* One packet on the router's context, from stage [from]. *)
and single router ~from ~now ~out ~binding m =
  let ctx = router.Router.ctx in
  let f = enter ctx in
  f.D.pkts.(0) <- m;
  f.D.state.(0) <- live;
  f.D.now.(0) <- now;
  f.D.out.(0) <- out;
  f.D.sched.(0) <- binding;
  run_in ctx f ~from ~now f.D.pkts 0 1;
  leave ctx;
  f.D.pkts.(0) <- Mbuf.dummy;
  verdict_of f 0

and process router ~now m =
  single router ~from:from_entry ~now ~out:(-1) ~binding:None m

let resume router ~now m = function
  | Local -> single router ~from:from_local ~now ~out:(-1) ~binding:None m
  | Egress (out, binding) -> single router ~from:from_egress ~now ~out ~binding m
  | Settled | Icmp_error _ -> invalid_arg "Ip_core.resume: no router-owned stage left"

let run (ctx : ctx) ~now batch ~n ~emit =
  if n < 0 || n > Array.length batch then invalid_arg "Ip_core.run: n out of range";
  let off = ref 0 in
  while !off < n do
    let k = min D.batch (n - !off) in
    let f = enter ctx in
    run_in ctx f ~from:from_entry ~now batch !off k;
    for i = 0 to k - 1 do
      emit batch.(!off + i) (verdict_of f i) (handoff_of f i)
    done;
    leave ctx;
    off := !off + k
  done

let process_batch router ?(emit = fun _ _ -> ()) ~now batch ~n =
  run router.Router.ctx ~now batch ~n ~emit:(fun m v _ -> emit m v)

(* One gate for one packet, metered like any sweep. *)
let invoke_gate router ~now ~gate m =
  let ctx = router.Router.ctx in
  let f = enter ctx in
  f.D.pkts.(0) <- m;
  f.D.state.(0) <- live;
  f.D.now.(0) <- now;
  sweep ctx f f.D.pkts 0 1 gate;
  leave ctx;
  f.D.pkts.(0) <- Mbuf.dummy;
  let st = f.D.state.(0) in
  if st = absorbed then Plugin.Consumed
  else if st = dropped then Plugin.Drop f.D.why.(0)
  else Plugin.Continue
