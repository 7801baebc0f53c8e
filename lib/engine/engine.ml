open Rp_pkt
open Rp_core

type mode =
  | Inline
  | Sharded of int

let mode_to_string = function
  | Inline -> "inline"
  | Sharded n -> Printf.sprintf "sharded:%d" n

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "inline" -> Ok Inline
  | s when String.length s > 8 && String.sub s 0 8 = "sharded:" -> (
      match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
      | Some n when n >= 1 -> Ok (Sharded n)
      | Some _ -> Error "sharded:N needs N >= 1"
      | None -> Error ("bad shard count in " ^ s))
  | _ -> Error (Printf.sprintf "unknown engine mode %S (inline | sharded:N)" s)

type t = {
  mode : mode;
  router : Router.t;
  snapshot : Snapshot.t Atomic.t;
  shard_tbl : Shard.t array;  (* [||] for Inline *)
  rx : Mbuf.t Spsc.t array;
  tx : Shard.result Spsc.t array;  (* one per shard; Inline: one *)
  busy : bool Atomic.t array;  (* worker mid-batch *)
  shard_rx : Rp_obs.Counter.t array;
  tx_ring_drops : Rp_obs.Counter.t array;
  stop_flag : bool Atomic.t;
  mutable domains : unit Domain.t array;
  m_submitted : Rp_obs.Counter.t;
  m_bp_drops : Rp_obs.Counter.t;
  m_drained : Rp_obs.Counter.t;
  batch_hist : Rp_obs.Histogram.t;
  mutable stopped : bool;
  (* Delta-publication state; control domain only. *)
  mutable pending : Snapshot.delta list;  (* newest first *)
  mutable overflow : bool;
      (* more mutations than the log holds since the last publication:
         the chain to older generations is gone, so the next
         publication must force a recompile *)
  mutable delta_log : (int * Snapshot.delta) list;  (* oldest first *)
  m_publishes : Rp_obs.Counter.t;
  m_delta_publishes : Rp_obs.Counter.t;
  mutable rss : Flow_key.t -> int;
      (* shard-selection hash; default [Flow_key.hash].  The session
         layer swaps in the canonical-key hash so both directions of a
         conversation land on one shard. *)
  transmitters : (now:int64 -> unit) array;  (* by interface *)
  (* The inline data path's and [drain]'s callbacks, built once with
     the engine so a call allocates none.  Control domain only. *)
  mutable now : int64;  (* the running inline [submit_batch]'s clock *)
  mutable emit : Mbuf.t -> Ip_core.verdict -> Ip_core.handoff -> unit;
  mutable sink : Shard.result -> unit;  (* the running [drain]'s [f] *)
  mutable drained : int;  (* by the running [drain] *)
  mutable deliver : Shard.result -> unit;
}

let mode t = t.mode
let router t = t.router
let generation t = (Atomic.get t.snapshot).Snapshot.gen

(* The delta log's bound: a shard more generations behind recompiles. *)
let backlog = 64

let shards t = Array.length t.tx
let shard_of_key t key = t.rss key land max_int mod shards t

(* Only safe while no traffic is in flight: packets of one flow hashed
   by two different functions could land on two shards, splitting the
   flow's cached state. *)
let set_rss t f = t.rss <- f
let rss t key = t.rss key

(* --- engine registry ------------------------------------------------ *)

let registry : (Router.t * t) list ref = ref []
let registry_lock = Mutex.create ()

let find router =
  Mutex.lock registry_lock;
  let r = List.find_opt (fun (rt, _) -> rt == router) !registry in
  Mutex.unlock registry_lock;
  Option.map snd r

let register t =
  Mutex.lock registry_lock;
  registry := (t.router, t) :: List.filter (fun (rt, _) -> rt != t.router) !registry;
  Mutex.unlock registry_lock

let deregister t =
  Mutex.lock registry_lock;
  registry := List.filter (fun (_, e) -> e != t) !registry;
  Mutex.unlock registry_lock

(* --- worker loop ---------------------------------------------------- *)

let worker_loop t i =
  let shard = t.shard_tbl.(i) in
  let ctx = Shard.ctx shard in
  let rx = t.rx.(i) and tx = t.tx.(i) in
  let busy = t.busy.(i) in
  let rx_count = t.shard_rx.(i) and tx_drops = t.tx_ring_drops.(i) in
  let scratch = Array.make Domain_ctx.batch Mbuf.dummy in
  let cycles = Cost.meter () in
  (* A lost result whose packet still had a router-owned stage to run
     ends here, so its drop is counted here; a settled or ICMP-error
     result counted its drop when it settled.  Its fault events ride
     the next result. *)
  let emit m verdict handoff =
    if Spsc.room tx > 0 then
      Shard.fill (Spsc.stage_next tx) ctx m verdict handoff
    else begin
      Rp_obs.Counter.inc tx_drops;
      match handoff with
      | Ip_core.Local | Ip_core.Egress _ ->
        Rp_obs.Drop_reason.count Rp_obs.Drop_reason.Tx_ring_overflow
      | Ip_core.Settled | Ip_core.Icmp_error _ -> ()
    end
  in
  let running = ref true in
  while !running do
    if Spsc.is_empty rx then begin
      (* Pick up a new snapshot generation even when idle, so control
         waits ([synced]) terminate without traffic. *)
      Shard.sync shard (Atomic.get t.snapshot);
      if Atomic.get t.stop_flag then running := false else Domain.cpu_relax ()
    end
    else begin
      (* Busy before the pop empties the ring, so [idle] never sees an
         empty ring while a popped batch is still in flight. *)
      Atomic.set busy true;
      let n = Spsc.pop_batch rx ~max:Domain_ctx.batch scratch in
      (* Sync after the pop: [submit] published before pushing these
         packets, so they run with every change made before them. *)
      Shard.sync shard (Atomic.get t.snapshot);
      Rp_obs.Counter.add rx_count n;
      Rp_obs.Histogram.observe t.batch_hist n;
      let c0 = !cycles in
      Ip_core.run ctx ~now:0L scratch ~n ~emit;
      (* The batch is one frame: its results publish with one store. *)
      Spsc.publish tx;
      Array.fill scratch 0 n Mbuf.dummy;
      Shard.add_cycles shard (!cycles - c0);
      Atomic.set busy false
    end
  done

(* --- the control domain's data path ---------------------------------- *)

(* Serve the interfaces the data path queued onto since the last call
   (a packet's own egress, and any ICMP error or echo reply the router
   originated on the way), each through its transmitter. *)
let transmit t ~now =
  let ifaces = t.router.Router.ifaces in
  for i = 0 to Array.length ifaces - 1 do
    if Iface.take_queued ifaces.(i) then t.transmitters.(i) ~now
  done

(* One packet of the inline data path to the result ring, after the
   engine served the interfaces it queued onto; [submit_batch] made
   room for it. *)
let emit_inline t m verdict handoff =
  transmit t ~now:t.now;
  Shard.fill (Spsc.stage_next t.tx.(0)) t.router.Router.ctx m verdict handoff

(* Finish one result on the control domain, in place: apply its fault
   events to the PCU, then run whatever router-owned stage the shard
   handed back (an inline result is always settled). *)
let finish t (r : Shard.result) =
  if r.Shard.faults <> [] then begin
    List.iter (Ip_core.apply_event t.router) r.Shard.faults;
    r.Shard.faults <- []
  end;
  let m = r.Shard.m in
  match r.Shard.handoff with
  | Ip_core.Settled -> ()
  | Ip_core.Icmp_error message ->
    let now = m.Mbuf.birth_ns in
    Ip_core.icmp_error t.router ~now m message;
    transmit t ~now;
    r.Shard.handoff <- Ip_core.Settled
  | h ->
    let now = m.Mbuf.birth_ns in
    let verdict = Ip_core.resume t.router ~now m h in
    transmit t ~now;
    r.Shard.outcome <- Shard.outcome_of verdict;
    r.Shard.handoff <- Ip_core.Settled

(* One result to the running [drain]'s [f]; its slot then lets go of
   the packet and is left settled, as [Shard.fill] expects, also when
   [finish] or [f] raises. *)
let deliver t r =
  t.drained <- t.drained + 1;
  match
    finish t r;
    t.sink r
  with
  | () -> r.Shard.m <- Mbuf.dummy
  | exception e ->
    r.Shard.m <- Mbuf.dummy;
    r.Shard.faults <- [];
    r.Shard.handoff <- Ip_core.Settled;
    raise e

(* --- construction --------------------------------------------------- *)

let create ?(rx_capacity = 1024) ?(tx_capacity = 2048) mode router =
  (match mode with
   | Sharded n when n < 1 -> invalid_arg "Engine.create: Sharded n < 1"
   | _ -> ());
  let snap = Snapshot.capture ~gen:0 router in
  let n = match mode with Inline -> 0 | Sharded n -> n in
  let t =
    {
      mode;
      router;
      snapshot = Atomic.make snap;
      shard_tbl = Array.init n (fun i -> Shard.create ~index:i snap);
      rx =
        Array.init n (fun _ ->
            Spsc.create ~capacity:rx_capacity ~dummy:Mbuf.dummy);
      tx =
        Array.init (max n 1) (fun _ ->
            Spsc.create_slots ~capacity:tx_capacity ~make:Shard.blank);
      busy = Array.init n (fun _ -> Atomic.make false);
      shard_rx =
        Array.init n (fun i ->
            Rp_obs.Registry.counter (Printf.sprintf "engine.shard%d.rx" i));
      tx_ring_drops =
        Array.init n (fun i ->
            Rp_obs.Registry.counter
              (Printf.sprintf "engine.shard%d.tx_ring_drops" i));
      stop_flag = Atomic.make false;
      domains = [||];
      m_submitted = Rp_obs.Registry.counter "engine.submitted";
      m_bp_drops = Rp_obs.Registry.counter "engine.backpressure_drops";
      m_drained = Rp_obs.Registry.counter "engine.drained";
      batch_hist =
        Rp_obs.Registry.histogram ~bounds:[| 1; 2; 4; 8; 16; 32 |]
          "engine.batch_size";
      stopped = false;
      pending = [];
      overflow = false;
      delta_log = [];
      m_publishes = Rp_obs.Registry.counter "engine.publishes";
      m_delta_publishes = Rp_obs.Registry.counter "engine.delta_publishes";
      rss = Flow_key.hash;
      transmitters =
        Array.map (fun ifc ~now -> Iface.drop_queued ifc ~now) router.Router.ifaces;
      now = 0L;
      emit = (fun _ _ _ -> ());
      sink = ignore;
      drained = 0;
      deliver = ignore;
    }
  in
  t.emit <- emit_inline t;
  t.deliver <- deliver t;
  (* Observe every control-path AIU mutation so publications can carry
     it as a delta instead of forcing shard recompiles.  The gen-0
     snapshot above already reflects the AIU, so recording starts
     only now. *)
  Rp_classifier.Aiu.set_listener (Router.aiu router) (fun ev ->
      t.pending <-
        (match ev with
         | Rp_classifier.Aiu.Bound (gate, f, inst) -> Snapshot.Bind (gate, f, inst)
         | Rp_classifier.Aiu.Unbound (gate, f) -> Snapshot.Unbind (gate, f)
         | Rp_classifier.Aiu.Flushed -> Snapshot.Flush)
        :: t.pending;
      if List.length t.pending > backlog then begin
        (* More outstanding mutations than any shard could replay from
           the bounded log: give up on the chain now and let the next
           publication recompile. *)
        t.pending <- [];
        t.overflow <- true
      end);
  Rp_obs.Registry.gauge "engine.shards" (fun () ->
      float_of_int (shards t));
  Rp_obs.Registry.gauge "engine.generation" (fun () ->
      float_of_int (generation t));
  (* Per-shard ring depths, plus health probes: sampled by the
     binaries' report loops, they keep a high-water mark, so a ring that
     spiked between two metric dumps is still visible.  Registration
     replaces by name — a re-created engine takes them over. *)
  Array.iteri
    (fun i rx ->
      let tx = t.tx.(i) and name = Printf.sprintf "engine.shard%d.%s" i in
      let depth ring () = float_of_int (Spsc.length ring) in
      let pct ring () = 100. *. depth ring () /. float_of_int (Spsc.capacity ring) in
      Rp_obs.Registry.gauge (name "rx_depth") (depth rx);
      Rp_obs.Registry.gauge (name "tx_depth") (depth tx);
      Rp_obs.Health.register (name "rx_pct") (pct rx);
      Rp_obs.Health.register (name "tx_pct") (pct tx))
    t.rx;
  Rp_obs.Health.register "engine.delta_backlog" (fun () ->
      float_of_int (List.length t.pending));
  Rp_obs.Health.register "engine.quarantined" (fun () ->
      float_of_int
        (List.length
           (List.filter
              (fun f -> f.Pcu.quarantined)
              (Pcu.fault_report router.Router.pcu))));
  t.domains <-
    Array.init n (fun i -> Domain.spawn (fun () -> worker_loop t i));
  register t;
  t

(* --- control-domain operations -------------------------------------- *)

let rec list_drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> list_drop (n - 1) tl

(* Publish the router's control state as a new generation.  With an
   intact chain, the pending mutations are stamped with consecutive
   generations, appended to the log (trimmed to the newest [backlog]
   entries) and shipped with the snapshot, so shards at most [backlog]
   generations behind replay instead of recompiling.  A publication
   with nothing pending ships a single [Refresh] delta — shards pick up
   routes, the control record and the classifier mode without touching
   their classifier or flow cache. *)
let publish t =
  Rp_obs.Counter.inc t.m_publishes;
  let base = generation t in
  if t.overflow then begin
    (* A bare snapshot with an empty log: every shard recompiles. *)
    t.pending <- [];
    t.overflow <- false;
    t.delta_log <- [];
    Atomic.set t.snapshot (Snapshot.capture ~gen:(base + 1) t.router)
  end
  else begin
    let ds =
      match List.rev t.pending with [] -> [ Snapshot.Refresh ] | ds -> ds
    in
    t.pending <- [];
    let stamped = List.mapi (fun i d -> (base + 1 + i, d)) ds in
    let gen = base + List.length ds in
    let log = t.delta_log @ stamped in
    let log = list_drop (List.length log - backlog) log in
    t.delta_log <- log;
    Atomic.set t.snapshot (Snapshot.capture ~gen ~deltas:log t.router);
    Rp_obs.Counter.inc t.m_delta_publishes
  end

(* Publish whatever changed since the last publication — pending AIU
   mutations, the route table, the router's control record, the
   classifier mode — so what runs next sees it.  A no-op otherwise. *)
let publish_changes t =
  if t.pending <> [] || t.overflow || not (Snapshot.current (Atomic.get t.snapshot) t.router)
  then publish t

let snapshot t =
  publish_changes t;
  Atomic.get t.snapshot

(* Trivially true inline: there are no shards, RX rings or workers. *)
let synced t =
  publish_changes t;
  let gen = generation t in
  Array.for_all (fun s -> Shard.seen_gen s = gen) t.shard_tbl

let idle t =
  Array.for_all Spsc.is_empty t.rx
  && Array.for_all (fun b -> not (Atomic.get b)) t.busy

let shard_cycles t i =
  match t.mode with Inline -> Cost.get () | Sharded _ -> Shard.cycles t.shard_tbl.(i)

let refuse t k =
  if k > 0 then begin
    Rp_obs.Counter.add t.m_bp_drops k;
    Rp_obs.Drop_reason.add Rp_obs.Drop_reason.Backpressure k
  end

let set_transmitter t ~iface f = t.transmitters.(iface) <- f

(* One packet to its shard's RX ring.  The packet is counted as
   received by its interface before the push hands it to the worker;
   the room check first makes the push certain, since only this domain
   pushes.  The caller adds the accepted packets to the process-wide
   totals ([accept]). *)
let push t ~now m =
  let ring = t.rx.(shard_of_key t m.Mbuf.key) in
  if Spsc.length ring >= Spsc.capacity ring then begin
    refuse t 1;
    false
  end
  else begin
    m.Mbuf.birth_ns <- now;
    Iface.note_rx (Router.iface t.router m.Mbuf.key.Flow_key.iface) m;
    ignore (Spsc.push ring m);
    true
  end

let accept t ~packets ~bytes =
  if packets > 0 then begin
    Rp_obs.Counter.add t.m_submitted packets;
    Iface.add_rx ~packets ~bytes
  end

(* Batched submission.  Inline: one gate-major [Ip_core.run] on the
   router's context over as many packets as the result ring has room
   for, their results staged into the ring and published with one
   store; the rest are refused exactly as a full shard RX ring refuses
   them.  Sharded: publish first, then per-packet pushes — packets of
   one batch hash to different shards; the batching win there is on
   the worker side. *)
let submit_batch t ~now batch ~n =
  if n < 0 || n > Array.length batch then
    invalid_arg "Engine.submit_batch: n out of range";
  match t.mode with
  | Inline ->
    let ring = t.tx.(0) in
    let k = min n (Spsc.room ring) in
    for i = 0 to k - 1 do
      batch.(i).Mbuf.birth_ns <- now
    done;
    if k > 0 then begin
      Rp_obs.Counter.add t.m_submitted k;
      t.now <- now;
      match Ip_core.run t.router.Router.ctx ~now batch ~n:k ~emit:t.emit with
      | () -> Spsc.publish ring
      | exception e ->
        Spsc.publish ring;
        raise e
    end;
    refuse t (n - k);
    k
  | Sharded _ ->
    publish_changes t;
    let accepted = ref 0 and bytes = ref 0 in
    for i = 0 to n - 1 do
      let m = batch.(i) in
      if push t ~now m then begin
        incr accepted;
        bytes := !bytes + m.Mbuf.len
      end
    done;
    accept t ~packets:!accepted ~bytes:!bytes;
    !accepted

let submit t ~now m =
  match t.mode with
  | Inline -> submit_batch t ~now [| m |] ~n:1 = 1
  | Sharded _ ->
    publish_changes t;
    let ok = push t ~now m in
    if ok then accept t ~packets:1 ~bytes:m.Mbuf.len;
    ok

(* Each ring's head moves once per call, past the results handed to
   [f] (see [Spsc.consume]); [engine.drained] takes one add per call,
   also when [f] raises. *)
let drain ?(max = max_int) t ~f =
  t.sink <- f;
  t.drained <- 0;
  (match
     for i = 0 to Array.length t.tx - 1 do
       if t.drained < max then
         ignore (Spsc.consume t.tx.(i) ~max:(max - t.drained) t.deliver)
     done
   with
   | () -> Rp_obs.Counter.add t.m_drained t.drained
   | exception e ->
     Rp_obs.Counter.add t.m_drained t.drained;
     t.sink <- ignore;
     raise e);
  t.sink <- ignore;
  t.drained

let flush t ~f =
  let total = ref 0 in
  let quiet = ref 0 in
  (* Two consecutive quiet passes over an idle engine: the first can
     race a worker finishing its last batch, the second cannot. *)
  while !quiet < 2 do
    let n = drain t ~f in
    total := !total + n;
    if n = 0 && idle t then incr quiet else quiet := 0;
    if !quiet < 2 then Domain.cpu_relax ()
  done;
  !total

let stats_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "engine: mode=%s gen=%d synced=%b\n" (mode_to_string t.mode)
       (generation t) (synced t));
  Buffer.add_string b
    (Printf.sprintf "  submitted=%d drained=%d backpressure_drops=%d\n"
       (Rp_obs.Counter.get t.m_submitted)
       (Rp_obs.Counter.get t.m_drained)
       (Rp_obs.Counter.get t.m_bp_drops));
  Buffer.add_string b
    (Printf.sprintf "  pending=%d publishes=%d delta_publishes=%d\n"
       (List.length t.pending)
       (Rp_obs.Counter.get t.m_publishes)
       (Rp_obs.Counter.get t.m_delta_publishes));
  Array.iteri
    (fun i shard ->
      let g suffix =
        Rp_obs.Counter.get
          (Rp_obs.Registry.counter (Printf.sprintf "engine.shard%d.%s" i suffix))
      in
      Buffer.add_string b
        (Printf.sprintf
           "  shard%d: rx=%d cycles=%d rx_depth=%d tx_depth=%d \
            flow_flushes=%d delta_applies=%d tx_ring_drops=%d\n"
           i
           (Rp_obs.Counter.get t.shard_rx.(i))
           (Shard.cycles shard)
           (Spsc.length t.rx.(i))
           (Spsc.length t.tx.(i))
           (g "flow_flushes") (g "delta_applies") (g "tx_ring_drops")))
    t.shard_tbl;
  Buffer.contents b

(* Every flow cache the engine owns: the router's own (inline mode, or
   the control domain's classifications) and each shard's private one.
   Shard tables are domain-private, so the operations below must only
   run while the workers are idle (drained) or stopped — e.g. right
   before/after [stop], or after a [flush] returned with no backlog.
   The fig-zipf soak expires during its idle pauses to keep
   arrival/expiry churning at million-flow scale. *)
let aius t =
  Router.aiu t.router
  :: List.map (fun s -> (Shard.ctx s).Domain_ctx.aiu) (Array.to_list t.shard_tbl)

let flush_flows t = List.iter Rp_classifier.Aiu.flush_flows (aius t)

let expire_flows t ~now ~idle_ns =
  List.fold_left
    (fun n aiu -> n + Rp_classifier.Aiu.expire_flows aiu ~now ~idle_ns)
    0 (aius t)

let flow_table t i =
  Rp_classifier.Aiu.flow_table
    (match t.mode with
     | Inline -> Router.aiu t.router
     | Sharded _ -> (Shard.ctx t.shard_tbl.(i)).Domain_ctx.aiu)

let shard_flow_keys t i =
  let keys = ref [] in
  Rp_classifier.Flow_table.iter
    (fun r -> keys := Rp_classifier.Flow_table.key r :: !keys)
    (flow_table t i);
  !keys

let shard_flow_count t i = Rp_classifier.Flow_table.length (flow_table t i)
let shard_flow_stats t i = Rp_classifier.Flow_table.stats (flow_table t i)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Rp_classifier.Aiu.clear_listener (Router.aiu t.router);
    Atomic.set t.stop_flag true;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    deregister t
  end
