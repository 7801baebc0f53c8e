open Rp_pkt

type counters = {
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable drops : int;
}

(* Aggregated over all interfaces; the per-interface [counters] record
   stays the precise view.  "sched.drops" counts qdisc rejections,
   "iface.fifo.drops" the default FIFO's tail drops — together they
   are every output-queue drop in the system. *)
let m_rx_packets = Rp_obs.Registry.counter "iface.rx_packets"
let m_rx_bytes = Rp_obs.Registry.counter "iface.rx_bytes"
let m_tx_packets = Rp_obs.Registry.counter "iface.tx_packets"
let m_tx_bytes = Rp_obs.Registry.counter "iface.tx_bytes"
let m_fifo_drops = Rp_obs.Registry.counter "iface.fifo.drops"
let m_sched_drops = Rp_obs.Registry.counter "sched.drops"

type t = {
  id : int;
  name : string;
  mtu : int;
  bandwidth_bps : int64;
  fifo : Mbuf.t Ring.t;
  mutable qdisc : Plugin.t option;
  counters : counters;
  mutable up : bool;
  mutable queued : bool;
}

let create ?name ?(mtu = 9180) ?(bandwidth_bps = 155_000_000L)
    ?(fifo_limit = 512) ~id () =
  if fifo_limit < 1 then invalid_arg "Iface.create: fifo_limit < 1";
  {
    id;
    name = (match name with Some n -> n | None -> Printf.sprintf "if%d" id);
    mtu;
    bandwidth_bps;
    fifo = Ring.create ~limit:fifo_limit ~dummy:Mbuf.dummy ();
    qdisc = None;
    counters =
      { rx_packets = 0; rx_bytes = 0; tx_packets = 0; tx_bytes = 0; drops = 0 };
    up = true;
    queued = false;
  }

let attach_scheduler t inst =
  match inst.Plugin.scheduler with
  | None -> invalid_arg "Iface.attach_scheduler: instance has no scheduler"
  | Some _ -> t.qdisc <- Some inst

let detach_scheduler t = t.qdisc <- None

let enqueue t ~now ~binding m =
  match t.qdisc with
  | Some inst ->
    (match inst.Plugin.scheduler with
     | Some s ->
       (match s.Plugin.enqueue ~now m binding with
        | Plugin.Enqueued ->
          t.queued <- true;
          true
        | Plugin.Rejected _ ->
          t.counters.drops <- t.counters.drops + 1;
          Rp_obs.Counter.inc m_sched_drops;
          false)
     | None ->
       (* attach_scheduler guarantees this cannot happen *)
       assert false)
  | None ->
    if Ring.push t.fifo m then begin
      t.queued <- true;
      true
    end
    else begin
      t.counters.drops <- t.counters.drops + 1;
      Rp_obs.Counter.inc m_fifo_drops;
      false
    end

let pull t ~now =
  match t.qdisc with
  | Some inst ->
    (match inst.Plugin.scheduler with
     | Some s -> s.Plugin.dequeue ~now
     | None -> assert false)
  | None -> if Ring.is_empty t.fifo then Mbuf.dummy else Ring.pop t.fifo

let dequeue t ~now =
  let m = pull t ~now in
  if m == Mbuf.dummy then None else Some m

let drop_queued t ~now =
  match t.qdisc with
  | None -> Ring.clear t.fifo
  | Some _ ->
    while pull t ~now != Mbuf.dummy do
      ()
    done

let take_queued t =
  let q = t.queued in
  t.queued <- false;
  q

let backlog t =
  match t.qdisc with
  | Some inst ->
    (match inst.Plugin.scheduler with
     | Some s -> s.Plugin.backlog ()
     | None -> assert false)
  | None -> Ring.length t.fifo

let count_tx t m =
  t.counters.tx_packets <- t.counters.tx_packets + 1;
  t.counters.tx_bytes <- t.counters.tx_bytes + m.Mbuf.len;
  Rp_obs.Counter.inc m_tx_packets;
  Rp_obs.Counter.add m_tx_bytes m.Mbuf.len

let note_rx t m =
  t.counters.rx_packets <- t.counters.rx_packets + 1;
  t.counters.rx_bytes <- t.counters.rx_bytes + m.Mbuf.len

let add_rx ~packets ~bytes =
  Rp_obs.Counter.add m_rx_packets packets;
  Rp_obs.Counter.add m_rx_bytes bytes

let count_rx t m =
  note_rx t m;
  add_rx ~packets:1 ~bytes:m.Mbuf.len

let pp ppf t =
  Format.fprintf ppf "%s: rx %d/%dB tx %d/%dB drops %d backlog %d%s" t.name
    t.counters.rx_packets t.counters.rx_bytes t.counters.tx_packets
    t.counters.tx_bytes t.counters.drops (backlog t)
    (match t.qdisc with
     | Some i -> Printf.sprintf " qdisc=%s#%d" i.Plugin.plugin_name i.Plugin.instance_id
     | None -> " qdisc=fifo")
