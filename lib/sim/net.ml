open Rp_pkt
open Rp_core
module Engine = Rp_engine.Engine

type node = {
  sim : Sim.t;
  rtr : Router.t;
  engine : Engine.t;
  links : link option array;  (** by out iface *)
  busy : bool array;
  mutable received : int;
  mutable cycles : int;
  mutable in_flight : int;  (** submitted since the last [settle] *)
}

and link = {
  dest : endpoint;
  prop_ns : int64;
}

and endpoint =
  | To_node of node * int
  | To_sink of Sink.t

let add_router ?(engine = Engine.Inline) sim rtr =
  let n = Array.length rtr.Router.ifaces in
  {
    sim;
    rtr;
    engine = Engine.create engine rtr;
    links = Array.make n None;
    busy = Array.make n false;
    received = 0;
    cycles = 0;
    in_flight = 0;
  }

let router node = node.rtr
let engine node = node.engine
let received node = node.received

let tx_time_ns ifc len =
  let bits = Int64.of_int (len * 8) in
  Int64.div (Int64.mul bits 1_000_000_000L) ifc.Iface.bandwidth_bps

(* A sharded engine's results are settled once per simulated instant,
   or after this many submissions, whichever comes first: a bound
   well inside the RX rings, so no arrival is refused. *)
let settle_bound = 256

(* Serve the link on [out] while there is backlog.  The dequeue's
   cycles are charged to the node by whoever called: [receive] and
   [settle] meter their whole call, a finished transmission meters its
   own kick. *)
let rec kick node out =
  if not node.busy.(out) then begin
    let ifc = Router.iface node.rtr out in
    let m = Iface.pull ifc ~now:(Sim.now node.sim) in
    if m != Mbuf.dummy then begin
      node.busy.(out) <- true;
      let ser = tx_time_ns ifc m.Mbuf.len in
      Sim.after node.sim ser (fun () ->
          Iface.count_tx ifc m;
          node.busy.(out) <- false;
          (match node.links.(out) with
           | Some link ->
             Sim.after node.sim link.prop_ns (fun () -> deliver node link.dest m)
           | None -> ());
          let c0 = Cost.get () in
          kick node out;
          node.cycles <- node.cycles + Cost.get () - c0)
    end
  end

and deliver node dest m =
  match dest with
  | To_sink sink -> Sink.receive sink ~now:(Sim.now node.sim) m
  | To_node (peer, in_iface) ->
    (* Entering a new router: the FIX is meaningless there, and the
       six-tuple's incoming interface changes. *)
    m.Mbuf.fix <- Mbuf.no_fix;
    m.Mbuf.key <- { m.Mbuf.key with Flow_key.iface = in_iface };
    receive peer m

(* Inline, the packet has run by the time [submit] returns, so it
   settles at once.  Sharded, it settles with the instant's other
   arrivals, in an event after them. *)
and receive node m =
  let now = Sim.now node.sim in
  node.received <- node.received + 1;
  let c0 = Cost.get () in
  ignore (Engine.submit node.engine ~now m);
  node.cycles <- node.cycles + Cost.get () - c0;
  node.in_flight <- node.in_flight + 1;
  match Engine.mode node.engine with
  | Engine.Inline -> settle node
  | Engine.Sharded _ ->
    if node.in_flight >= settle_bound then settle node
    else if node.in_flight = 1 then Sim.at node.sim now (fun () -> settle node)

(* Wait until no packet is in flight, then take every result: the
   rings drain in shard order, each in submission order, so a run is
   deterministic.  Finishing a result runs its router-owned stages,
   and the engine serves the interfaces they queued onto.  Then every
   linked interface is served, as after any packet. *)
and settle node =
  let c0 = Cost.get () in
  while not (Engine.idle node.engine) do
    Domain.cpu_relax ()
  done;
  ignore (Engine.drain node.engine ~f:ignore);
  node.in_flight <- 0;
  Array.iteri (fun out link -> if Option.is_some link then kick node out) node.links;
  node.cycles <- node.cycles + Cost.get () - c0

let connect node ~iface endpoint ~prop_ns =
  if iface < 0 || iface >= Array.length node.links then
    invalid_arg "Net.connect: no such interface";
  node.links.(iface) <- Some { dest = endpoint; prop_ns };
  Engine.set_transmitter node.engine ~iface (fun ~now:_ -> kick node iface)

let inject node m ~at = Sim.at node.sim at (fun () -> receive node m)

(* A sharded engine's workers charge their own meters; the node's
   share is what its engine's shards charged in all. *)
let cycles_per_packet node =
  if node.received = 0 then 0.0
  else
    let shards =
      match Engine.mode node.engine with
      | Engine.Inline -> 0
      | Engine.Sharded n ->
        List.fold_left ( + ) 0 (List.init n (Engine.shard_cycles node.engine))
    in
    float_of_int (node.cycles + shards) /. float_of_int node.received
