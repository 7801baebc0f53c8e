(* Every bench gate in one typed list.  [bench/main.exe] checks the
   gates of the sections it ran against the in-process metric
   registry, prints one ok/FAIL line per gate and exits 1 when any
   fails (see EXPERIMENTS.md for what each figure means).

   Table 3 is pinned once, exactly: its four kernels are pure
   cost-model arithmetic, so any drift — from a cost-model change or
   from a figure run earlier in the same process perturbing shared
   state — is a regression.  CI runs table3 last, after every gated
   figure, and again traced (--trace-sample 1), against these pins. *)

type op = Ge | Le | Eq | Lt

type rhs =
  | Const of float
  | Metric of string * float  (** another metric plus a constant offset *)

type t = { section : string; metric : string; op : op; rhs : rhs }

let gates section l =
  List.map (fun (metric, op, rhs) -> { section; metric; op; rhs }) l

let other ?(plus = 0.) metric = Metric (metric, plus)

let all =
  List.concat
    [
      gates "table2"
        [
          ("bench.table2.ipv4.worst_accesses", Le, Const 20.);
          ("bench.table2.ipv6.worst_accesses", Le, Const 24.);
        ];
      (* Printed with %.17g from the calibrated P6/233 model. *)
      gates "table3"
        [
          ("bench.table3.best_effort.cycles", Eq, Const 6460.);
          ("bench.table3.plugins_3gates.cycles", Eq, Const 6955.3149999999996);
          ("bench.table3.monolithic_drr.cycles", Eq, Const 8160.);
          ("bench.table3.plugins_drr.cycles", Eq, Const 8105.1750000000002);
          (* per-flow DRR state is bounded by the backlog *)
          ( "bench.table3.monolithic_drr.drr_queues",
            Le,
            other "bench.table3.monolithic_drr.drr_backlog" );
        ];
      (* Model-cycle speedup (busiest shard), so it holds on any core
         count. *)
      gates "fig-shard"
        [
          ("bench.fig_shard.domains1.mpps", Ge, Const 0.001);
          ("bench.fig_shard.domains4.mpps", Ge, Const 0.001);
          ("bench.fig_shard.speedup_4v1", Ge, Const 2.);
        ];
      gates "fig-churn"
        [
          ("bench.churn.inline.updates_per_s", Ge, Const 1.);
          ("bench.churn.sharded4.delta.updates_per_s", Ge, Const 1.);
          ("bench.churn.sharded4.full.updates_per_s", Ge, Const 1.);
          ("bench.churn.delta_speedup_4", Ge, Const 10.);
        ];
      (* The inline steady Mpps is 233 MHz over Table 3's 3-gate
         cycles, so the table3 pin covers it.  Sharded packets are
         genuinely in flight, so some pool starvation is expected
         backpressure; inline must never starve.  Inline, pooled
         descriptors cross submit_batch + drain with no allocation at
         all, on cached flows and on the cold run's new flows alike. *)
      gates "fig-batch"
        [
          ("bench.fig_batch.inline.words_per_pkt", Le, Const 0.05);
          ("bench.fig_batch.inline_cold.words_per_pkt", Le, Const 0.05);
          ("bench.fig_batch.sharded4.steady_mpps", Ge, Const 0.02);
          ("bench.fig_batch.inline.pool_exhausted", Le, Const 0.);
          ("bench.fig_batch.sharded4.pool_exhausted", Le, Const 2000.);
          ("bench.fig_batch.inline.rows", Ge, Const 10.);
          ("bench.fig_batch.sharded4.rows", Ge, Const 10.);
          ("bench.fig_batch.inline.generated", Ge, Const 30000.);
          ("bench.fig_batch.sharded4.generated", Ge, Const 30000.);
        ];
      (* Compiled cold starts walk once instead of once per gate, and
         the walk's cost does not depend on how many gates share it. *)
      gates "fig-coldstart"
        [
          ( "bench.fig_coldstart.inline.compiled.cold_accesses_per_walk",
            Lt,
            other "bench.fig_coldstart.inline.pergate.cold_accesses_per_walk" );
          ( "bench.fig_coldstart.sharded4.compiled.cold_accesses_per_walk",
            Lt,
            other "bench.fig_coldstart.sharded4.pergate.cold_accesses_per_walk"
          );
          ("bench.fig_coldstart.inline.pergate.full_walks", Ge, Const 4000.);
          ("bench.fig_coldstart.inline.compiled.full_walks", Ge, Const 4000.);
          ("bench.fig_coldstart.sharded4.pergate.full_walks", Ge, Const 4000.);
          ("bench.fig_coldstart.sharded4.compiled.full_walks", Ge, Const 4000.);
          ( "bench.fig_coldstart.micro.compiled_g2",
            Eq,
            other "bench.fig_coldstart.micro.compiled_g8" );
          ( "bench.fig_coldstart.micro.pergate_g2",
            Lt,
            other "bench.fig_coldstart.micro.pergate_g8" );
        ];
      (* The simulated link shares are deterministic: weighted DRR
         holds each flow within 3 points of its 1:1:2:4 share (1/8,
         1/8, 2/8, 4/8), and H-FSC's real-time curve gives voice its
         full 64 kb/s within a millisecond, although its link share
         is 10%. *)
      gates "fig-drr"
        [
          ("bench.fig_drr.flow1.share", Ge, Const 0.095);
          ("bench.fig_drr.flow1.share", Le, Const 0.155);
          ("bench.fig_drr.flow2.share", Ge, Const 0.095);
          ("bench.fig_drr.flow2.share", Le, Const 0.155);
          ("bench.fig_drr.flow3.share", Ge, Const 0.22);
          ("bench.fig_drr.flow3.share", Le, Const 0.28);
          ("bench.fig_drr.flow4.share", Ge, Const 0.47);
          ("bench.fig_drr.flow4.share", Le, Const 0.53);
        ];
      gates "fig-hfsc"
        [
          ("bench.fig_hfsc.voice.goodput_mbps", Ge, Const 0.063);
          ("bench.fig_hfsc.voice.max_latency_ms", Le, Const 1.);
          ( "bench.fig_hfsc.data.goodput_mbps",
            Ge,
            other "bench.fig_hfsc.bulk.goodput_mbps" );
        ];
      (* NAT + conntrack + QoS ride on at most one charged access over
         the bare FIX path, with no steady-state table lookups. *)
      gates "fig-session"
        [
          ( "bench.fig_session.cached.steady_accesses_per_pkt",
            Le,
            other ~plus:1. "bench.fig_session.fix.steady_accesses_per_pkt" );
          ("bench.fig_session.cached.steady_table_lookups", Le, Const 0.);
          ( "bench.fig_session.cached.steady_accesses_per_pkt",
            Lt,
            other "bench.fig_session.nocache.steady_accesses_per_pkt" );
          ("bench.fig_session.cached.cached_hits_per_pkt", Ge, Const 1.97);
          ("bench.fig_session.cached.cached_hits_per_pkt", Le, Const 2.03);
        ];
      (* Latency is in model cycles, so the bounds are host-independent;
         SLO stamping only reads the cost-model clock. *)
      gates "fig-latency"
        [
          ("bench.latency.inline.p50", Ge, Const 1.);
          ("bench.latency.inline.p99", Le, Const 12000.);
          ("bench.latency.sharded4.max_p99", Le, Const 12000.);
          ("bench.latency.sharded4.shards", Ge, Const 2.);
          ("bench.latency.exemplars", Ge, Const 1.);
          ( "bench.latency.t3_on_cycles",
            Eq,
            other "bench.latency.t3_off_cycles" );
        ];
      (* A million sustained flows with real arrival and expiry churn,
         exact export reconciliation, short probe runs, and a bounded
         table that degrades by recycling. *)
      gates "fig-zipf"
        [
          ("bench.fig_zipf.high_water_flows", Ge, Const 1e6);
          ("bench.fig_zipf.min_sustained_flows", Ge, Const 1e6);
          ("bench.fig_zipf.sim_seconds", Ge, Const 120.);
          ("bench.fig_zipf.steady_mpps", Ge, Const 0.05);
          ("bench.fig_zipf.p99_setup_cycles", Ge, Const 1000.);
          ("bench.fig_zipf.p99_setup_cycles", Le, Const 500000.);
          ("bench.fig_zipf.chain_max", Le, Const 128.);
          ("bench.fig_zipf.arrivals", Ge, Const 1000.);
          ("bench.fig_zipf.expired", Ge, Const 1000.);
          (* expiry visits what is due, not every live flow a pass *)
          ("bench.fig_zipf.expiry_visits_per_flow", Le, Const 2.);
          ("bench.fig_zipf.recon_packets", Eq, Const 0.);
          ("bench.fig_zipf.recon_bytes", Eq, Const 0.);
          ("bench.fig_zipf.lost_packets", Eq, Const 0.);
          ("bench.fig_zipf.storm.capacity", Eq, Const 65536.);
          ("bench.fig_zipf.storm.recycled", Eq, Const 65536.);
        ];
    ]

(* A bench figure's value, read straight from the registry, so a
   non-finite gauge is seen as such rather than as its JSON "0". *)
let value name =
  match Rp_obs.Registry.find name with
  | Some (Rp_obs.Registry.Gauge g) -> Some (Rp_obs.Gauge.read g)
  | _ -> None

(* A decimal that reads back exactly as [v]. *)
let exact v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let short v = Printf.sprintf "%.10g" v

let op_str = function Ge -> ">=" | Le -> "<=" | Eq -> "=" | Lt -> "<"

let holds op a b =
  match op with Ge -> a >= b | Le -> a <= b | Eq -> a = b | Lt -> a < b

let rhs_str = function
  | Const c -> exact c
  | Metric (name, 0.) -> name
  | Metric (name, plus) -> Printf.sprintf "%s + %s" name (exact plus)

(* [check g] is [Ok line] when [g] holds, [Error line] otherwise.  A
   missing or non-finite value on either side fails.  A failing line
   shows its values exactly, so an [=] miss is visible. *)
let check g =
  let read name =
    match value name with
    | Some v when Float.is_finite v -> Ok v
    | Some v -> Error (Printf.sprintf "%s = %s" name (exact v))
    | None -> Error (name ^ " missing")
  in
  let bound =
    match g.rhs with
    | Const c -> Ok c
    | Metric (name, plus) -> Result.map (fun v -> v +. plus) (read name)
  in
  match (read g.metric, bound) with
  | Ok v, Ok b ->
    let ok = holds g.op v b in
    let num = if ok then short else exact in
    let shown =
      match g.rhs with
      | Const _ -> rhs_str g.rhs
      | Metric _ -> Printf.sprintf "%s = %s" (rhs_str g.rhs) (num b)
    in
    let line =
      Printf.sprintf "%s = %s (%s %s)" g.metric (num v) (op_str g.op) shown
    in
    if ok then Ok line else Error line
  | Error e, _ | _, Error e ->
    Error
      (Printf.sprintf "%s %s %s: %s" g.metric (op_str g.op) (rhs_str g.rhs) e)

(* Check the gates of [sections], printing one line per gate; the
   failed lines, in order. *)
let run ~sections =
  List.filter_map
    (fun g ->
      if not (List.mem g.section sections) then None
      else
        match check g with
        | Ok line ->
          Printf.printf "ok   %s\n" line;
          None
        | Error line ->
          Printf.printf "FAIL %s\n" line;
          Some line)
    all
