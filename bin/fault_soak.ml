(* fault_soak — the fault-isolation soak scenario run by CI.

   Drives a single-router scenario through the simulator with the
   deterministic fault-injection plugin bound to all IPv4 traffic, in
   phases:

   1. a plugin that raises on every packet: the router must survive
      the whole run, auto-quarantine the instance after the
      consecutive-fault threshold, and keep forwarding the remaining
      traffic on the gate's default path;
   2. a plugin that burns cycles past the router's per-invocation
      budget: same containment, same quarantine;
   3. a plugin that raises on every second packet of one flow: each
      clean return resets the consecutive-fault run, so the instance
      must never be quarantined, and every drop must reconcile with its
      reason;
   4. clean traffic with sampled tracing on: the NetFlow-style flow
      records must reconcile exactly with the gate dispatch and
      flow-accounting counters; the trace and flow log are written out
      for CI to archive.

   Every phase runs on the inline engine.  With [--engine sharded N]
   every phase runs again on a sharded engine of N worker domains — the
   same scenario, clock and link — together with a sharded-only phase
   checking that a quarantine's unbinds travel the snapshot delta log.

   Exits 0 only if every assertion holds — "zero crashes and a clean
   quarantine". *)

open Rp_core

let failures = ref 0

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let check label ok =
  if ok then Printf.printf "ok   %s\n" label
  else begin
    Printf.printf "FAIL %s\n" label;
    incr failures
  end

(* Drop conservation under the unified taxonomy: every Dropped verdict
   lands under exactly one drops.by_reason.* counter, so the verdict
   reasons must sum to the dropped-verdict counter every domain writes,
   the family total must equal the sum over all reasons, and engine
   backpressure must be attributed to its reason.  (Registry.reset at
   phase start zeroes every counter, so these are absolute comparisons
   within the phase.) *)
let check_drop_conservation ~label =
  let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let sum reasons =
    List.fold_left (fun acc r -> acc + Rp_obs.Drop_reason.get r) 0 reasons
  in
  let verdict_drops = sum Rp_obs.Drop_reason.verdict_reasons in
  let engine_drops = counter "ip_core.dropped" in
  check
    (Printf.sprintf
       "%s: verdict drop reasons (%d) reconcile with engine drops (%d)" label
       verdict_drops engine_drops)
    (verdict_drops = engine_drops);
  check
    (Printf.sprintf "%s: drops.total (%d) = sum over reasons" label
       (Rp_obs.Drop_reason.total ()))
    (Rp_obs.Drop_reason.total () = sum Rp_obs.Drop_reason.all);
  check (label ^ ": backpressure drops attributed to their reason")
    (Rp_obs.Drop_reason.get Rp_obs.Drop_reason.Backpressure
     = counter "engine.backpressure_drops")

let setup_fault_plugin router fault_config =
  let script =
    String.concat "\n"
      [ "modload fault-firewall";
        "create fault-firewall " ^ fault_config;
        "bind 1 <*, *, UDP, *, *, *>" ]
  in
  match Rp_control.Pmgr.exec_script router script with
  | Ok _ -> ()
  | Error e ->
    Printf.printf "FAIL setup: %s\n" e;
    incr failures

(* [flows] CBR flows of [per_flow] 1000-byte UDP packets each, 500 pps
   per flow (32 flows fill 128 of the egress link's 155 Mb/s), starting
   1 ms from now; the simulation runs until every packet has left. *)
let pump (s : Rp_sim.Scenario.t) ~base ~flows ~per_flow =
  let start = Int64.add (Rp_sim.Sim.now s.sim) 1_000_000L in
  let stop = Int64.add start (Int64.of_int (per_flow * 2_000_000)) in
  for f = 0 to flows - 1 do
    ignore
      (Rp_sim.Scenario.add_flow s
         {
           Rp_sim.Traffic.key = Rp_sim.Scenario.sink_key ~id:(base + f) ();
           pkt_len = 1000;
           pattern = Rp_sim.Traffic.Cbr 500.0;
           start_ns = start;
           stop_ns = stop;
           seed = f;
         })
  done;
  ignore (Rp_sim.Sim.run ~until:(Int64.add stop 100_000_000L) s.sim)

let wait_synced e =
  let spins = ref 0 in
  while (not (Rp_engine.Engine.synced e)) && !spins < 100_000_000 do
    incr spins;
    Domain.cpu_relax ()
  done

(* One fault phase on either engine, through the simulator.  Faults
   are contained where the packet runs (on a worker domain, sharded)
   and attributed to the PCU as the engine drains.  Inline the count
   stops exactly at the quarantine threshold; sharded, more may land
   before every shard observes the quarantine, so there it is a lower
   bound.  After the quarantine, traffic must forward on the gate's
   default path; the engine's counters must be internally consistent,
   and no flow may be cached off its owning shard. *)
let run_phase mode ~label ~fault_config ?cycle_budget () =
  let open Rp_engine in
  Printf.printf "== %s (%s) ==\n" label (Engine.mode_to_string mode);
  Rp_obs.Registry.reset ();
  let s = Rp_sim.Scenario.single_router ~engine:mode () in
  let router = s.Rp_sim.Scenario.router in
  let e = Rp_sim.Net.engine s.Rp_sim.Scenario.node in
  Option.iter (fun b -> Router.set_cycle_budget router (Some b)) cycle_budget;
  setup_fault_plugin router fault_config;
  (* The soak itself: any exception escaping the data path ends the
     run. *)
  (match pump s ~base:1000 ~flows:32 ~per_flow:50 with
   | () -> check (label ^ ": simulation completed without a crash") true
   | exception ex ->
     check
       (Printf.sprintf "%s: simulation crashed: %s" label
          (Printexc.to_string ex))
       false);
  let faults = Rp_obs.Counter.get (Gate.faults Gate.Firewall) in
  let threshold = Pcu.quarantine_threshold router.Router.pcu in
  check
    (Printf.sprintf "%s: faults contained and counted (%d >= %d)" label faults
       threshold)
    (faults >= threshold);
  if mode = Engine.Inline then
    check
      (Printf.sprintf "%s: faults stopped at the quarantine threshold (%d)"
         label threshold)
      (faults = threshold);
  check (label ^ ": instance auto-quarantined")
    (Pcu.is_quarantined router.Router.pcu 1);
  wait_synced e;
  check (label ^ ": shards synced to the quarantine snapshot")
    (Engine.synced e);
  let delivered = Rp_sim.Sink.total_packets s.Rp_sim.Scenario.sink in
  pump s ~base:1000 ~flows:32 ~per_flow:10;
  let after = Rp_sim.Sink.total_packets s.Rp_sim.Scenario.sink - delivered in
  check
    (Printf.sprintf "%s: traffic degraded to the default path (%d delivered)"
       label after)
    (after = 320);
  (* Counter consistency: nothing lost, nothing double-counted. *)
  let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let accepted = Rp_sim.Net.received s.Rp_sim.Scenario.node in
  (match mode with
   | Engine.Sharded n ->
     let rx_sum = ref 0 in
     for i = 0 to n - 1 do
       rx_sum := !rx_sum + counter (Printf.sprintf "engine.shard%d.rx" i)
     done;
     check
       (Printf.sprintf "%s: sum of shard rx (%d) = accepted submissions (%d)"
          label !rx_sum accepted)
       (!rx_sum = accepted)
   | Engine.Inline -> ());
  check
    (Printf.sprintf "%s: drained results (%d) = dispatched packets" label
       (counter "engine.drained"))
    (counter "engine.drained" = accepted);
  check
    (Printf.sprintf "%s: verdicts (%d forwarded + %d dropped) = dispatched packets"
       label (counter "ip_core.forwarded") (counter "ip_core.dropped"))
    (counter "ip_core.forwarded" + counter "ip_core.dropped" = accepted);
  check
    (Printf.sprintf "%s: submitted counter agrees (%d)" label
       (counter "engine.submitted"))
    (counter "engine.submitted" = accepted);
  check
    (Printf.sprintf "%s: ip_core.packets (%d) = accepted submissions" label
       (counter "ip_core.packets"))
    (counter "ip_core.packets" = accepted);
  check_drop_conservation ~label;
  (* No cross-shard flow-state access: every cached flow key hashes to
     the shard caching it. *)
  let shards = Engine.shards e in
  let misplaced = ref 0 in
  for i = 0 to shards - 1 do
    List.iter
      (fun key ->
        if Rp_pkt.Flow_key.hash key land max_int mod shards <> i then
          incr misplaced)
      (Engine.shard_flow_keys e i)
  done;
  check (label ^ ": no flow cached off its owning shard") (!misplaced = 0);
  (* The engine and the quarantine are visible from the control plane,
     and the quarantine is reversible. *)
  (match Rp_control.Pmgr.exec router "engine stats" with
   | Ok out ->
     check (label ^ ": pmgr engine stats reports the engine")
       (contains ~needle:("mode=" ^ Engine.mode_to_string mode) out)
   | Error e ->
     Printf.printf "FAIL %s: engine stats: %s\n" label e;
     incr failures);
  (match Rp_control.Pmgr.exec router "faults show" with
   | Ok out ->
     check (label ^ ": faults show reports the quarantine")
       (contains ~needle:"QUARANTINED" out)
   | Error e ->
     Printf.printf "FAIL %s: faults show: %s\n" label e;
     incr failures);
  (match Rp_control.Pmgr.exec router "plugin restore 1" with
   | Ok _ ->
     check (label ^ ": restore succeeds")
       (not (Pcu.is_quarantined router.Router.pcu 1))
   | Error e ->
     Printf.printf "FAIL %s: restore: %s\n" label e;
     incr failures);
  Engine.stop e

(* Intermittent faults: one flow (so on a sharded engine one shard sees
   every packet and reports its faults and recoveries in order) through
   a plugin raising on every second packet. *)
let run_intermittent_phase mode =
  let open Rp_engine in
  let label = "intermittent faults (every=2)" in
  Printf.printf "== %s (%s) ==\n" label (Engine.mode_to_string mode);
  Rp_obs.Registry.reset ();
  let s = Rp_sim.Scenario.single_router ~engine:mode () in
  let router = s.Rp_sim.Scenario.router in
  setup_fault_plugin router "mode=raise every=2";
  let total = 400 in
  pump s ~base:4000 ~flows:1 ~per_flow:total;
  Engine.stop (Rp_sim.Net.engine s.Rp_sim.Scenario.node);
  let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  check
    (Printf.sprintf "%s: every packet came back (%d)" label
       (counter "engine.drained"))
    (counter "engine.drained" = total);
  check
    (Printf.sprintf "%s: every second packet faulted and dropped (%d)" label
       (counter "ip_core.dropped"))
    (counter "ip_core.dropped" = total / 2
    && Rp_obs.Counter.get (Gate.faults Gate.Firewall) = total / 2);
  check (label ^ ": instance never quarantined")
    (not (Pcu.is_quarantined router.Router.pcu 1));
  check (label ^ ": consecutive-fault run reset by every success")
    (List.for_all
       (fun (f : Pcu.fault_info) -> f.Pcu.consecutive_faults <= 1)
       (Pcu.fault_report router.Router.pcu));
  check_drop_conservation ~label

(* Churn regression: a quarantine's unbinds must travel the snapshot
   delta log — every shard replays them on its private classifier
   without recompiling — and once the shards have synced, the
   quarantined instance must never be dispatched again: the gate's
   fault counter has to stay exactly where the quarantine left it. *)
let run_sharded_churn_phase ~shards () =
  let open Rp_engine in
  let label = "post-quarantine silence" in
  Printf.printf "== %s (sharded %d) ==\n" label shards;
  Rp_obs.Registry.reset ();
  let s = Rp_sim.Scenario.single_router ~engine:(Engine.Sharded shards) () in
  let router = s.Rp_sim.Scenario.router in
  let e = Rp_sim.Net.engine s.Rp_sim.Scenario.node in
  setup_fault_plugin router "mode=raise every=1";
  pump s ~base:3000 ~flows:32 ~per_flow:50;
  check (label ^ ": instance auto-quarantined")
    (Pcu.is_quarantined router.Router.pcu 1);
  wait_synced e;
  check (label ^ ": shards synced to the quarantine snapshot")
    (Engine.synced e);
  let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let flushes = ref 0 and deltas = ref 0 in
  for i = 0 to shards - 1 do
    flushes := !flushes + counter (Printf.sprintf "engine.shard%d.flow_flushes" i);
    deltas := !deltas + counter (Printf.sprintf "engine.shard%d.delta_applies" i)
  done;
  check
    (Printf.sprintf
       "%s: quarantine unbind replayed as deltas on every shard (%d)" label
       !deltas)
    (!deltas >= shards);
  check (label ^ ": no shard recompiled (flow caches kept)") (!flushes = 0);
  let faults_at_q = Rp_obs.Counter.get (Gate.faults Gate.Firewall) in
  pump s ~base:5000 ~flows:32 ~per_flow:10;
  let faults_after = Rp_obs.Counter.get (Gate.faults Gate.Firewall) in
  check
    (Printf.sprintf "%s: zero post-quarantine dispatches (%d = %d)" label
       faults_after faults_at_q)
    (faults_after = faults_at_q);
  Engine.stop e

(* --- telemetry phases ----------------------------------------------- *)

(* Every packet of every flow must be accounted exactly once: the sum
   of exported NetFlow-style record packet/byte totals has to equal
   both the flow table's always-on accounting counters and the
   dispatch count of the first gate on the path (each packet enters
   ip-options exactly once).  Tracing runs sampled (1-in-4) on top to
   exercise the event rings; the trace and flow log are written out
   for the CI soak job to upload as artifacts. *)

let trace_file = "soak-trace.json"
let flow_log_file = "soak-flows.log"

let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

let write_flow_log records =
  let oc = open_out flow_log_file in
  List.iter
    (fun r ->
      output_string oc (Rp_core.Flow_export.to_json_line r);
      output_char oc '\n')
    records;
  close_out oc

let gate_name g =
  match Gate.of_int g with Some g -> Gate.name g | None -> string_of_int g

let reconcile ~label ~dispatch records =
  let pkts = List.fold_left (fun a (r : Rp_core.Flow_export.record) -> a + r.packets) 0 records in
  let bytes = List.fold_left (fun a (r : Rp_core.Flow_export.record) -> a + r.bytes) 0 records in
  let acc_pkts = counter "flow_table.accounted_packets" in
  let acc_bytes = counter "flow_table.accounted_bytes" in
  check
    (Printf.sprintf "%s: flow-record packets (%d) = accounted packets (%d)"
       label pkts acc_pkts)
    (pkts = acc_pkts);
  check
    (Printf.sprintf "%s: flow-record bytes (%d) = accounted bytes (%d)" label
       bytes acc_bytes)
    (bytes = acc_bytes);
  check
    (Printf.sprintf "%s: flow-record packets (%d) = ip-options dispatches (%d)"
       label pkts dispatch)
    (pkts = dispatch)

let run_telemetry_phase mode =
  let open Rp_engine in
  let label = "telemetry reconcile" in
  Printf.printf "== %s (%s) ==\n" label (Engine.mode_to_string mode);
  Rp_obs.Registry.reset ();
  Rp_core.Flow_export.clear ();
  Rp_obs.Telemetry.enable ~every:4;
  let s = Rp_sim.Scenario.single_router ~engine:mode () in
  let e = Rp_sim.Net.engine s.Rp_sim.Scenario.node in
  (match pump s ~base:2000 ~flows:32 ~per_flow:50 with
   | () -> check (label ^ ": simulation completed without a crash") true
   | exception ex ->
     check
       (Printf.sprintf "%s: simulation crashed: %s" label
          (Printexc.to_string ex))
       false);
  Rp_obs.Telemetry.disable ();
  Engine.stop e;
  (* Workers joined: flushing the domain-private shard flow caches is
     now safe, and exports every still-live record. *)
  Engine.flush_flows e;
  let records = Rp_core.Flow_export.drain () in
  check
    (Printf.sprintf "%s: flow records exported (%d)" label
       (List.length records))
    (records <> []);
  reconcile ~label ~dispatch:(counter "gate.ip-options.dispatch") records;
  check
    (Printf.sprintf "%s: events recorded (%d)" label
       (Rp_obs.Telemetry.recorded ()))
    (Rp_obs.Telemetry.recorded () > 0);
  Rp_obs.Telemetry.write_chrome_json ~gate_name ~mhz:Cost.cpu_mhz trace_file;
  write_flow_log records;
  Printf.printf "     (wrote %s, %s)\n" trace_file flow_log_file

(* Plain argv parsing: [--engine sharded N] or [--engine sharded:N]
   adds the multicore phases; the default run is unchanged. *)
let sharded_domains () =
  let argv = Array.to_list Sys.argv in
  let rec find = function
    | "--engine" :: "sharded" :: n :: _ -> int_of_string_opt n
    | "--engine" :: spec :: _ -> (
        match Rp_engine.Engine.mode_of_string spec with
        | Ok (Rp_engine.Engine.Sharded n) -> Some n
        | Ok Rp_engine.Engine.Inline | Error _ -> None)
    | _ :: rest -> find rest
    | [] -> None
  in
  find argv

let () =
  let modes =
    Rp_engine.Engine.Inline
    :: (match sharded_domains () with
        | Some n -> [ Rp_engine.Engine.Sharded n ]
        | None -> [])
  in
  List.iter
    (fun mode ->
      run_phase mode ~label:"raise on every packet"
        ~fault_config:"mode=raise every=1" ();
      run_phase mode ~label:"cycle-budget burn"
        ~fault_config:"mode=burn every=1" ~cycle_budget:50_000 ();
      run_intermittent_phase mode;
      (match mode with
       | Rp_engine.Engine.Sharded shards -> run_sharded_churn_phase ~shards ()
       | Rp_engine.Engine.Inline -> ());
      run_telemetry_phase mode)
    modes;
  if !failures = 0 then print_endline "fault soak: all checks passed"
  else begin
    Printf.printf "fault soak: %d check(s) failed\n" !failures;
    exit 1
  end
