(* rp_router — run a simulated router under synthetic traffic.

   The router starts as a single-router scenario (N ingress
   interfaces, one egress into a measurement sink), is configured with
   an optional pmgr script, and carries the flows described on the
   command line.  At the end, per-flow goodput/latency, interface
   counters, flow-cache statistics and the cycle cost model's
   per-packet figure are printed.

   Example:
     rp_router --script qos.pmgr \
       --flow id=1,rate=1000,len=1000 --flow id=2,rate=500,len=500 \
       --seconds 2 *)

open Cmdliner

type flow_spec = {
  id : int;
  rate : float;
  len : int;
  pattern : [ `Cbr | `Poisson | `Onoff ];
}

let parse_flow s =
  let fields = String.split_on_char ',' s in
  let get key default conv =
    List.find_map
      (fun f ->
        match String.index_opt f '=' with
        | Some i when String.sub f 0 i = key ->
          conv (String.sub f (i + 1) (String.length f - i - 1))
        | Some _ | None -> None)
      fields
    |> Option.value ~default
  in
  let id = get "id" 1 int_of_string_opt in
  let rate = get "rate" 100.0 float_of_string_opt in
  let len = get "len" 1000 int_of_string_opt in
  let pattern =
    get "pattern" `Cbr (function
      | "cbr" -> Some `Cbr
      | "poisson" -> Some `Poisson
      | "onoff" -> Some `Onoff
      | _ -> None)
  in
  { id; rate; len; pattern }

let gate_name g =
  match Rp_core.Gate.of_int g with
  | Some g -> Rp_core.Gate.name g
  | None -> string_of_int g

let write_trace_out path =
  Rp_obs.Telemetry.write_chrome_json ~gate_name ~mhz:Rp_core.Cost.cpu_mhz path;
  Printf.printf "trace written to %s (%d events recorded, %d overwritten)\n"
    path
    (Rp_obs.Telemetry.recorded ())
    (Rp_obs.Telemetry.overwritten ())

let write_flow_log path =
  let records = Rp_core.Flow_export.drain () in
  let oc = open_out path in
  List.iter
    (fun r ->
      output_string oc (Rp_core.Flow_export.to_json_line r);
      output_char oc '\n')
    records;
  close_out oc;
  Printf.printf "flow log written to %s (%d records)\n" path
    (List.length records)

(* A unix-socket exposition endpoint: each connection gets one
   rendered Prometheus text page and is closed.  The accept loop runs
   on its own domain and dies with the process. *)
let start_prom_sock path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  ignore
    (Domain.spawn (fun () ->
         while true do
           let c, _ = Unix.accept sock in
           (try
              let text = Rp_obs.Prom.text () in
              let n = String.length text in
              let off = ref 0 in
              while !off < n do
                off := !off + Unix.write_substring c text !off (n - !off)
              done
            with _ -> ());
           try Unix.close c with _ -> ()
         done));
  Printf.printf "prometheus exposition on %s\n%!" path

let stats_columns =
  [
    "t_s"; "packets"; "cum_packets"; "model_mpps"; "wall_mpps";
    "p50_cycles"; "p99_cycles";
  ]

(* The aggregate end-to-end latency histogram the data path feeds
   (Registry get-or-create is idempotent, so this is the same
   histogram Slo.observe writes). *)
let slo_hist () =
  Rp_obs.Registry.histogram ~bounds:Rp_obs.Slo.latency_bounds
    "slo.latency.cycles"

(* The model clock of the engine's busiest domain: the router's own
   inline, the busiest shard sharded.  Model throughput is packets over
   this clock. *)
let busiest_cycles e =
  List.fold_left max 0
    (List.init (Rp_engine.Engine.shards e) (Rp_engine.Engine.shard_cycles e))

let main script flows seconds in_ifaces bandwidth_mbps mode_str engine_str
    classifier_str metrics_out trace_out trace_sample
    flow_log stats_csv slo_str prom_out prom_sock =
  (match slo_str with
   | None -> ()
   | Some "off" -> Rp_obs.Slo.set_stamping false
   | Some s ->
     (match int_of_string_opt s with
      | Some n when n > 0 -> Rp_obs.Slo.set_threshold n
      | Some _ | None ->
        Printf.eprintf "--slo: expected off or a positive cycle count\n%!";
        exit 2));
  Option.iter start_prom_sock prom_sock;
  if trace_sample < 1 then begin
    Printf.eprintf "--trace-sample: expected a positive sampling period\n%!";
    exit 2
  end;
  if trace_out <> None then Rp_obs.Telemetry.enable ~every:trace_sample;
  let mode =
    match mode_str with
    | "best-effort" -> Rp_core.Router.Best_effort
    | _ -> Rp_core.Router.Plugins
  in
  let engine_mode =
    match Rp_engine.Engine.mode_of_string engine_str with
    | Ok m -> m
    | Error e ->
      Printf.eprintf "--engine: %s\n%!" e;
      exit 2
  in
  let classifier_mode =
    match Rp_classifier.Aiu.mode_of_string classifier_str with
    | Ok m -> m
    | Error e ->
      Printf.eprintf "--classifier: %s\n%!" e;
      exit 2
  in
  let s =
    Rp_sim.Scenario.single_router ~mode ~engine:engine_mode ~in_ifaces
      ~out_bandwidth_bps:(Int64.of_float (bandwidth_mbps *. 1e6))
      ()
  in
  let router = s.Rp_sim.Scenario.router and node = s.Rp_sim.Scenario.node in
  let e = Rp_sim.Net.engine node in
  (* Before any packet or script runs, so shards compile with the
     requested mode and a script's `classifier` command can still
     override it. *)
  Rp_classifier.Aiu.set_mode (Rp_core.Router.aiu router) classifier_mode;
  (match script with
   | Some path ->
     let ic = open_in path in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     (match Rp_control.Pmgr.exec_script router text with
      | Ok outs -> List.iter (fun o -> if o <> "" then print_endline o) outs
      | Error e ->
        Printf.eprintf "script error: %s\n%!" e;
        exit 1)
   | None -> ());
  let specs = List.map parse_flow flows in
  let specs = if specs = [] then [ { id = 1; rate = 100.0; len = 1000; pattern = `Cbr } ] else specs in
  List.iter
    (fun spec ->
      let pattern =
        match spec.pattern with
        | `Cbr -> Rp_sim.Traffic.Cbr spec.rate
        | `Poisson -> Rp_sim.Traffic.Poisson spec.rate
        | `Onoff ->
          Rp_sim.Traffic.On_off
            { rate_pps = spec.rate; on_ns = 100_000_000L; off_ns = 100_000_000L }
      in
      ignore
        (Rp_sim.Scenario.add_flow s
           {
             Rp_sim.Traffic.key = Rp_sim.Scenario.sink_key ~id:spec.id ();
             pkt_len = spec.len;
             pattern;
             start_ns = 0L;
             stop_ns = Rp_sim.Sim.ns_of_sec seconds;
             seed = spec.id;
           }))
    specs;
  (* Periodic stats reporter on the simulator clock: a row per tenth
     of the traffic duration, throughput from the cycle model (the
     busiest domain's clock), wall clock informational. *)
  let stats =
    Option.map
      (fun path -> Rp_obs.Csv_stats.to_file ~path ~columns:stats_columns)
      stats_csv
  in
  if Option.is_some stats || Option.is_some prom_out then begin
    let interval_ns = Rp_sim.Sim.ns_of_sec (seconds /. 10.0) in
    let stop_ns = Rp_sim.Sim.ns_of_sec seconds in
    let hz = Rp_core.Cost.cpu_mhz *. 1e6 in
    let last_pkts = ref 0 in
    let last_cycles = ref (busiest_cycles e) in
    let last_wall = ref (Unix.gettimeofday ()) in
    let rec plan t =
      Rp_sim.Sim.at s.Rp_sim.Scenario.sim t (fun () ->
          Rp_obs.Health.sample ();
          Option.iter (fun p -> Rp_obs.Prom.write p) prom_out;
          (match stats with
           | None -> ()
           | Some c ->
             let received = Rp_sim.Net.received node in
             let cycles = busiest_cycles e in
             let wall = Unix.gettimeofday () in
             let pkts = received - !last_pkts in
             let dcyc = cycles - !last_cycles in
             let mpps =
               if dcyc > 0 then
                 float_of_int pkts /. (float_of_int dcyc /. hz) /. 1e6
               else 0.0
             in
             let wall_mpps =
               let dt = wall -. !last_wall in
               if dt > 0.0 then float_of_int pkts /. dt /. 1e6 else 0.0
             in
             let h = slo_hist () in
             Rp_obs.Csv_stats.row c
               [
                 Rp_obs.Csv_stats.f3 (Int64.to_float t /. 1e9);
                 Rp_obs.Csv_stats.i pkts;
                 Rp_obs.Csv_stats.i received;
                 Rp_obs.Csv_stats.f6 mpps;
                 Rp_obs.Csv_stats.f6 wall_mpps;
                 Rp_obs.Csv_stats.f3 (Rp_obs.Histogram.quantile h 0.5);
                 Rp_obs.Csv_stats.f3 (Rp_obs.Histogram.quantile h 0.99);
               ];
             last_pkts := received;
             last_cycles := cycles;
             last_wall := wall);
          if t < stop_ns then plan (Int64.add t interval_ns))
    in
    plan interval_ns
  end;
  Rp_sim.Scenario.run s ~seconds:(seconds +. 1.0);
  (match stats with
   | Some c ->
     Rp_obs.Csv_stats.close c;
     Printf.printf "stats time series written (%d rows)\n"
       (Rp_obs.Csv_stats.rows c)
   | None -> ());
  (* Report. *)
  Printf.printf "\n== per-flow results (%.1f s simulated) ==\n" seconds;
  Printf.printf "%-6s %12s %12s %12s %12s\n" "flow" "packets" "Mb/s" "mean ms" "max ms";
  List.iter
    (fun spec ->
      match Rp_sim.Sink.flow s.Rp_sim.Scenario.sink (Rp_sim.Scenario.sink_key ~id:spec.id ()) with
      | Some fs ->
        let mean, mx = Rp_sim.Sink.latency fs in
        Printf.printf "%-6d %12d %12.3f %12.3f %12.3f\n" spec.id
          fs.Rp_sim.Sink.packets
          (Rp_sim.Sink.goodput_bps fs /. 1e6)
          (mean *. 1e3) (mx *. 1e3)
      | None -> Printf.printf "%-6d (nothing delivered)\n" spec.id)
    specs;
  let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let received = Rp_sim.Net.received node in
  Printf.printf "\n== router (%s engine) ==\n" (Rp_engine.Engine.mode_to_string engine_mode);
  Printf.printf "received %d, forwarded %d, dropped %d, delivered-local %d\n"
    received
    (Array.fold_left
       (fun n ifc -> n + ifc.Rp_core.Iface.counters.Rp_core.Iface.tx_packets)
       0 router.Rp_core.Router.ifaces)
    (counter "ip_core.dropped") (counter "ip_core.delivered_local");
  List.iter
    (fun (reason, n) ->
      if n > 0 then Printf.printf "  drop[%s] = %d\n" (Rp_obs.Drop_reason.name reason) n)
    (Rp_obs.Drop_reason.table ());
  let cpp = Rp_sim.Net.cycles_per_packet node in
  Printf.printf "cycles/packet (P6/233 model): %.0f (= %.2f us)\n" cpp
    (Rp_core.Cost.us_of_cycles (int_of_float cpp));
  (match engine_mode with
   | Rp_engine.Engine.Inline -> ()
   | Rp_engine.Engine.Sharded _ ->
     let model_s = float_of_int (busiest_cycles e) /. (Rp_core.Cost.cpu_mhz *. 1e6) in
     let mpps_model =
       if model_s > 0.0 then float_of_int received /. model_s /. 1e6 else 0.0
     in
     Printf.printf "aggregate throughput (P6/233 model, busiest shard): %.3f mpps\n"
       mpps_model;
     Rp_obs.Registry.set "engine.mpps_model" mpps_model;
     (match Rp_control.Pmgr.exec router "engine stats" with
      | Ok out -> print_string out
      | Error _ -> ()));
  (match Rp_control.Pmgr.exec router "show flows" with
   | Ok out -> Printf.printf "flow cache: %s\n" out
   | Error _ -> ());
  Array.iter
    (fun ifc -> Format.printf "%a@." Rp_core.Iface.pp ifc)
    router.Rp_core.Router.ifaces;
  (* Workers joined, so the shards' flow caches are safe to flush: the
     flow log and the metrics then cover still-live flows too. *)
  Rp_engine.Engine.stop e;
  if flow_log <> None then Rp_engine.Engine.flush_flows e;
  Option.iter write_trace_out trace_out;
  Option.iter write_flow_log flow_log;
  Rp_obs.Health.sample ();
  Option.iter
    (fun p ->
      Rp_obs.Prom.write p;
      Printf.printf "prometheus exposition written to %s\n" p)
    prom_out;
  match metrics_out with
  | Some path ->
    Rp_obs.Registry.write_json path;
    Printf.printf "\nmetrics written to %s\n" path
  | None -> ()

let script_arg =
  Arg.(value & opt (some file) None
       & info [ "script" ] ~docv:"FILE" ~doc:"pmgr configuration script.")

let flow_arg =
  Arg.(value & opt_all string []
       & info [ "flow" ]
           ~docv:"SPEC"
           ~doc:"Flow spec: id=N,rate=PPS,len=BYTES,pattern=cbr|poisson|onoff.")

let seconds_arg =
  Arg.(value & opt float 1.0 & info [ "seconds" ] ~docv:"S" ~doc:"Traffic duration.")

let ifaces_arg =
  Arg.(value & opt int 2 & info [ "in-ifaces" ] ~docv:"N" ~doc:"Ingress interfaces.")

let bw_arg =
  Arg.(value & opt float 155.0
       & info [ "bandwidth" ] ~docv:"MBPS" ~doc:"Egress link rate, Mb/s.")

let mode_arg =
  Arg.(value & opt string "plugins"
       & info [ "mode" ] ~docv:"MODE" ~doc:"plugins (default) or best-effort.")

let engine_arg =
  Arg.(value & opt string "inline"
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Packet engine the simulated router runs on: \
                 $(b,inline) (default; the control domain runs every \
                 packet) or $(b,sharded:N) (N worker domains, flows \
                 spread by RSS).  Both run the same scenario, clock \
                 and link; sharded also reports the busiest shard's \
                 model throughput.")

let classifier_arg =
  Arg.(value & opt string "pergate"
       & info [ "classifier" ] ~docv:"MODE"
           ~doc:"Cold-start classification: $(b,pergate) (default; one \
                 DAG walk per gate, the paper's behavior) or \
                 $(b,compiled) (one cross-gate FDD traversal resolves \
                 every gate).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the metric registry as JSON (schema rp-metrics/4) \
                 to $(docv) on exit.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable hot-path event tracing and write a Chrome \
                 trace-event JSON file (loadable in Perfetto / \
                 about:tracing) to $(docv) on exit.")

let trace_sample_arg =
  Arg.(value & opt int 1
       & info [ "trace-sample" ] ~docv:"N"
           ~doc:"With $(b,--trace-out), sample one packet in $(docv) \
                 (default 1 = every packet).")

let stats_csv_arg =
  Arg.(value & opt (some string) None
       & info [ "stats-csv" ] ~docv:"FILE"
           ~doc:"Write a periodic throughput time series (CSV: one row \
                 per tenth of the traffic duration — packets, model \
                 mpps on the busiest domain's model clock, wall mpps) \
                 to $(docv), on the simulator clock, on either \
                 engine.")

let flow_log_arg =
  Arg.(value & opt (some string) None
       & info [ "flow-log" ] ~docv:"FILE"
           ~doc:"Write NetFlow-style flow records (JSON lines, one \
                 object per evicted/flushed flow) to $(docv) on exit.")

let slo_arg =
  Arg.(value & opt (some string) None
       & info [ "slo" ] ~docv:"CYCLES|off"
           ~doc:"Latency SLO on the model clock: a positive cycle count \
                 sets the breach threshold and arms exemplar capture \
                 ($(b,pmgr slo exemplars)); $(b,off) disables ingress \
                 stamping entirely.  Default: stamping on, no threshold.")

let prom_out_arg =
  Arg.(value & opt (some string) None
       & info [ "prom-out" ] ~docv:"FILE"
           ~doc:"Rewrite $(docv) with the Prometheus text exposition of \
                 the metric registry every reporting interval (atomic \
                 write-then-rename) and on exit.")

let prom_sock_arg =
  Arg.(value & opt (some string) None
       & info [ "prom-sock" ] ~docv:"PATH"
           ~doc:"Serve the Prometheus text exposition on a unix stream \
                 socket at $(docv): each connection receives one page \
                 and is closed.")

let cmd =
  let doc = "simulate a router plugins EISR under synthetic traffic" in
  Cmd.v
    (Cmd.info "rp_router" ~version:"1.0" ~doc)
    Term.(const main $ script_arg $ flow_arg $ seconds_arg $ ifaces_arg
          $ bw_arg $ mode_arg $ engine_arg $ classifier_arg
          $ metrics_arg $ trace_out_arg $ trace_sample_arg
          $ flow_log_arg $ stats_csv_arg $ slo_arg $ prom_out_arg
          $ prom_sock_arg)

let () = exit (Cmd.eval cmd)
