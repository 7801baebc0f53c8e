(* perf.exe — the wire-bytes-to-verdict benchmark (see README.md).

     perf.exe run --workload W --seed S [--seconds N] [--trace 0|1]
                  [--out FILE] [--packets P]
     perf.exe all --seed S --out DIR [--seconds N] [--packets P]
     perf.exe compare [--write FILE] A/ B/

   [run] measures one workload and prints, as its last line, one JSON
   object with the end-to-end metrics (or, with --trace 1, the
   per-layer ones); it exits 1 when any packet fails the oracle.
   [all] runs the four workloads, each in its own process. *)

module Engine = Rp_engine.Engine

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  out : string option;
  packets : int option;
      (** reduced segment size, for the smoke test: builds the router
          once instead of five times *)
}

let rec parse o = function
  | [] -> o
  | "--workload" :: v :: r -> parse { o with workload = v } r
  | "--seed" :: v :: r -> parse { o with seed = int_of_string v } r
  | "--seconds" :: v :: r -> parse { o with seconds = int_of_string v } r
  | "--trace" :: (("0" | "1") as v) :: r -> parse { o with trace = v = "1" } r
  | "--out" :: v :: r -> parse { o with out = Some v } r
  | "--packets" :: v :: r -> parse { o with packets = Some (int_of_string v) } r
  | a :: _ -> die "unexpected argument %S" a

let defaults =
  { workload = ""; seed = 1; seconds = 10; trace = false; out = None; packets = None }

(* Units come from BENCHMARK.json, where every reported metric is
   declared. *)
let unit_of =
  let units =
    lazy
      (List.map
         (fun m -> (m.Compare.name, m.Compare.unit_))
         (Compare.declared "end_to_end" @ Compare.declared "per_layer"))
  in
  fun k ->
    match List.assoc_opt k (Lazy.force units) with
    | Some u -> u
    | None -> die "metric %s is not declared in BENCHMARK.json" k

let metric_json l =
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of k)) ]))
       l)

let nums a = Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) a))
let plain l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Build the router [setups] times, each from a collected heap, and
   keep the last build.  Returns the build times in seconds, raw and
   scaled to the nominal host speed. *)
let build_rig build setups =
  let wall = Array.make setups 0.0 and scaled = Array.make setups 0.0 in
  let rig = ref None in
  let sp = Run.spans ~on:false in
  for i = 0 to setups - 1 do
    Option.iter (fun (r : Setup.rig) -> Engine.stop r.Setup.engine) !rig;
    rig := None;
    Gc.compact ();
    let (r, ns), slow =
      Run.slowdown sp (fun () ->
          let t0 = Run.clock () in
          let r = build Engine.Inline in
          (r, Run.clock () - t0))
    in
    wall.(i) <- float_of_int ns /. 1e9;
    scaled.(i) <- wall.(i) /. slow;
    rig := Some r
  done;
  (Option.get !rig, wall, scaled)

let run o =
  let w =
    match Setup.find o.workload with
    | Some w -> w
    | None -> die "unknown workload %S" o.workload
  in
  let w =
    match o.packets with
    | Some p -> { w with Setup.segment = p; warmup = min w.Setup.warmup (4 * p) }
    | None -> w
  in
  (* fixed work, scaled by the nominal run time *)
  let nseg = max 1 (w.Setup.segments * o.seconds / 10) in
  let build, traffic = w.Setup.prepare ~seed:o.seed in
  let rig, setup_wall, setup_scaled =
    build_rig build (if o.packets = None then 5 else 1)
  in
  Gc.compact ();
  let g = traffic () in
  let wm = Run.warm w rig g in
  let mt = Run.meter () and sp = Run.spans ~on:o.trace in
  let before = Layers.snapshot rig in
  let segs = Run.segments w rig g mt sp ~nseg in
  let after = Layers.snapshot rig in
  let live_sessions =
    Option.fold ~none:0 ~some:Rp_session.Session.Table.length rig.Setup.sessions
  in
  let drops_ok = Run.drops_reconcile () in
  let rss = Run.rss_peak_mb () in
  Engine.stop rig.Setup.engine;
  let seg_f f = Array.of_list (List.map f segs) in
  let seg_slow = seg_f (fun s -> s.Run.slow) in
  (* per-segment series of each figure, as measured and scaled; the
     gated figures are the medians of the scaled ones *)
  let series get =
    Array.to_list (Array.mapi (fun i k -> (k, seg_f (fun s -> (get s).(i)))) Run.figures)
  in
  let medians = List.map (fun (k, a) -> (k, Run.median a)) in
  let scaled = medians (series (fun s -> s.Run.scaled)) in
  let wall = medians (series (fun s -> s.Run.wall)) @ [ ("setup_s", Run.median setup_wall) ] in
  let gated = [ "throughput_mpps"; "lat_p50_us"; "lat_p75_us" ] in
  let e2e =
    List.filter (fun (k, _) -> List.mem k gated) scaled
    @ [
        ("alloc_words_per_pkt", float_of_int mt.Run.words /. float_of_int mt.Run.pkts);
        ("model_cycles_per_pkt", float_of_int mt.Run.cycles /. float_of_int mt.Run.pkts);
        ("rss_peak_mb", rss);
        ("setup_s", Run.median setup_scaled);
      ]
  in
  let layer, layer_attempted, layer_failed =
    if o.trace then begin
      let path =
        match o.out with
        | Some f -> Filename.remove_extension f ^ ".trace.json"
        | None ->
          (try Unix.mkdir "perf/out" 0o755 with Unix.Unix_error _ -> ());
          Printf.sprintf "perf/out/%s-%d.trace.json" w.Setup.name o.seed
      in
      write_file path (Json.to_string (Run.chrome_trace sp));
      Printf.printf "trace: %s\n" path;
      Layers.metrics w ~seed:o.seed ~mt ~sp ~before ~after
    end
    else ([], 0, 0)
  in
  let attempted = wm.Run.attempted + mt.Run.attempted + layer_attempted in
  let failed = wm.Run.failed + mt.Run.failed + layer_failed in
  let correct = failed = 0 && drops_ok in
  let metrics = if o.trace then layer else e2e in
  List.iter
    (fun (k, v) -> Printf.printf "%-10s %-30s %14.6g %s\n" w.Setup.name k v (unit_of k))
    metrics;
  Printf.printf
    "%s: %d packets timed in %d segments (latency samples: %d batches), %d control \
     ops, %d nat checks, %d live sessions, %d/%d failed, drops reconcile %b\n"
    w.Setup.name mt.Run.pkts nseg mt.Run.batches mt.Run.ops mt.Run.nat_checked
    live_sessions failed attempted drops_ok;
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", metric_json metrics);
    ]
  in
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string
           (Json.Obj
              ([
                 ("workload", Json.Str w.Setup.name);
                 ("end_to_end", metric_json e2e);
                 ("seed", Json.Num (float_of_int o.seed));
                 ("trace", Json.Bool o.trace);
                 ("segments", Json.Num (float_of_int nseg));
                 ("segment_slowdown", nums seg_slow);
                 ("segment_wall", Json.Obj (List.map (fun (k, a) -> (k, nums a)) (series (fun s -> s.Run.wall))));
                 ("segment_scaled", Json.Obj (List.map (fun (k, a) -> (k, nums a)) (series (fun s -> s.Run.scaled))));
                 ("wall", plain wall);
                 ("scaled_tail", plain (List.filter (fun (k, _) -> not (List.mem k gated)) scaled));
                 ("lat_samples", Json.Num (float_of_int mt.Run.batches));
                 ("ops_attempted", Json.Num (float_of_int attempted));
                 ("ops_failed", Json.Num (float_of_int failed));
                 ("failed_frac", Json.Num (float_of_int failed /. float_of_int attempted));
               ]
              @ result))
        ^ "\n"))
    o.out;
  print_endline (Json.to_string (Json.Obj result));
  if not correct then exit 1

(* Each workload in its own process, then every metric printed. *)
let all o =
  let dir = match o.out with Some d -> d | None -> die "all: --out DIR required" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ok =
    List.fold_left
      (fun ok (w : Setup.workload) ->
        let file = Filename.concat dir (w.Setup.name ^ ".json") in
        let args =
          [ "run"; "--workload"; w.Setup.name; "--seed"; string_of_int o.seed;
            "--seconds"; string_of_int o.seconds; "--out"; file ]
          @ (match o.packets with Some p -> [ "--packets"; string_of_int p ] | None -> [])
        in
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin null Unix.stderr
        in
        Unix.close null;
        let _, status = Unix.waitpid [] pid in
        let j = Json.of_file file in
        (match Json.member "metrics" j with
         | Some (Json.Obj ms) ->
           List.iter
             (fun (k, m) ->
               Printf.printf "%-10s %-22s %14.6g %s\n" w.Setup.name k
                 (Option.value ~default:nan (Json.to_num (Json.member "value" m)))
                 (Option.value ~default:"" (Json.to_str (Json.member "unit" m))))
             ms
         | _ -> ());
        Printf.printf "%-10s %-22s %14.6g\n%!" w.Setup.name "failed_frac"
          (Option.value ~default:nan (Json.to_num (Json.member "failed_frac" j)));
        ok && status = Unix.WEXITED 0)
      true Setup.all
  in
  if not ok then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run (parse defaults args)
  | _ :: "all" :: args -> all (parse defaults args)
  | _ :: "compare" :: args ->
    (match args with
     | [ "--write"; f; a; b ] -> Compare.main ~write:(Some f) a b
     | [ a; b ] -> Compare.main ~write:None a b
     | _ -> die "usage: compare [--write FILE] A/ B/")
  | _ -> die "usage: perf.exe run|all|compare ... (see perf/README.md)"
