(* Smoke test of the benchmark, run by [dune runtest]:

     smoke.exe PERF_EXE BENCHMARK_JSON

   Runs every workload of BENCHMARK.json at a reduced packet count,
   once untraced and once traced, and checks that no packet fails the
   oracle, that every metric BENCHMARK.json names is emitted with its
   unit, that the counted metrics repeat exactly for one seed, that the
   trace parses, and that fwd64's model cycles round to Table 3's
   three-gate row. *)

let failures = ref 0

let check label ok =
  if not ok then begin
    Printf.printf "FAIL %s\n%!" label;
    incr failures
  end

let str k j = Option.value ~default:"" (Json.to_str (Json.member k j))

(* Table 3, "plugin framework (3 gates, empty plugins)", as the
   reproduction harness prints it: base forward 6460 + flow hash 17 +
   3 gate invocations of 150 + 2 flow-table accesses of 14.  fwd64
   adds a fraction of a cycle for the flows whose flow-table probe
   skips an occupied slot. *)
let table3_cycles = 6955.0

let () =
  let perf = Sys.argv.(1) and bench = Json.of_file Sys.argv.(2) in
  let declared key =
    List.map (fun m -> (str "name" m, str "unit" m)) (Json.to_list (Json.member key bench))
  in
  let out w ~trace = Printf.sprintf "smoke-%s-%s.json" w (if trace then "trace" else "run") in
  let args (w, trace) =
    [| perf; "run"; "--workload"; w; "--seed"; "7"; "--seconds"; "2"; "--packets";
       "4096"; "--trace"; (if trace then "1" else "0"); "--out";
       out w ~trace |]
  in
  let workloads =
    List.map (str "name") (Json.to_list (Json.member "workloads" bench))
  in
  (* every run in its own process, two at a time (the host has two
     CPUs) *)
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let rec pool running = function
    | job :: rest when List.length running < 2 ->
      let pid = Unix.create_process perf (args job) Unix.stdin null Unix.stderr in
      pool ((pid, job) :: running) rest
    | queue when running <> [] ->
      let pid, status = Unix.wait () in
      let (w, trace) = List.assoc pid running in
      check (Printf.sprintf "%s trace=%b exits 0" w trace) (status = Unix.WEXITED 0);
      pool (List.remove_assoc pid running) queue
    | _ -> ()
  in
  pool [] (List.concat_map (fun w -> [ (w, true); (w, false) ]) workloads);
  Unix.close null;
  let value r k =
    Option.bind (Json.member "metrics" r) (fun ms ->
        Json.to_num (Option.bind (Json.member k ms) (Json.member "value")))
  in
  let emits r (k, u) =
    match Option.bind (Json.member "metrics" r) (Json.member k) with
    | Some m -> str "unit" m = u
    | None -> false
  in
  List.iter
    (fun w ->
      let a = Json.of_file (out w ~trace:false) in
      let t = Json.of_file (out w ~trace:true) in
      (* the traced run's record carries its end-to-end figures too *)
      let b = Json.Obj [ ("metrics", Option.value ~default:Json.Null (Json.member "end_to_end" t)) ] in
      List.iter
        (fun r ->
          check (w ^ " correct") (Json.member "correct" r = Some (Json.Bool true));
          check (w ^ " failed_frac = 0") (Json.to_num (Json.member "failed_frac" r) = Some 0.0))
        [ a; t ];
      List.iter
        (fun m -> check (Printf.sprintf "%s emits %s" w (fst m)) (emits a m))
        (declared "end_to_end");
      List.iter
        (fun m -> check (Printf.sprintf "%s traced emits %s" w (fst m)) (emits t m))
        (declared "per_layer");
      List.iter
        (fun k ->
          check (Printf.sprintf "%s %s repeats" w k)
            (value a k <> None && value a k = value b k))
        [ "alloc_words_per_pkt"; "model_cycles_per_pkt" ];
      (match Json.of_file (Filename.remove_extension (out w ~trace:true) ^ ".trace.json") with
       | j -> check (w ^ " trace has events") (Json.to_list (Json.member "traceEvents" j) <> [])
       | exception _ -> check (w ^ " trace parses") false);
      if w = "fwd64" then
        check "fwd64 model cycles round to Table 3's three-gate row"
          (Option.map Float.round (value a "model_cycles_per_pkt") = Some table3_cycles))
    workloads;
  if !failures > 0 then exit 1;
  print_endline "perf smoke: ok"
