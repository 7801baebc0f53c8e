(* [perf.exe compare A/ B/]: no-regression and gain rules, applied per
   workload and end-to-end metric to two sets of result files.  Runs
   pair up in file-name order, so sets must be made interleaved (A1 B1
   A2 B2 ...): wall-clock throughput on a shared host drifts over
   minutes. *)

type metric = { name : string; unit_ : string; lower : bool; bound : float }

(* BENCHMARK.json, the one place metric names, units and bounds are
   declared.  It sits at the repository root: the working directory of
   a run, or its parent for the smoke test, which dune runs in perf/. *)
let bench =
  lazy
    (match List.find_opt Sys.file_exists [ "BENCHMARK.json"; "../BENCHMARK.json" ] with
     | Some path -> Json.of_file path
     | None -> failwith "BENCHMARK.json not found in . or ..")

(* The metrics of one section of BENCHMARK.json: "end_to_end" or
   "per_layer" (whose metrics have no bound). *)
let declared section =
  List.map
    (fun m ->
      let str k = Option.value ~default:"" (Json.to_str (Json.member k m)) in
      {
        name = str "name";
        unit_ = str "unit";
        lower = str "better" = "lower";
        bound = Option.value ~default:0.0 (Json.to_num (Json.member "bound" m));
      })
    (Json.to_list (Json.member section (Lazy.force bench)))

(* Result files under [dir] (and its subdirectories, one level), in
   path order, grouped by workload. *)
let load dir =
  let entries d = List.sort compare (Array.to_list (Sys.readdir d)) in
  let paths =
    List.concat_map
      (fun e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then
          List.map (Filename.concat p) (entries p)
        else [ p ])
      (entries dir)
  in
  let by = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Filename.check_suffix p ".json" then
        let j = Json.of_file p in
        match Json.to_str (Json.member "workload" j) with
        | Some w ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by w) in
          Hashtbl.replace by w (prev @ [ j ])
        | None -> ())
    paths;
  by

let value run name =
  Option.bind (Json.member "metrics" run) (fun ms ->
      Json.to_num (Option.bind (Json.member name ms) (Json.member "value")))

type row = { won : int; pairs : int; verdict : string }

let judge m a b =
  let ma = Run.median a and mb = Run.median b in
  let qa1, qa3 = Run.quartiles a in
  let better x y = if m.lower then x < y else x > y in
  let pairs = min (Array.length a) (Array.length b) in
  let won = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr won
  done;
  let rel d = if ma = 0.0 then (if d = 0.0 then 0.0 else infinity) else d /. Float.abs ma in
  let worse = rel (if m.lower then mb -. ma else ma -. mb) in
  let spread = rel (qa3 -. qa1) in
  let all_better =
    Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b
  in
  let gain =
    better mb ma
    && float_of_int !won >= 0.9 *. float_of_int pairs
    && Float.abs (mb -. ma) > qa3 -. qa1
  in
  let verdict =
    if spread > m.bound && not all_better then "unresolved"
    else if worse > m.bound then "regressed"
    else if gain then "improved"
    else "unchanged"
  in
  { won = !won; pairs; verdict }

let main ~write a_dir b_dir =
  let metrics = declared "end_to_end" in
  let a = load a_dir and b = load b_dir in
  let workloads =
    List.sort_uniq compare (Hashtbl.fold (fun w _ acc -> w :: acc) a [])
    |> List.filter (Hashtbl.mem b)
  in
  let regressed = ref false in
  let out = ref [] in
  Printf.printf "%-10s %-21s %-6s %24s %24s %6s  %s\n" "workload" "metric" "unit"
    "A median [q1 q3]" "B median [q1 q3]" "B won" "verdict";
  List.iter
    (fun w ->
      let runs side = Hashtbl.find side w in
      let rows =
        List.filter_map
          (fun m ->
            let vals side =
              Array.of_list (List.filter_map (fun r -> value r m.name) (runs side))
            in
            let va = vals a and vb = vals b in
            if Array.length va = 0 || Array.length vb = 0 then None
            else begin
              let r = judge m va vb in
              let show v =
                let q1, q3 = Run.quartiles v in
                Printf.sprintf "%.4g [%.4g %.4g]" (Run.median v) q1 q3
              in
              Printf.printf "%-10s %-21s %-6s %24s %24s %3d/%-2d  %s\n" w m.name
                m.unit_ (show va) (show vb) r.won r.pairs r.verdict;
              if r.verdict = "regressed" then regressed := true;
              let spread v =
                let q1, q3 = Run.quartiles v in
                (q3 -. q1) /. Run.median v
              in
              Some
                ( m.name,
                  Json.Obj
                    [
                      ("unit", Json.Str m.unit_);
                      ("a_median", Json.Num (Run.median va));
                      ("b_median", Json.Num (Run.median vb));
                      ("a_iqr_frac", Json.Num (spread va));
                      ("b_iqr_frac", Json.Num (spread vb));
                      ("b_won", Json.Num (float_of_int r.won));
                      ("pairs", Json.Num (float_of_int r.pairs));
                      ("verdict", Json.Str r.verdict);
                    ] )
            end)
          metrics
      in
      out := (w, Json.Obj rows) :: !out)
    workloads;
  (match write with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Json.to_string_indented (Json.Obj (List.rev !out)));
     output_char oc '\n';
     close_out oc);
  if !regressed then exit 1
