(* The gate checker fails every gate when its value is planted just
   past the bound, and passes it when the value sits on the bound.  A
   NaN and a missing metric fail too. *)

open Gates

let set = Rp_obs.Registry.set

(* The value of [g.metric] just past, and exactly at, its bound [b]. *)
let past g b =
  match g.op with
  | Ge -> Float.pred b
  | Le | Eq -> Float.succ b
  | Lt -> b

let at g b = match g.op with Ge | Le | Eq -> b | Lt -> Float.pred b

(* Plant [v] for the gate's metric with its bound [b]: a constant
   bound is [b] itself, a metric bound sets the other metric. *)
let plant g v =
  let b =
    match g.rhs with
    | Const c -> c
    | Metric (other, plus) ->
      set other 100.;
      100. +. plus
  in
  set g.metric (v g b)

let name g = Printf.sprintf "%s %s %s" g.metric (op_str g.op) (rhs_str g.rhs)
let passes g = Result.is_ok (check g)

let test_bounds () =
  List.iter
    (fun g ->
      plant g at;
      Alcotest.(check bool) (name g ^ " holds on its bound") true (passes g);
      plant g past;
      Alcotest.(check bool) (name g ^ " fails past its bound") false (passes g))
    all

let test_nan () =
  List.iter
    (fun g ->
      plant g at;
      set g.metric Float.nan;
      Alcotest.(check bool) (name g ^ " fails on NaN") false (passes g);
      match g.rhs with
      | Const _ -> ()
      | Metric (other, _) ->
        plant g at;
        set other Float.nan;
        Alcotest.(check bool) (name g ^ " fails on a NaN bound") false
          (passes g))
    all

let test_missing () =
  List.iter
    (fun g ->
      plant g at;
      Rp_obs.Registry.remove g.metric;
      Alcotest.(check bool) (name g ^ " fails when missing") false (passes g);
      match g.rhs with
      | Const _ -> ()
      | Metric (other, _) ->
        plant g at;
        Rp_obs.Registry.remove other;
        Alcotest.(check bool) (name g ^ " fails when its bound is missing")
          false (passes g))
    all

(* [run] checks only the requested sections and reports each failure. *)
let test_run_scope () =
  List.iter (fun g -> Rp_obs.Registry.remove g.metric) all;
  Alcotest.(check int) "no section, no gate" 0
    (List.length (run ~sections:[]));
  let table3 = List.filter (fun g -> g.section = "table3") all in
  Alcotest.(check int) "every table3 gate fails when nothing ran"
    (List.length table3)
    (List.length (run ~sections:[ "table3" ]))

let test_every_section_gated () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " has gates") true
        (List.exists (fun g -> g.section = s) all))
    [ "table2"; "table3"; "fig-shard"; "fig-churn"; "fig-batch";
      "fig-coldstart"; "fig-session"; "fig-latency"; "fig-zipf" ]

let () =
  Alcotest.run "gates"
    [
      ( "checker",
        [
          Alcotest.test_case "planted values" `Quick test_bounds;
          Alcotest.test_case "NaN fails" `Quick test_nan;
          Alcotest.test_case "missing metric fails" `Quick test_missing;
          Alcotest.test_case "run checks requested sections" `Quick
            test_run_scope;
          Alcotest.test_case "every gated figure has gates" `Quick
            test_every_section_gated;
        ] );
    ]
