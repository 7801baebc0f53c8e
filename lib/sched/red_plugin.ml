(** Random Early Detection queue-management plugin (Floyd & Jacobson;
    the paper lists RED among the protocol enhancements plugins should
    deliver).

    A FIFO queue whose enqueue applies the RED drop test: the average
    queue length is tracked with an EWMA; between [min-th] and
    [max-th] arrivals are dropped with probability growing to [max-p]
    (with the count-based correction from the RED paper), and above
    [max-th] every arrival is dropped.

    Config: [limit] (packets, default 512), [min-th] (default 5),
    [max-th] (default 15), [max-p] (default 0.1), [wq] (EWMA weight,
    default 0.002), [seed] (deterministic PRNG seed, default 42).
    [limit] and [seed] must be positive integers. *)

open Rp_pkt
open Rp_core

let name = "red"
let gate = Gate.Scheduling
let description = "RED (random early detection) queue management"

type state = {
  q : Mbuf.t Ring.t;
  min_th : float;
  max_th : float;
  max_p : float;
  wq : float;
  rng : Random.State.t;
  mutable avg : float;
  mutable count : int;  (** packets since last drop *)
  mutable idle_since : int64;  (** [busy] while the queue holds packets *)
  mutable early_drops : int;
  mutable forced_drops : int;
}

let instances : (int, state) Hashtbl.t = Hashtbl.create 8

(* [idle_since] when the queue has not gone idle since the last
   enqueue. *)
let busy = Int64.min_int

(* RED while-idle correction: when the queue has been empty, age the
   average as if small packets had departed. *)
let update_avg st ~now =
  let qlen = float_of_int (Ring.length st.q) in
  if st.idle_since <> busy && Ring.is_empty st.q then begin
    let idle_s = Int64.to_float (Int64.sub now st.idle_since) /. 1e9 in
    let departures = idle_s *. 1000.0 in
    st.avg <- st.avg *. ((1.0 -. st.wq) ** departures);
    st.idle_since <- busy
  end;
  st.avg <- ((1.0 -. st.wq) *. st.avg) +. (st.wq *. qlen)

let drop_test st =
  if st.avg >= st.max_th then `Forced
  else if st.avg >= st.min_th then begin
    let pb = st.max_p *. (st.avg -. st.min_th) /. (st.max_th -. st.min_th) in
    let pa =
      let denom = 1.0 -. (float_of_int st.count *. pb) in
      if denom <= 0.0 then 1.0 else pb /. denom
    in
    if Random.State.float st.rng 1.0 < pa then `Early else `Pass
  end
  else `Pass

let enqueue st ~now m =
  update_avg st ~now;
  let verdict =
    if Ring.length st.q >= Ring.limit st.q then `Forced else drop_test st
  in
  match verdict with
  | `Forced ->
    st.forced_drops <- st.forced_drops + 1;
    st.count <- 0;
    Plugin.Rejected "red: forced drop"
  | `Early ->
    st.early_drops <- st.early_drops + 1;
    st.count <- 0;
    Plugin.Rejected "red: early drop"
  | `Pass ->
    st.count <- st.count + 1;
    ignore (Ring.push st.q m);
    Plugin.Enqueued

let dequeue st ~now =
  if Ring.is_empty st.q then Mbuf.dummy
  else begin
    let m = Ring.pop st.q in
    if Ring.is_empty st.q then st.idle_since <- now;
    m
  end

let ( let* ) = Result.bind

let threshold config key ~default =
  Plugin.config_float config key ~default ~ok:(fun f -> f >= 0.0)
    ~expect:"a non-negative number"

let create_instance ~instance_id ~code ~config =
  let* min_th = threshold config "min-th" ~default:5.0 in
  let* max_th = threshold config "max-th" ~default:15.0 in
  if min_th >= max_th then Error "red: min-th must be below max-th"
  else begin
    let* limit = Plugin.positive_int config "limit" ~default:512 in
    let* seed = Plugin.positive_int config "seed" ~default:42 in
    let* max_p =
      Plugin.config_float config "max-p" ~default:0.1
        ~ok:(fun p -> p >= 0.0 && p <= 1.0)
        ~expect:"a probability in [0, 1]"
    in
    let* wq =
      Plugin.config_float config "wq" ~default:0.002
        ~ok:(fun w -> w > 0.0 && w <= 1.0)
        ~expect:"a weight in (0, 1]"
    in
    let st =
      {
        q = Ring.create ~limit ~dummy:Mbuf.dummy ();
        min_th;
        max_th;
        max_p;
        wq;
        rng = Random.State.make [| seed |];
        avg = 0.0;
        count = 0;
        idle_since = busy;
        early_drops = 0;
        forced_drops = 0;
      }
    in
    Hashtbl.replace instances instance_id st;
    let scheduler =
      {
        Plugin.enqueue = (fun ~now m _binding -> enqueue st ~now m);
        dequeue = (fun ~now -> dequeue st ~now);
        backlog = (fun () -> Ring.length st.q);
        sched_stats =
          (fun () ->
            [
              ("backlog", string_of_int (Ring.length st.q));
              ("avg", Printf.sprintf "%.2f" st.avg);
              ("early-drops", string_of_int st.early_drops);
              ("forced-drops", string_of_int st.forced_drops);
            ]);
      }
    in
    let base =
      Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
        ~describe:(fun () ->
          Printf.sprintf "red: avg=%.2f early=%d forced=%d" st.avg
            st.early_drops st.forced_drops)
        (fun _ _ -> Plugin.Continue)
    in
    Ok { base with Plugin.scheduler = Some scheduler }
  end

let drops ~instance_id =
  match Hashtbl.find_opt instances instance_id with
  | Some st -> (st.early_drops, st.forced_drops)
  | None -> (0, 0)

let message key payload =
  match key with
  | "plugin-info" -> Ok description
  | "stats" ->
    (match int_of_string_opt payload with
     | None -> Error "stats expects an instance id"
     | Some id ->
       (match Hashtbl.find_opt instances id with
        | None -> Error (Printf.sprintf "red: no instance %d" id)
        | Some st ->
          Ok
            (Printf.sprintf "avg=%.2f backlog=%d early=%d forced=%d" st.avg
               (Ring.length st.q) st.early_drops st.forced_drops)))
  | _ -> Error (Printf.sprintf "red: unknown message %s" key)
