(** Token-bucket policing plugin, at the congestion gate.

    This is the edge-router profile enforcement the paper motivates
    ("modern edge routers ... enforcing the configured profiles of
    differential service flows", section 2): each bound flow gets a
    token bucket in its flow-record soft state; non-conforming packets
    are dropped (or, with [action=mark], have their TOS/traffic-class
    marked instead).

    Config: [rate] (bytes/sec, default 125000), [burst] (bytes,
    default 16384), [action] (["drop"] | ["mark"], default drop),
    [dscp] (TOS value used by mark, default 1). *)

open Rp_pkt
open Rp_core
open Rp_classifier

let name = "token-bucket"
let gate = Gate.Congestion
let description = "per-flow token-bucket profile enforcement"

type bucket = {
  mutable tokens : float;
  mutable last_ns : int64;
}

type Flow_table.soft += Bucket of bucket

type state = {
  rate : float;  (** bytes per second *)
  burst : float;
  action : [ `Drop | `Mark ];
  dscp : int;
  mutable conformed : int;
  mutable exceeded : int;
}

let instances : (int, state) Hashtbl.t = Hashtbl.create 8

let refill st b ~now =
  let dt = Int64.to_float (Int64.sub now b.last_ns) /. 1e9 in
  if dt > 0.0 then begin
    b.tokens <- Float.min st.burst (b.tokens +. (dt *. st.rate));
    b.last_ns <- now
  end

let handle st (ctx : Plugin.ctx) (m : Mbuf.t) =
  match ctx.Plugin.binding with
  | None ->
    (* Unbound packets are out of scope for this profile. *)
    Plugin.Continue
  | Some b ->
    let bucket =
      match b.Flow_table.soft with
      | Some (Bucket bk) -> bk
      | Some _ | None ->
        let bk = { tokens = st.burst; last_ns = ctx.Plugin.now_ns } in
        b.Flow_table.soft <- Some (Bucket bk);
        bk
    in
    refill st bucket ~now:ctx.Plugin.now_ns;
    let need = float_of_int m.Mbuf.len in
    if bucket.tokens >= need then begin
      bucket.tokens <- bucket.tokens -. need;
      st.conformed <- st.conformed + 1;
      Plugin.Continue
    end
    else begin
      st.exceeded <- st.exceeded + 1;
      match st.action with
      | `Drop -> Plugin.Drop "token bucket exceeded"
      | `Mark ->
        m.Mbuf.tos <- st.dscp;
        Mbuf.add_tag m "out-of-profile";
        Plugin.Continue
    end

let ( let* ) = Result.bind

let create_instance ~instance_id ~code ~config =
  let* action =
    match List.assoc_opt "action" config with
    | Some "mark" -> Ok `Mark
    | Some "drop" | None -> Ok `Drop
    | Some other -> Error (Printf.sprintf "token-bucket: unknown action %S" other)
  in
  let* rate = Plugin.positive_float config "rate" ~default:125_000.0 in
  let* burst = Plugin.positive_float config "burst" ~default:16_384.0 in
  let* dscp =
    Plugin.config_int config "dscp" ~default:1
      ~ok:(fun d -> d >= 0 && d <= 255)
      ~expect:"a TOS byte (0-255)"
  in
  let st = { rate; burst; action; dscp; conformed = 0; exceeded = 0 } in
  Hashtbl.replace instances instance_id st;
  Ok
    (Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
       ~describe:(fun () ->
         Printf.sprintf "token-bucket: rate=%.0fB/s conformed=%d exceeded=%d"
           st.rate st.conformed st.exceeded)
       (fun ctx m -> handle st ctx m))

let counters ~instance_id =
  match Hashtbl.find_opt instances instance_id with
  | Some st -> Some (st.conformed, st.exceeded)
  | None -> None

let message key payload =
  match key with
  | "plugin-info" -> Ok description
  | "stats" ->
    (match int_of_string_opt payload with
     | None -> Error "stats expects an instance id"
     | Some id ->
       (match Hashtbl.find_opt instances id with
        | None -> Error (Printf.sprintf "token-bucket: no instance %d" id)
        | Some st ->
          Ok (Printf.sprintf "conformed=%d exceeded=%d" st.conformed st.exceeded)))
  | _ -> Error (Printf.sprintf "token-bucket: unknown message %s" key)
