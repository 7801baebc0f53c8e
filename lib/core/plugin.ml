open Rp_pkt

type action =
  | Continue
  | Drop of string
  | Consumed

type ctx = {
  mutable now_ns : int64;
  mutable binding : t Rp_classifier.Flow_table.binding option;
}

and t = {
  code : int;
  instance_id : int;
  plugin_name : string;
  gate : Gate.t;
  config : (string * string) list;
  handle : ctx -> Mbuf.t -> action;
  scheduler : scheduler option;
  on_flow_evict : (t Rp_classifier.Flow_table.binding -> unit) option;
  describe : unit -> string;
}

and scheduler = {
  enqueue :
    now:int64 -> Mbuf.t -> t Rp_classifier.Flow_table.binding option ->
    enq_result;
  dequeue : now:int64 -> Mbuf.t;
  backlog : unit -> int;
  sched_stats : unit -> (string * string) list;
}

and enq_result =
  | Enqueued
  | Rejected of string

module type PLUGIN = sig
  val name : string
  val gate : Gate.t
  val description : string

  val create_instance :
    instance_id:int -> code:int -> config:(string * string) list ->
    (t, string) result

  val message : string -> string -> (string, string) result
end

let code ~gate ~impl = (Gate.to_int gate lsl 16) lor (impl land 0xFFFF)
let gate_of_code c = Gate.of_int (c lsr 16)
let impl_of_code c = c land 0xFFFF

let config_value parse config key ~default ~ok ~expect =
  match List.assoc_opt key config with
  | None -> Ok default
  | Some s -> (
      match parse (String.trim s) with
      | Some v when ok v -> Ok v
      | Some _ | None -> Error (Printf.sprintf "%s=%s: not %s" key s expect))

let config_int = config_value int_of_string_opt

let config_float config key ~default ~ok ~expect =
  config_value float_of_string_opt config key ~default
    ~ok:(fun f -> Float.is_finite f && ok f)
    ~expect

let positive_int config key ~default =
  config_int config key ~default ~ok:(fun n -> n > 0) ~expect:"a positive integer"

let positive_float config key ~default =
  config_float config key ~default ~ok:(fun f -> f > 0.0) ~expect:"a positive number"

let simple ~instance_id ~code ~plugin_name ~gate ?(config = [])
    ?describe handle =
  let describe =
    match describe with
    | Some d -> d
    | None -> fun () -> Printf.sprintf "%s instance %d" plugin_name instance_id
  in
  {
    code;
    instance_id;
    plugin_name;
    gate;
    config;
    handle;
    scheduler = None;
    on_flow_evict = None;
    describe;
  }
