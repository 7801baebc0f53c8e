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
  dequeue : now:int64 -> Mbuf.t option;
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

let positive_int config key ~default =
  match List.assoc_opt key config with
  | None -> Ok default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Ok n
      | Some _ | None ->
        Error (Printf.sprintf "%s=%s: not a positive integer" key s))

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
