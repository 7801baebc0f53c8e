(** Plugins and plugin instances (paper, section 4).

    A {e plugin} is a loadable code module implementing one network
    function (one gate / plugin type).  An {e instance} is a specific
    run-time configuration of a plugin; instances are what filters
    bind flows to, and what gates call on the data path.

    Every plugin is identified by a 32-bit {e plugin code}: the upper
    16 bits are the plugin type (the gate), the lower 16 bits identify
    the implementation among plugins of that type. *)

open Rp_pkt

(** Verdict of an instance's packet handler. *)
type action =
  | Continue  (** processing proceeds to the next gate *)
  | Drop of string  (** packet discarded, with a reason *)
  | Consumed
      (** the plugin took ownership of the packet (e.g. buffered a
          fragment for reassembly); the core stops processing it
          without counting a drop *)

(** Context passed to a packet handler at a gate.  The data path owns
    one per frame and refills it before each call, so a handler call
    allocates no context: a handler must not keep its [ctx] (or write
    it) after it returns — copy the fields it needs instead. *)
type ctx = {
  mutable now_ns : int64;  (** the packet's clock *)
  mutable binding : t Rp_classifier.Flow_table.binding option;
      (** the flow-record binding that routed the packet here; its
          [soft] slot holds the plugin's per-flow state *)
}

(** A plugin instance.  [handle] is "the main packet processing
    function which is called at the gate" (section 4); [scheduler] is
    present on packet-scheduling instances and drives an output queue
    instead of the inline handler. *)
and t = {
  code : int;  (** plugin code: [gate lsl 16 lor impl] *)
  instance_id : int;
  plugin_name : string;
  gate : Gate.t;
  config : (string * string) list;
  handle : ctx -> Mbuf.t -> action;
  scheduler : scheduler option;
  on_flow_evict : (t Rp_classifier.Flow_table.binding -> unit) option;
      (** called by the AIU when a flow record bound to this instance
          is evicted, so per-flow soft state can be released *)
  describe : unit -> string;
}

(** Output-queue interface of scheduling instances.  [enqueue] is
    called at the scheduling gate with the packet's flow binding (per-
    flow queues live in the binding's soft state); [dequeue] is called
    by the interface driver when the link can transmit, and returns
    the next packet itself, or {!Rp_pkt.Mbuf.dummy} (compared with
    [==]) when the queue has nothing to send: a dequeue allocates no
    option. *)
and scheduler = {
  enqueue :
    now:int64 -> Mbuf.t -> t Rp_classifier.Flow_table.binding option ->
    enq_result;
  dequeue : now:int64 -> Mbuf.t;
  backlog : unit -> int;  (** packets currently queued *)
  sched_stats : unit -> (string * string) list;
}

and enq_result =
  | Enqueued
  | Rejected of string  (** queue full / policy drop *)

(** The module interface a loadable plugin implements — the analogue
    of the registration callback a NetBSD plugin hands the PCU at
    [modload] time. *)
module type PLUGIN = sig
  val name : string
  val gate : Gate.t
  val description : string

  (** [create_instance ~instance_id ~code ~config] allocates an
      instance.  Configuration is a key/value list (e.g.
      [("iface", "1"); ("bandwidth", "1000000")]). *)
  val create_instance :
    instance_id:int -> code:int -> config:(string * string) list ->
    (t, string) result

  (** Plugin-specific control messages ([message key payload]). *)
  val message : string -> string -> (string, string) result
end

(** [code ~gate ~impl] packs a plugin code. *)
val code : gate:Gate.t -> impl:int -> int

val gate_of_code : int -> Gate.t option
val impl_of_code : int -> int

(** [positive_int config key ~default] — [key]'s value in [config] as
    a positive integer, [default] when absent, and an [Error] naming
    the key and value when it is malformed or not positive.  Plugins
    read their queue bounds through it, so a bad bound fails
    [create_instance] instead of silently becoming the default. *)
val positive_int :
  (string * string) list -> string -> default:int -> (int, string) result

(** [positive_float] is {!positive_int} for a finite positive number
    (rates, bursts). *)
val positive_float :
  (string * string) list -> string -> default:float -> (float, string) result

(** [config_int config key ~default ~ok ~expect] — [key]'s value as an
    integer satisfying [ok], [default] when absent, else an [Error]
    saying the value is not [expect] (e.g. ["a TOS byte (0-255)"]).
    [config_float] is the same for a finite number; both readers
    above are instances. *)
val config_int :
  (string * string) list -> string -> default:int -> ok:(int -> bool) ->
  expect:string -> (int, string) result

val config_float :
  (string * string) list -> string -> default:float -> ok:(float -> bool) ->
  expect:string -> (float, string) result

(** Convenience for plugins without per-flow state or scheduling. *)
val simple :
  instance_id:int -> code:int -> plugin_name:string -> gate:Gate.t ->
  ?config:(string * string) list -> ?describe:(unit -> string) ->
  (ctx -> Mbuf.t -> action) -> t
