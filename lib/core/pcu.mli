(** The Plugin Control Unit (paper, section 4): manages loaded plugins
    and dispatches all control-path messages to them.

    [modload] plays the role of the NetBSD [modload] command plus the
    plugin's registration callback; once loaded, a plugin can be asked
    to create instances, instances can be registered (bound to
    filters) with the AIU, and plugin-specific messages can be sent.

    The PCU owns the AIU, because [register_instance] /
    [deregister_instance] are PCU messages that manipulate AIU filter
    tables (paper: "This message would result in a call to a
    registration function that is published by the AIU"). *)

open Rp_classifier

type t

(** [create ()] builds a PCU with an AIU sized to {!Gate.count} gates;
    [max_records] bounds its flow table. *)
val create : ?max_records:int -> unit -> t

val aiu : t -> Plugin.t Aiu.t

(** Control-path operations. *)

val modload : t -> (module Plugin.PLUGIN) -> (unit, string) result
(** Fails if a plugin with the same name is already loaded. *)

val modunload : t -> string -> (unit, string) result
(** Fails while instances of the plugin exist. *)

val is_loaded : t -> string -> bool

val create_instance :
  t -> plugin:string -> (string * string) list -> (Plugin.t, string) result

val free_instance : t -> int -> (unit, string) result
(** Unbinds all the instance's filters and evicts its cached flows. *)

val register_instance : t -> instance:int -> Filter.t -> (unit, string) result
(** Binds [Filter.t] to the instance in the filter table of the
    instance's gate.  The same instance may be registered any number of
    times with different filters. *)

val deregister_instance : t -> instance:int -> Filter.t -> (unit, string) result

val message : t -> plugin:string -> string -> string -> (string, string) result
(** Plugin-specific control message, forwarded to the plugin's
    callback. *)

(** Introspection. *)

val find_instance : t -> int -> Plugin.t option
val instances : t -> Plugin.t list
val plugin_names : t -> string list
val bindings_of : t -> instance:int -> Filter.t list

(** {2 Fault isolation}

    The data path (see {!Ip_core}) reports every contained plugin
    fault here; an instance whose {e consecutive} fault count reaches
    the threshold is flagged for quarantine.  Quarantining tears the
    instance's filter bindings out of the AIU (flushing the flow
    cache) so its traffic degrades to the gate's default path; the
    registration list is kept, so [restore] puts the bindings back. *)

val quarantine_threshold : t -> int

val set_quarantine_threshold : t -> int -> unit
(** @raise Invalid_argument if the threshold is < 1. *)

val record_fault : t -> int -> reason:string -> [ `Ok | `Quarantine ]
(** [record_fault t id ~reason] counts one fault against instance
    [id] ([pcu.faults], [plugin.<name>.<id>.faults]).  Returns
    [`Quarantine] when this fault crossed the consecutive-fault
    threshold; the caller then performs the teardown (via
    {!quarantine}, plus any router-level detach). *)

val record_success : t -> int -> unit
(** Resets the instance's consecutive-fault count. *)

val quarantine : t -> int -> (unit, string) result
(** Fails if the instance does not exist or is already quarantined. *)

val restore : t -> int -> (unit, string) result
(** Re-binds the instance's registered filters and clears the
    quarantine flag and consecutive-fault count. *)

val is_quarantined : t -> int -> bool

type fault_info = {
  instance : Plugin.t;
  total_faults : int;
  consecutive_faults : int;
  quarantined : bool;
  last_fault : string;  (** human-readable reason of the last fault *)
}

val fault_report : t -> fault_info list
(** One entry per live instance, sorted by instance id. *)
