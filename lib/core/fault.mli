(** Fault isolation for plugin invocations.

    The paper's promise is that plugins run "as fast as kernel code"
    without destabilizing the router — which requires that a
    misbehaving plugin cannot crash the data path.  Every gate
    dispatch is wrapped (see {!Ip_core}): an exception escaping a
    handler, or a per-invocation cycle-budget overrun, becomes a
    {e fault}.  Faults are counted, attributed to the plugin instance
    in the {!Pcu}, and converted to a configurable policy; an instance
    faulting too many times in a row is auto-quarantined. *)

(** What the data path does with a packet whose handler faulted. *)
type policy =
  | Drop_packet  (** discard the packet (fail-closed; the default) *)
  | Continue_packet  (** pretend the handler returned [Continue] (fail-open) *)
  | Unbind
      (** quarantine the faulting instance immediately and continue
          the packet on the gate's default path *)

type reason =
  | Exn of string  (** an exception escaped the handler *)
  | Budget of int  (** handler burned this many cycles, over the budget *)

(** What a data-path context reports to the PCU about an instance: a
    contained fault, or the first clean return after one (ending its
    consecutive-fault run). *)
type event =
  | Faulted of int * string  (** instance id, reason *)
  | Recovered of int  (** instance id *)

val policy_name : policy -> string
val policy_of_name : string -> policy option
val reason_to_string : reason -> string
