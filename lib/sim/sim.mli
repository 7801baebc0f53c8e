(** Discrete-event simulation engine.

    Time is in integer nanoseconds.  Events scheduled for the same
    instant fire in scheduling order (a stable tie-break), which keeps
    runs deterministic. *)

type t

val create : unit -> t

(** Current simulation time (ns). *)
val now : t -> int64

(** [at t time f] schedules [f] at absolute [time].
    @raise Invalid_argument if [time] is in the past. *)
val at : t -> int64 -> (unit -> unit) -> unit

(** [after t delay f] schedules [f] at [now + delay]. *)
val after : t -> int64 -> (unit -> unit) -> unit

(** [run t] processes events until the queue is empty or [until]
    (inclusive) is passed; returns the number of events executed. *)
val run : ?until:int64 -> t -> int

(** Pending event count. *)
val pending : t -> int

(** Nanosecond helpers. *)

val ns_of_sec : float -> int64
val sec_of_ns : int64 -> float
