(** Hot-path event tracing: per-domain binary event rings behind a
    1-in-N sampling gate, exported as Chrome trace-event JSON.

    Each domain slot owns a fixed-capacity overwrite-oldest ring of
    packed integer events (cycle timestamp, kind, gate, packet id,
    argument).  Recording is single-writer per ring — plain array
    stores plus one atomic head publish — so sampled tracing costs a
    few stores per event and unsampled packets pay one atomic load
    ({!sample}) per packet.  Timestamps are caller-supplied model
    cycles; obs knows nothing about the cost model.

    Tracing does not charge the cycle cost model, so Table-3 style
    modeled results are identical with tracing on or off; the CI
    overhead gate pins that property.

    Control-path operations ({!enable}, {!set_capacity}, dumps) assume
    a quiescent data path (inline mode, or a drained/stopped sharded
    engine) — the pmgr and binary call sites guarantee that. *)

type kind =
  | Pkt_start  (** packet entered the IP core; arg = length in bytes *)
  | Pkt_end  (** verdict reached; ts - start ts = end-to-end latency *)
  | Classify  (** AIU classification done; arg = memory accesses *)
  | Gate_enter  (** gate dispatch began *)
  | Gate_exit  (** gate dispatch ended; arg = memory accesses *)
  | Drop  (** packet dropped *)
  | Fault  (** plugin fault contained; arg = instance id *)
  | Rewrite  (** session NAT header rewrite applied; arg = session id *)

(** [enable ~every] clears the rings and turns tracing on, sampling
    one packet in [every] per domain.  Raises [Invalid_argument] if
    [every <= 0]. *)
val enable : every:int -> unit

val disable : unit -> unit

(** True when tracing is on ([sample_every () > 0]). *)
val on : unit -> bool

(** Current sampling period; 0 when off. *)
val sample_every : unit -> int

(** Drop all buffered events (rings keep their capacity). *)
val clear : unit -> unit

(** Replace all rings with fresh ones of the given per-ring event
    capacity.  Control path only. *)
val set_capacity : int -> unit

val ring_capacity : unit -> int

(** Per-packet sampling decision: 0 if tracing is off or this packet
    is not sampled, otherwise a fresh globally-unique positive packet
    id to stamp on the packet and pass to {!record}. *)
val sample : unit -> int

(** Append one event to the calling domain's ring.  [ts] is a model
    cycle timestamp; [gate] is a gate id or -1; [pkt] is the id from
    {!sample} (or 0 for packet-independent events such as faults). *)
val record : ts:int -> kind:kind -> gate:int -> pkt:int -> arg:int -> unit

type event = {
  ring : int;  (** ring (domain slot) index, the trace [tid] *)
  ts : int;
  kind : kind;
  gate : int;
  pkt : int;
  arg : int;
}

(** All retained events, oldest-first per ring (decode for tests and
    custom exporters). *)
val events : unit -> event list

(** Total events ever recorded (including overwritten ones). *)
val recorded : unit -> int

(** Events lost to ring overwrite. *)
val overwritten : unit -> int

(** Render retained events as Chrome trace-event JSON (loadable in
    about:tracing / Perfetto): one "X" complete event per matched
    gate-enter/exit and packet-start/end pair, one "i" instant event
    per classify/drop/fault; tid = ring index; timestamps converted
    from model cycles to microseconds at [mhz] (default 233, the
    paper's P6 clock).  [gate_name] renders gate ids. *)
val to_chrome_json :
  ?gate_name:(int -> string) -> ?mhz:float -> unit -> string

(** {!to_chrome_json} written to a file. *)
val write_chrome_json :
  ?gate_name:(int -> string) -> ?mhz:float -> string -> unit

(** One-line human-readable state for [pmgr trace status]. *)
val status : unit -> string
