(** Gates — the points in the IP core where execution branches off to
    a plugin instance (paper, section 3.2).

    The first four are the gates of the paper's implementation (IPv6
    option processing, IP security on the input and output paths,
    packet scheduling); the remainder are the plugin types the paper
    lists as envisioned (routing, congestion control, statistics,
    firewall), which this reproduction also implements. *)

type t =
  | Ip_options
  | Security_in
  | Firewall
  | Routing
  | Congestion
  | Security_out
  | Scheduling
  | Stats

(** Gates in data-path order. *)
val all : t list

(** Number of gates; AIU filter tables and flow-record binding arrays
    are indexed [0 .. count-1]. *)
val count : int

val to_int : t -> int
val of_int : int -> t option
val name : t -> string
val of_name : string -> t option
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** Per-gate data-path counters ([gate.<name>.dispatch] / [.cycles] /
    [.drops] / [.faults]).  One process-wide set, written by every
    domain's data-path context — the router's and each engine shard's —
    so on either engine a read is the total over all domains. *)

val dispatch : t -> Rp_obs.Counter.t
val cycles : t -> Rp_obs.Counter.t
val drops : t -> Rp_obs.Counter.t
val faults : t -> Rp_obs.Counter.t
