(** Synthetic traffic generator (snabb's [Synth] app is the model): a
    pull-driven source that allocates packet descriptors from a
    {!Rp_pkt.Pool} and transmits them onto a {!Rp_pkt.Link}.

    Unlike {!Traffic}, which schedules per-packet injection events on
    the discrete-event simulator, [Synth] is driven by the pump loop:
    each {!pull} fills the downstream link up to its budget, so the
    generator naturally backs off when the pool runs dry (packets in
    flight) or the link is full (downstream slower than the source).
    Deterministic for a given [seed]. *)

open Rp_pkt

type t

(** The default IMIX-ish size mix: 64 B × 7, 594 B × 4, 1500 B × 1. *)
val default_size_mix : (int * int) list

(** Flow-popularity law for the per-packet rank pick: [Uniform] (the
    default — every concurrent flow equally likely) or [Zipf theta],
    the Gray et al skewed generator with exponent [theta] in (0, 1)
    (e.g. 0.99 ≈ the classic YCSB skew): rank r is drawn with
    probability ∝ 1/(r+1)^theta, so a few elephant flows take most
    packets while a long mouse tail keeps the table full. *)
type popularity = Uniform | Zipf of float

(** Per-flow packet budgets: [Unbounded] (the default — the [flows]
    keys live forever) or [Pareto (shape, scale)] heavy-tailed
    lifetimes (inverse-CDF draw, floored at 2 packets).  With bounded
    budgets the generator churns: a flow that exhausts its budget
    retires and a {e fresh} flow id takes over its popularity rank, so
    the concurrent population stays at [flows] while flows continually
    arrive and depart (see {!arrivals}). *)
type flow_packets = Unbounded | Pareto of float * float

(** [create ~pool ()] — packets are drawn from [pool].
    [size_mix] is a [(bytes, weight)] list (default
    {!default_size_mix}); [flows] distinct flow keys are generated
    round-robin by a seeded RNG (default 64, keys via
    {!Traffic.flow_key}); [rate_pps] caps the average generation rate
    against the [now_ns] values passed to {!pull} (default: unlimited
    — generate as fast as the consumer drains).  [popularity] and
    [flow_packets] select the million-user workload shape (defaults
    reproduce the original uniform/immortal behavior draw-for-draw);
    [sweep] (default false) makes the first [flows] packets seed each
    rank exactly once in order, reaching full flow concurrency in
    [flows] packets instead of the coupon-collector tail;
    [keepalive_every] (default 0 = off) makes every k-th post-sweep
    packet refresh the next rank round-robin, bounding any live flow's
    idle gap at [k * flows] packets so long soaks can run expiry
    without the cold Zipf tail aging out wholesale. *)
val create :
  ?seed:int ->
  ?size_mix:(int * int) list ->
  ?flows:int ->
  ?rate_pps:float ->
  ?iface:int ->
  ?popularity:popularity ->
  ?flow_packets:flow_packets ->
  ?sweep:bool ->
  ?keepalive_every:int ->
  pool:Pool.t ->
  unit ->
  t

val pool : t -> Pool.t

(** [pull t ~now_ns link ~max] generates up to [max] packets onto
    [link], returning how many were sent.  Stops early when the link
    fills (counted in {!blocked}), the pool is exhausted (counted in
    {!starved}), or the rate cap for [now_ns] is reached.  The rate
    cap's token bucket holds at most one max-batch: a consumer that
    stalls and resumes gets a budget of [max], not an unbounded
    catch-up burst (forfeits counted in {!capped}). *)
val pull : t -> now_ns:int64 -> Link.t -> max:int -> int

val generated : t -> int

(** Pulls cut short by an exhausted pool. *)
val starved : t -> int

(** Pulls cut short by a full link. *)
val blocked : t -> int

(** Rate-capped pulls whose token deficit exceeded one max-batch and
    was clamped (excess tokens forfeited). *)
val capped : t -> int

(** Fresh flows admitted after a budgeted flow retired (0 unless
    [flow_packets] is [Pareto]); total distinct flow ids emitted is
    [flows + arrivals]. *)
val arrivals : t -> int
