(* Synthetic traffic source in the snabb "Synth" app mold: a
   pull-driven generator that allocates descriptors from a packet
   Pool and transmits them onto a Link, as fast as the downstream
   stage drains — or up to a configured rate against the caller's
   clock.  Deterministic for a given seed. *)

open Rp_pkt

let default_size_mix = [ (64, 7); (594, 4); (1500, 1) ]

type popularity = Uniform | Zipf of float
type flow_packets = Unbounded | Pareto of float * float

(* Zipf(theta) sampler over ranks 0..n-1, Gray et al's rejection-free
   construction (the YCSB generator): O(n) setup for the harmonic sum,
   O(1) float ops per draw — no alias tables or per-draw allocation,
   which matters at 10^6 ranks. *)
type zipf = {
  z_n : int;
  z_theta : float;
  z_alpha : float;
  z_zetan : float;
  z_eta : float;
  z_half_pow : float;  (* 0.5 ** theta *)
}

let zipf_make n theta =
  if theta <= 0.0 || theta >= 1.0 then
    invalid_arg "Synth.create: Zipf theta must be in (0, 1)";
  let zeta m =
    let s = ref 0.0 in
    for i = 1 to m do
      s := !s +. (1.0 /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  let zeta2 = zeta (min n 2) in
  {
    z_n = n;
    z_theta = theta;
    z_alpha = 1.0 /. (1.0 -. theta);
    z_zetan = zetan;
    z_eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta2 /. zetan));
    z_half_pow = 0.5 ** theta;
  }

let zipf_draw z rng =
  let u = Random.State.float rng 1.0 in
  let uz = u *. z.z_zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. z.z_half_pow then 1
  else
    let r =
      int_of_float
        (float_of_int z.z_n *. (((z.z_eta *. u) -. z.z_eta +. 1.0) ** z.z_alpha))
    in
    if r >= z.z_n then z.z_n - 1 else r

(* Inverse-CDF Pareto: xm / U^(1/shape).  Floored at 2 packets so
   every flow outlives its own setup packet even in the heavy tail's
   complement — a 1-packet flow never exercises the FIX fast path. *)
let pareto_draw rng (shape, scale) =
  let u = 1.0 -. Random.State.float rng 1.0 in
  max 2 (int_of_float (scale /. (u ** (1.0 /. shape))))

type t = {
  pool : Pool.t;
  rng : Random.State.t;
  sizes : int array;  (* one entry per weight unit; uniform pick = mix *)
  flows : int;
  rate_pps : float option;
  iface : int;
  zipf : zipf option;  (* [None] = uniform rank pick (the default) *)
  pareto : (float * float) option;  (* (shape, scale): per-flow budgets *)
  (* Flow churn state, used only when budgets are bounded: [ids.(r)] is
     the flow id currently occupying popularity rank [r] and
     [remaining.(r)] its packet budget; a drained flow retires and a
     fresh id takes over the rank, so the popularity structure is
     stable while the flow population turns over continuously. *)
  ids : int array;
  remaining : int array;
  mutable next_id : int;
  mutable arrivals : int;
  mutable sweep_next : int;  (* next rank to seed; >= [flows] = done *)
  ka_every : int;  (* 0 = no keepalive interleave *)
  mutable ka_tick : int;
  mutable ka_rank : int;  (* next round-robin keepalive rank *)
  mutable start_ns : int64;  (* rate epoch; first pull's [now_ns] *)
  mutable started : bool;
  mutable generated : int;
  mutable starved : int;
  mutable blocked : int;
  mutable capped : int;
}

let create ?(seed = 42) ?(size_mix = default_size_mix) ?(flows = 64)
    ?rate_pps ?(iface = 0) ?(popularity = Uniform) ?(flow_packets = Unbounded)
    ?(sweep = false) ?(keepalive_every = 0) ~pool () =
  if keepalive_every < 0 then invalid_arg "Synth.create: keepalive_every < 0";
  if flows < 1 then invalid_arg "Synth.create: flows < 1";
  (match rate_pps with
   | Some r when r <= 0.0 -> invalid_arg "Synth.create: rate_pps <= 0"
   | _ -> ());
  if size_mix = [] then invalid_arg "Synth.create: empty size mix";
  let sizes =
    List.concat_map
      (fun (len, weight) ->
        if len < 1 || weight < 1 then
          invalid_arg "Synth.create: bad size mix entry";
        List.init weight (fun _ -> len))
      size_mix
    |> Array.of_list
  in
  let rng = Random.State.make [| seed |] in
  let zipf =
    match popularity with
    | Uniform -> None
    | Zipf theta -> Some (zipf_make flows theta)
  in
  let pareto =
    match flow_packets with
    | Unbounded -> None
    | Pareto (shape, scale) ->
      if shape <= 0.0 || scale <= 0.0 then
        invalid_arg "Synth.create: Pareto shape/scale must be positive";
      Some (shape, scale)
  in
  let remaining =
    match pareto with
    | None -> [||]
    | Some p -> Array.init flows (fun _ -> pareto_draw rng p)
  in
  {
    pool;
    rng;
    sizes;
    flows;
    rate_pps;
    iface;
    zipf;
    pareto;
    ids = (match pareto with None -> [||] | Some _ -> Array.init flows Fun.id);
    remaining;
    next_id = flows;
    arrivals = 0;
    sweep_next = (if sweep then 0 else flows);
    ka_every = keepalive_every;
    ka_tick = 0;
    ka_rank = 0;
    start_ns = 0L;
    started = false;
    generated = 0;
    starved = 0;
    blocked = 0;
    capped = 0;
  }

let pool t = t.pool

(* How many packets the rate cap allows in total by [now_ns].  The
   deficit against [generated] is this pull's budget: token-bucket
   behavior, with the bucket depth clamped to one max-batch in [pull]
   — a stalled consumer resumes with at most [max] queued tokens
   instead of an arbitrarily large catch-up burst that would overflow
   the link and inflate txdrops. *)
let allowed t ~now_ns =
  match t.rate_pps with
  | None -> max_int
  | Some rate ->
    let dt_ns = Int64.to_float (Int64.sub now_ns t.start_ns) in
    int_of_float (rate *. dt_ns /. 1e9)

(* Pick the flow id for the next packet.  The sweep phase seeds each
   rank exactly once in order (reaching N concurrent flows in N
   packets, where the coupon-collector tail of pure Zipf draws would
   need orders of magnitude more); after that, ranks come from the
   configured popularity law.  With bounded budgets, a drained rank
   retires its flow and admits a fresh id — one flow departure plus
   one arrival, keeping the concurrent population stable. *)
let next_flow_id t =
  let rank =
    if t.sweep_next < t.flows then begin
      let r = t.sweep_next in
      t.sweep_next <- r + 1;
      r
    end
    else if
      t.ka_every > 0
      && begin
           t.ka_tick <- t.ka_tick + 1;
           t.ka_tick >= t.ka_every
         end
    then begin
      (* Keepalive interleave: every [ka_every]-th packet refreshes
         the next rank round-robin, so even the coldest Zipf-tail flow
         sees a packet at least once per [ka_every * flows] generated
         — an explicit bound on live-flow idle gaps that lets a soak
         run expiry without the tail aging out en masse. *)
      t.ka_tick <- 0;
      let r = t.ka_rank in
      t.ka_rank <- (if r + 1 >= t.flows then 0 else r + 1);
      r
    end
    else
      match t.zipf with
      | None -> Random.State.int t.rng t.flows
      | Some z -> zipf_draw z t.rng
  in
  match t.pareto with
  | None -> rank
  | Some p ->
    let id = t.ids.(rank) in
    let left = t.remaining.(rank) - 1 in
    if left > 0 then t.remaining.(rank) <- left
    else begin
      t.ids.(rank) <- t.next_id;
      t.next_id <- t.next_id + 1;
      t.arrivals <- t.arrivals + 1;
      t.remaining.(rank) <- pareto_draw t.rng p
    end;
    id

let pull t ~now_ns link ~max =
  if not t.started then begin
    t.started <- true;
    t.start_ns <- now_ns
  end;
  let budget =
    match t.rate_pps with
    | None -> max  (* unlimited source: the batch size is the budget *)
    | Some _ ->
      let total = allowed t ~now_ns in
      let b = total - t.generated in
      if b <= max then b
      else begin
        (* Deficit deeper than one batch: forfeit the excess tokens
           (count the clamp) so the next pull starts from a full —
           not overflowing — bucket. *)
        t.capped <- t.capped + 1;
        t.generated <- total - max;
        max
      end
  in
  let sent = ref 0 in
  (try
     while !sent < budget do
       if Link.is_full link then begin
         t.blocked <- t.blocked + 1;
         raise Exit
       end;
       let id = next_flow_id t in
       let len = t.sizes.(Random.State.int t.rng (Array.length t.sizes)) in
       let key = Traffic.flow_key ~iface:t.iface ~id () in
       let m =
         match Pool.alloc t.pool ~key ~len with
         | m -> m
         | exception Pool.Empty ->
           t.starved <- t.starved + 1;
           raise Exit
       in
       m.Mbuf.seq <- t.generated;
       ignore (Link.transmit link m);
       t.generated <- t.generated + 1;
       incr sent
     done
   with Exit -> ());
  !sent

let generated t = t.generated
let starved t = t.starved
let blocked t = t.blocked
let capped t = t.capped
let arrivals t = t.arrivals
