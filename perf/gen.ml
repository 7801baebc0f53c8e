(* Seeded traffic generators.  Each writes one packet at a time into a
   slot's receive buffer and records what the oracle should see come
   out of the router for it.  The router never sees anything but the
   bytes.

   The popularity and lifetime laws are implemented here rather than
   borrowed from [Rp_sim.Synth], so that the benchmark's inputs do not
   move when the library's own generator changes. *)

open Rp_pkt

let batch = 32

type slot = {
  buf : Bytes.t;
  mutable iface : int;  (** ingress interface *)
  mutable out : int;  (** expected egress interface (forwarded) *)
  mutable nat : int;
      (** rewrite to check: 0 none, 1 forward (source must be the
          SNAT address), 2 reply (destination must be [inside]) *)
  mutable inside : Ipaddr.t;
  mutable inside_port : int;
}

type t = { slots : slot array; fill : slot -> unit; mutable sent : int }

let make fill =
  {
    slots =
      Array.init batch (fun _ ->
          {
            buf = Wire.rx_buffer ();
            iface = 0;
            out = 1;
            nat = 0;
            inside = Ipaddr.zero_v4;
            inside_port = 0;
          });
    fill;
    sent = 0;
  }

let fill_batch g ~n =
  for i = 0 to n - 1 do
    g.fill g.slots.(i)
  done;
  g.sent <- g.sent + n

(* The simulated clock: one packet per microsecond, counted from the
   generator's first packet, so it runs on across warm-up and segments. *)
let now g = Int64.of_int (g.sent * 1000)

let forward s ~iface ~out =
  s.iface <- iface;
  s.out <- out;
  s.nat <- 0

(* --- fwd64 / ctl-churn: uniform over a fixed flow set --------------- *)

(* Flow [i] runs 10.0.(i/256).(i%256) -> 20.((i/256)%4).(i%256).1, so
   the 1024 /24 routes of {!Setup} cover every destination and each
   source /24 holds 256 flows. *)
let flow_src i = Ipaddr.v4 10 0 ((i lsr 8) land 255) (i land 255)
let flow_dst i = Ipaddr.v4 20 ((i lsr 8) land 3) (i land 255) 1

let uniform ~seed ~flows =
  let rng = Random.State.make [| seed; 0xf64 |] in
  let src = Array.init flows flow_src and dst = Array.init flows flow_dst in
  make (fun s ->
      let i = Random.State.int rng flows in
      Wire.write s.buf ~src:src.(i) ~dst:dst.(i) ~proto:Proto.udp
        ~sport:(1024 + i) ~dport:53 ~tcp_flags:0 ~len:64;
      forward s ~iface:0 ~out:1)

(* --- flowchurn: Zipf popularity, Pareto lifetimes, IMIX ------------- *)

(* [Rp_sim.Synth.default_size_mix]: 64 B x 7, 594 B x 4, 1500 B x 1. *)
let imix = [| 64; 64; 64; 64; 64; 64; 64; 594; 594; 594; 594; 1500 |]

(* Gray et al's Zipf(theta) sampler (the YCSB generator): O(n) set-up,
   O(1) per draw. *)
type zipf = { n : int; alpha : float; zetan : float; eta : float; half_pow : float }

let zipf n theta =
  let zeta m =
    let s = ref 0.0 in
    for i = 1 to m do
      s := !s +. (1.0 /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  {
    n;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta 2 /. zetan));
    half_pow = 0.5 ** theta;
  }

let zipf_draw z rng =
  let u = Random.State.float rng 1.0 in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. z.half_pow then 1
  else
    min (z.n - 1)
      (int_of_float (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha)))

(* Inverse-CDF Pareto packet budget, at least 2 packets. *)
let pareto_draw rng ~shape ~scale =
  let u = 1.0 -. Random.State.float rng 1.0 in
  max 2 (int_of_float (scale /. (u ** (1.0 /. shape))))

(* A BGP-like table: 90% IPv4 (55% /24, 20% /22-/23, the rest
   /16-/21), 10% IPv6 /32-/48 inside 2001::/16. *)
let bgp_prefixes ~seed ~count =
  let rng = Random.State.make [| seed; 0xb69 |] in
  Array.init count (fun i ->
      if i mod 10 = 9 then
        Prefix.make
          (Ipaddr.v6
             (Int32.of_int (0x20010000 lor Random.State.int rng 0x10000))
             (Int32.of_int (Random.State.bits rng))
             0l 0l)
          (32 + Random.State.int rng 17)
      else
        let r = Random.State.int rng 100 in
        let len =
          if r < 55 then 24
          else if r < 75 then 22 + Random.State.int rng 2
          else 16 + Random.State.int rng 6
        in
        Prefix.make
          (Ipaddr.v4 (1 + Random.State.int rng 222) (Random.State.int rng 256)
             (Random.State.int rng 256) 0)
          len)

(* Integer mixer (splitmix-style finalizer), non-negative result. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  (x lxor (x lsr 31)) land max_int

(* An address inside [p], host bits taken from [h]. *)
let host_in (p : Prefix.t) h =
  match p.Prefix.addr with
  | Ipaddr.V4 a ->
    let host = 32 - p.Prefix.len in
    Ipaddr.V4 (Int32.logor a (Int32.of_int (h land ((1 lsl host) - 1))))
  | Ipaddr.V6 (hi, _) ->
    let host = 64 - p.Prefix.len in
    Ipaddr.V6
      (Int64.logor hi (Int64.of_int (h land ((1 lsl host) - 1))), Int64.of_int (mix h))

let churn ~seed ~ranks ~prefixes =
  let rng = Random.State.make [| seed; 0xc4a |] in
  let z = zipf ranks 0.99 in
  let budget () = pareto_draw rng ~shape:1.2 ~scale:4.0 in
  let v4 = List.filter (fun p -> Ipaddr.is_v4 p.Prefix.addr) (Array.to_list prefixes) in
  let v6 = List.filter (fun p -> Ipaddr.is_v6 p.Prefix.addr) (Array.to_list prefixes) in
  let v4 = Array.of_list v4 and v6 = Array.of_list v6 in
  (* [ids.(r)] is the flow occupying popularity rank [r]; when its
     budget runs out a fresh flow takes the rank over, so flows keep
     arriving while the popularity law stays put. *)
  let ids = Array.init ranks Fun.id in
  let left = Array.init ranks (fun _ -> budget ()) in
  let next_id = ref ranks in
  let salt = mix (seed + 1) in
  make (fun s ->
      let r = zipf_draw z rng in
      let id = ids.(r) in
      if left.(r) > 1 then left.(r) <- left.(r) - 1
      else begin
        ids.(r) <- !next_id;
        incr next_id;
        left.(r) <- budget ()
      end;
      let h1 = mix (id lxor salt) in
      let h2 = mix h1 and h3 = mix (h1 + 1) in
      let six = h1 mod 5 = 0 in
      let dst =
        if six then host_in v6.((h1 lsr 8) mod Array.length v6) h2
        else host_in v4.((h1 lsr 8) mod Array.length v4) h2
      in
      let src =
        if six then Ipaddr.V6 (0x2001_0db8_0000_0000L, Int64.of_int h3)
        else
          Ipaddr.v4 (1 + (h3 mod 222)) ((h3 lsr 8) land 255)
            ((h3 lsr 16) land 255) ((h3 lsr 24) land 255)
      in
      let proto = if (h1 lsr 5) land 1 = 0 then Proto.udp else Proto.tcp in
      Wire.write s.buf ~src ~dst ~proto
        ~sport:(1024 + ((h3 lsr 32) mod 50000))
        ~dport:[| 53; 80; 443; 123; 8080 |].(h2 mod 5)
        ~tcp_flags:0x10
        ~len:imix.(Random.State.int rng (Array.length imix));
      forward s ~iface:0 ~out:1)

(* --- nat-drr: bidirectional conversations through SNAT -------------- *)

let nat_addr = Ipaddr.v4 198 51 100 7

let fin = 0x01
let syn = 0x02
let psh = 0x08
let ack = 0x10

type conv = { mutable c : int; mutable tcp : bool; mutable step : int; mutable last : int }

(* [live] concurrent conversations, each picked uniformly per packet.
   A TCP conversation is SYN, SYN-ACK, 2-16 rounds of a 1500 B data
   segment and a 40 B ACK, then FIN each way; a UDP one is 1-8 rounds
   of a 128 B request and a 512 B response.  A finished conversation is
   replaced by a fresh one.  Conversation [c] runs between
   10.(c>>16).(c>>8).c and 198.18.(c>>8).c with client port
   1024 + (c>>16), so no reply tuple is ever reused. *)
let conversations ~seed ~live =
  let rng = Random.State.make [| seed; 0xda7 |] in
  let next = ref 0 in
  let fresh cv =
    cv.c <- !next;
    incr next;
    cv.tcp <- Random.State.int rng 4 <> 0;
    cv.step <- 0;
    cv.last <-
      (if cv.tcp then 4 + (2 * (2 + Random.State.int rng 15))
       else 2 * (1 + Random.State.int rng 8))
  in
  let convs =
    Array.init live (fun _ ->
        let cv = { c = 0; tcp = false; step = 0; last = 0 } in
        fresh cv;
        cv)
  in
  make (fun s ->
      let cv = convs.(Random.State.int rng live) in
      let c = cv.c and st = cv.step in
      let inside = Ipaddr.v4 10 ((c lsr 16) land 255) ((c lsr 8) land 255) (c land 255) in
      let server = Ipaddr.v4 198 18 ((c lsr 8) land 255) (c land 255) in
      let port = 1024 + (c lsr 16) in
      let proto, service = if cv.tcp then (Proto.tcp, 80) else (Proto.udp, 53) in
      let fwd, len, flags =
        if not cv.tcp then
          if st land 1 = 0 then (true, 128, 0) else (false, 512, 0)
        else if st = 0 then (true, 40, syn)
        else if st = 1 then (false, 40, syn lor ack)
        else if st >= cv.last - 2 then (st = cv.last - 2, 40, fin lor ack)
        else if st land 1 = 0 then (true, Wire.max_datagram, psh lor ack)
        else (false, 40, ack)
      in
      if fwd then begin
        Wire.write s.buf ~src:inside ~dst:server ~proto ~sport:port ~dport:service
          ~tcp_flags:flags ~len;
        s.iface <- 0;
        s.out <- 1;
        s.nat <- 1
      end
      else begin
        Wire.write s.buf ~src:server ~dst:nat_addr ~proto ~sport:service ~dport:port
          ~tcp_flags:flags ~len;
        s.iface <- 1;
        s.out <- 0;
        s.nat <- 2
      end;
      s.inside <- inside;
      s.inside_port <- port;
      cv.step <- st + 1;
      if cv.step >= cv.last then fresh cv)
