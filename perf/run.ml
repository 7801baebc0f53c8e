(* The timed loop.  One batch of [Gen.batch] packets at a time: the
   generator writes wire bytes (untimed), then the window that counts
   opens — [Mbuf.of_bytes] on every packet, [Engine.submit_batch],
   [Engine.drain] — and closes when drain returns.  The oracle checks
   the drained results after the window. *)

open Rp_pkt
module Engine = Rp_engine.Engine
module Shard = Rp_engine.Shard

let clock () = Int64.to_int (Monotonic_clock.now ())

(* --- statistics ------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* The [q]-quantile of the sorted [a], [q] in [0, 1]: linear
   interpolation between closest ranks. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile a q = quantile_sorted (sorted a) q

let median a = quantile a 0.5

(* The quartiles of Python's [statistics.quantiles(data, n=4)]
   (its default "exclusive" method), so spreads read the same here as
   in any script that checks them. *)
let quartiles a =
  let a = sorted a in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* --- outer spans ------------------------------------------------------ *)

(* One span per batch and stage, kept in memory (the first [span_cap]
   of them verbatim for the Chrome trace, every one in the sums). *)
let kinds = [| "gen"; "parse"; "dispatch"; "check"; "control"; "expire"; "host" |]
let k_gen = 0
let k_parse = 1
let k_dispatch = 2
let k_check = 3
let k_control = 4
let k_expire = 5
let k_host = 6
let span_cap = 20_000

type spans = {
  on : bool;
  kind : int array;
  start : int array;
  dur : int array;
  bid : int array;
  mutable stored : int;
  sums : int array;
  mutable first : int;  (** start of the traced phase *)
  mutable last : int;  (** end of the last span *)
  mutable bookkeeping : int;  (** ns spent recording spans *)
}

(* [on]: record spans (the traced run); storage is only allocated then. *)
let spans ~on =
  let cap = if on then span_cap else 0 in
  {
    on;
    kind = Array.make cap 0;
    start = Array.make cap 0;
    dur = Array.make cap 0;
    bid = Array.make cap 0;
    stored = 0;
    sums = Array.make (Array.length kinds) 0;
    first = 0;
    last = 0;
    bookkeeping = 0;
  }

let span sp k ~bid t0 t1 =
  let i = sp.stored in
  if i < Array.length sp.kind then begin
    sp.kind.(i) <- k;
    sp.start.(i) <- t0;
    sp.dur.(i) <- t1 - t0;
    sp.bid.(i) <- bid;
    sp.stored <- i + 1
  end;
  sp.sums.(k) <- sp.sums.(k) + (t1 - t0);
  if sp.first = 0 then sp.first <- t0;
  sp.last <- t1

let chrome_trace sp =
  let events =
    List.init sp.stored (fun i ->
        Json.Obj
          [
            ("name", Json.Str kinds.(sp.kind.(i)));
            ("ph", Json.Str "X");
            ("ts", Json.Num (float_of_int (sp.start.(i) - sp.first) /. 1e3));
            ("dur", Json.Num (float_of_int sp.dur.(i) /. 1e3));
            ("pid", Json.Num 1.0);
            ("tid", Json.Num 1.0);
            ("args", Json.Obj [ ("batch", Json.Num (float_of_int sp.bid.(i))) ]);
          ])
  in
  Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ns") ]

(* --- meters ----------------------------------------------------------- *)

type meter = {
  mutable pkts : int;
  mutable batches : int;
  mutable ns : int;  (** timed: batch windows plus control and expiry operations *)
  mutable words : int;
  mutable cycles : int;
  mutable parse_ns : int;
  mutable parse_words : int;
  mutable dispatch_ns : int;
  mutable dispatch_words : int;
  mutable ops : int;
  mutable expiries : int;
  mutable attempted : int;
  mutable failed : int;
  mutable nat_checked : int;
  mutable drain_calls : int;
  mutable rejected : int;
}

let meter () =
  {
    pkts = 0;
    batches = 0;
    ns = 0;
    words = 0;
    cycles = 0;
    parse_ns = 0;
    parse_words = 0;
    dispatch_ns = 0;
    dispatch_words = 0;
    ops = 0;
    expiries = 0;
    attempted = 0;
    failed = 0;
    nat_checked = 0;
    drain_calls = 0;
    rejected = 0;
  }

let words () = int_of_float (Gc.minor_words ())

(* --- one batch -------------------------------------------------------- *)

let dummy_key =
  Flow_key.make ~src:Ipaddr.zero_v4 ~dst:Ipaddr.zero_v4 ~proto:0 ~sport:0
    ~dport:0 ~iface:0

let dummy = Mbuf.synth ~key:dummy_key ~len:0 ()
let pkts = Array.make Gen.batch dummy

(* Drained results, in drain order. *)
let res_out = Array.make Gen.batch 0
let res_m = Array.make Gen.batch dummy
let drained = ref 0

let on_result (r : Shard.result) =
  let i = !drained in
  if i < Gen.batch then begin
    res_out.(i) <-
      (match r.Shard.outcome with
       | Shard.Forwarded o -> o
       | Shard.Absorbed -> -1
       | Shard.Dropped _ -> -2);
    res_m.(i) <- r.Shard.m
  end;
  drained := i + 1

(* Every 16th rewritten packet is re-parsed from its forwarded bytes. *)
let nat_ok (s : Gen.slot) (m : Mbuf.t) =
  match m.Mbuf.raw with
  | None -> false
  | Some buf -> (
    match Wire.verify_v4 buf with
    | None -> false
    | Some (src, dst, sport, dport) ->
      if s.Gen.nat = 1 then Ipaddr.equal src Gen.nat_addr && sport = s.Gen.inside_port
      else Ipaddr.equal dst s.Gen.inside && dport = s.Gen.inside_port)

let check (g : Gen.t) mt ~submitted =
  (* every packet submitted must come back, and come back forwarded on
     the interface the generator expected *)
  mt.failed <- mt.failed + abs (submitted - !drained);
  for i = 0 to min submitted !drained - 1 do
    let m = res_m.(i) in
    let s = g.Gen.slots.(m.Mbuf.seq) in
    if res_out.(i) <> s.Gen.out then mt.failed <- mt.failed + 1
    else if s.Gen.nat <> 0 && m.Mbuf.seq land 15 = mt.batches land 15 then begin
      mt.nat_checked <- mt.nat_checked + 1;
      if not (nat_ok s m) then mt.failed <- mt.failed + 1
    end;
    res_m.(i) <- dummy
  done

(* A sharded engine hands results back asynchronously: spin until the
   accepted packets have all drained (or a second passes without one). *)
let drain_all e mt ~accepted =
  ignore (Engine.drain e ~f:on_result);
  mt.drain_calls <- mt.drain_calls + 1;
  if Engine.mode e <> Engine.Inline then begin
    let deadline = ref (clock () + 1_000_000_000) in
    while !drained < accepted && clock () < !deadline do
      let before = !drained in
      ignore (Engine.drain e ~f:on_result);
      if !drained > before then begin
        mt.drain_calls <- mt.drain_calls + 1;
        deadline := clock () + 1_000_000_000
      end
      else Domain.cpu_relax ()
    done
  end

(* One batch whose bytes the generator has already written (from time
   [tg] on, for the gen span).  Returns the window's wall ns. *)
let written (rig : Setup.rig) (g : Gen.t) mt sp ~tg =
  let n = Gen.batch in
  let now = Gen.now g in
  let slots = g.Gen.slots in
  (* --- the timed window: bytes ready .. drain returned --- *)
  let t0 = clock () in
  let w0 = words () in
  let c0 = Rp_core.Cost.get () in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = slots.(i) in
    match Mbuf.of_bytes ~iface:s.Gen.iface s.Gen.buf with
    | Ok m ->
      m.Mbuf.seq <- i;
      pkts.(!k) <- m;
      incr k
    | Error _ -> mt.failed <- mt.failed + 1
  done;
  let t1 = clock () in
  let w1 = words () in
  drained := 0;
  let accepted = Engine.submit_batch rig.Setup.engine ~now pkts ~n:!k in
  drain_all rig.Setup.engine mt ~accepted;
  let t2 = clock () in
  let w2 = words () in
  let c2 = Rp_core.Cost.get () in
  (* --- end of window --- *)
  mt.rejected <- mt.rejected + (!k - accepted);
  check g mt ~submitted:accepted;
  for i = 0 to n - 1 do
    pkts.(i) <- dummy
  done;
  mt.attempted <- mt.attempted + n;
  mt.pkts <- mt.pkts + n;
  mt.ns <- mt.ns + (t2 - t0);
  mt.words <- mt.words + (w2 - w0);
  mt.cycles <- mt.cycles + (c2 - c0);
  mt.parse_ns <- mt.parse_ns + (t1 - t0);
  mt.parse_words <- mt.parse_words + (w1 - w0);
  mt.dispatch_ns <- mt.dispatch_ns + (t2 - t1);
  mt.dispatch_words <- mt.dispatch_words + (w2 - w1);
  mt.batches <- mt.batches + 1;
  if sp.on then begin
    let t3 = clock () in
    let bid = mt.batches in
    span sp k_gen ~bid tg t0;
    span sp k_parse ~bid t0 t1;
    span sp k_dispatch ~bid t1 t2;
    span sp k_check ~bid t2 t3;
    sp.bookkeeping <- sp.bookkeeping + (clock () - t3)
  end;
  t2 - t0

let batch rig (g : Gen.t) mt sp =
  let tg = clock () in
  Gen.fill_batch g ~n:Gen.batch;
  written rig g mt sp ~tg

(* An operation between batches, timed like one: it counts in the
   segment's wall time, allocation and model cycles. *)
let operation mt sp kind f =
  let t0 = clock () in
  let w0 = words () in
  let c0 = Rp_core.Cost.get () in
  f ();
  let t1 = clock () in
  let w1 = words () in
  let c1 = Rp_core.Cost.get () in
  mt.ns <- mt.ns + (t1 - t0);
  mt.words <- mt.words + (w1 - w0);
  mt.cycles <- mt.cycles + (c1 - c0);
  mt.attempted <- mt.attempted + 1;
  if sp.on then span sp kind ~bid:mt.batches t0 t1

let control (rig : Setup.rig) mt sp =
  operation mt sp k_control (fun () -> rig.Setup.control mt.ops);
  mt.ops <- mt.ops + 1

let expire (rig : Setup.rig) (g : Gen.t) mt sp =
  operation mt sp k_expire (fun () -> Setup.expire rig ~now:(Gen.now g));
  mt.expiries <- mt.expiries + 1

(* Untimed warm-up: the same loop, its figures discarded. *)
let warm (w : Setup.workload) rig g =
  let mt = meter () and sp = spans ~on:false in
  for _ = 1 to w.Setup.warmup / Gen.batch do
    ignore (batch rig g mt sp)
  done;
  mt

(* --- host speed ----------------------------------------------------------- *)

(* The shared 2-vCPU host this benchmark was built on changes speed
   under load from elsewhere: a pure-ALU loop runs at full speed or
   about 1.9x slower for seconds to minutes at a time, whole runs
   included, so raw wall-clock figures spread 20-40% between runs.  A
   fixed reference kernel — stdlib code only, nothing from the router —
   is timed right before and after every measured interval, and the
   interval's wall times are scaled by how slow the kernel ran compared
   with its nominal [reference_ns] (see README.md, "Noise").  The
   kernel pairs an ALU-bound chain with updates to a cache-resident
   table, because the router's own slowdown lies between those of the
   two; it allocates nothing, so no collection lands inside it. *)
let reference_ns = 1e6

let reference_table = Array.make 32768 0

let reference () =
  let t0 = clock () in
  let s = ref 0 in
  for i = 1 to 600_000 do
    s := !s + ((i * i) land 7)
  done;
  let x = ref (Sys.opaque_identity !s land 1) in
  for _ = 1 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x7fff;
    reference_table.(!x) <- reference_table.(!x) + 1
  done;
  clock () - t0

(* One probe: how much slower than nominal the host runs right now. *)
let probe sp =
  let t = clock () in
  let r = reference () in
  if sp.on then span sp k_host ~bid:0 t (t + r);
  float_of_int r /. reference_ns

(* How much slower than nominal the host runs around [f]. *)
let slowdown sp f =
  let r0 = probe sp in
  let v = f () in
  (v, (r0 +. probe sp) /. 2.0)

(* Batches between two probes inside a segment.  Interference comes
   and goes faster than a segment lasts, so each stretch of batches is
   scaled by the probes on either side of it, not by the segment's. *)
let probe_every = 256

(* A segment's figures: throughput, then batch-latency quantiles. *)
let figures = [| "throughput_mpps"; "lat_p50_us"; "lat_p75_us"; "lat_p90_us"; "lat_p99_us" |]

let figures_of ~pkts ~ns lat_ns =
  let l = sorted (Array.map (fun ns -> ns /. 1e3) lat_ns) in
  [|
    float_of_int pkts /. ns *. 1e3;
    quantile_sorted l 0.5;
    quantile_sorted l 0.75;
    quantile_sorted l 0.9;
    quantile_sorted l 0.99;
  |]

type segment = {
  wall : float array;  (** [figures] as measured *)
  scaled : float array;  (** [figures] scaled to the nominal host speed *)
  slow : float;  (** the segment's host slowdown, time-weighted *)
}

(* [nseg] segments of [w.segment] packets each, a churning workload's
   starting with a control operation and a session-keeping one's with
   expiry. *)
let segments (w : Setup.workload) (rig : Setup.rig) g mt sp ~nseg =
  let per = w.Setup.segment / Gen.batch in
  let lat = Array.make per 0.0 and lat_scaled = Array.make per 0.0 in
  List.init nseg (fun _ ->
      let pkts0 = mt.pkts and ns0 = mt.ns in
      let scaled_ns = ref 0.0 and last = ref (probe sp) in
      (* run [f], then scale the timed ns it added by the probes around it *)
      let stretch f =
        let ns1 = mt.ns in
        f ();
        let r = probe sp in
        let slow = (!last +. r) /. 2.0 in
        last := r;
        scaled_ns := !scaled_ns +. (float_of_int (mt.ns - ns1) /. slow);
        slow
      in
      if w.Setup.churn || rig.Setup.sessions <> None then
        ignore
          (stretch (fun () ->
               if w.Setup.churn then control rig mt sp;
               if rig.Setup.sessions <> None then expire rig g mt sp));
      let i = ref 0 in
      while !i < per do
        let i0 = !i and n = min probe_every (per - !i) in
        let slow =
          stretch (fun () ->
              for k = i0 to i0 + n - 1 do
                lat.(k) <- float_of_int (batch rig g mt sp)
              done)
        in
        for k = i0 to i0 + n - 1 do
          lat_scaled.(k) <- lat.(k) /. slow
        done;
        i := i0 + n
      done;
      let pkts = mt.pkts - pkts0 and ns = float_of_int (mt.ns - ns0) in
      {
        wall = figures_of ~pkts ~ns lat;
        scaled = figures_of ~pkts ~ns:!scaled_ns lat_scaled;
        slow = ns /. !scaled_ns;
      })

let rss_peak_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          else find ()
        in
        find ())
  with _ -> 0.0

(* Σ per-reason drops must equal the drop total. *)
let drops_reconcile () =
  let sum =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Rp_obs.Drop_reason.table ())
  in
  sum = Rp_obs.Drop_reason.total ()
