(* Per-domain binary event rings behind a 1-in-N sampling gate.

   Each domain slot owns one ring: the hot path writes only to the
   ring indexed by its own domain id (masked, like Counter stripes),
   so recording is single-writer per ring and needs no lock — just
   plain int-array stores plus one Atomic head bump.  Rings are fixed
   capacity and overwrite oldest; a dump decodes whatever survived.

   Events are packed [stride] ints: cycle timestamp, kind, gate id,
   packet id, argument.  Timestamps come from the caller (the cycle
   cost model lives in lib/core; obs stays dependency-free), and the
   Chrome export converts model cycles to trace microseconds with a
   caller-supplied clock rate.

   Dumps read rings written by other domains.  Writers publish each
   event with an [Atomic.set] on the ring head (a release store), so a
   dump that reads the head first sees every slot the head covers;
   dumps taken while workers are actively tracing may still interleave
   with overwrites — the sanctioned pattern is to dump at a quiescent
   point (inline mode, or after the sharded engine drained/stopped),
   which is what pmgr and the binaries do. *)

type kind =
  | Pkt_start
  | Pkt_end
  | Classify
  | Gate_enter
  | Gate_exit
  | Drop
  | Fault
  | Rewrite

let kind_to_int = function
  | Pkt_start -> 0
  | Pkt_end -> 1
  | Classify -> 2
  | Gate_enter -> 3
  | Gate_exit -> 4
  | Drop -> 5
  | Fault -> 6
  | Rewrite -> 7

let kind_of_int = function
  | 0 -> Pkt_start
  | 1 -> Pkt_end
  | 2 -> Classify
  | 3 -> Gate_enter
  | 4 -> Gate_exit
  | 5 -> Drop
  | 7 -> Rewrite
  | _ -> Fault

let stride = 5

(* Power of two so the domain-id fold is a mask (mirrors Counter). *)
let slots = 16

type ring = {
  data : int array;
  head : int Atomic.t;  (* total events ever written to this ring *)
  mutable countdown : int;  (* sampling countdown, owner-domain only *)
}

let default_capacity = 4096

let make_ring cap =
  { data = Array.make (cap * stride) 0; head = Atomic.make 0; countdown = 0 }

let rings = ref (Array.init slots (fun _ -> make_ring default_capacity))
let capacity = ref default_capacity

(* 0 = tracing off; N = record every Nth sampled packet. *)
let sampling = Atomic.make 0

(* Globally unique positive packet ids, so spans from different
   domains never collide in the dump. *)
let next_pkt = Atomic.make 1

let m_sampled = Registry.counter "telemetry.sampled_packets"
let m_events = Registry.counter "telemetry.events"

let on () = Atomic.get sampling > 0
let sample_every () = Atomic.get sampling

let clear () =
  Array.iter
    (fun r ->
      Atomic.set r.head 0;
      r.countdown <- 0)
    !rings

let enable ~every =
  if every <= 0 then invalid_arg "Telemetry.enable: every must be positive";
  clear ();
  Atomic.set sampling every

let disable () = Atomic.set sampling 0

let set_capacity cap =
  if cap <= 0 then invalid_arg "Telemetry.set_capacity";
  capacity := cap;
  rings := Array.init slots (fun _ -> make_ring cap)

let ring_capacity () = !capacity

let[@inline] my_ring () = !rings.((Domain.self () :> int) land (slots - 1))

(* Sampling decision for one packet: returns 0 (not sampled, or
   tracing off) or a fresh packet id.  The countdown is ring-local, so
   each domain samples every Nth of *its own* packets without sharing
   a cache line. *)
let sample () =
  let every = Atomic.get sampling in
  if every = 0 then 0
  else begin
    let r = my_ring () in
    if r.countdown > 1 then begin
      r.countdown <- r.countdown - 1;
      0
    end
    else begin
      r.countdown <- every;
      Counter.inc m_sampled;
      Atomic.fetch_and_add next_pkt 1
    end
  end

let record ~ts ~kind ~gate ~pkt ~arg =
  let r = my_ring () in
  let cap = Array.length r.data / stride in
  let head = Atomic.get r.head in
  let i = head mod cap * stride in
  r.data.(i) <- ts;
  r.data.(i + 1) <- kind_to_int kind;
  r.data.(i + 2) <- gate;
  r.data.(i + 3) <- pkt;
  r.data.(i + 4) <- arg;
  Counter.inc m_events;
  Atomic.set r.head (head + 1)

type event = {
  ring : int;
  ts : int;
  kind : kind;
  gate : int;
  pkt : int;
  arg : int;
}

(* Decode one ring oldest-first: of [head] events ever written only
   the last [cap] survive. *)
let ring_events idx =
  let r = !rings.(idx) in
  let cap = Array.length r.data / stride in
  let head = Atomic.get r.head in
  let first = if head > cap then head - cap else 0 in
  List.init (head - first) (fun k ->
      let i = (first + k) mod cap * stride in
      {
        ring = idx;
        ts = r.data.(i);
        kind = kind_of_int r.data.(i + 1);
        gate = r.data.(i + 2);
        pkt = r.data.(i + 3);
        arg = r.data.(i + 4);
      })

let events () = List.concat (List.init slots ring_events)

let recorded () =
  Array.fold_left (fun acc r -> acc + Atomic.get r.head) 0 !rings

let overwritten () =
  Array.fold_left
    (fun acc r ->
      let cap = Array.length r.data / stride in
      let h = Atomic.get r.head in
      acc + if h > cap then h - cap else 0)
    0 !rings

(* --- Chrome trace-event export ------------------------------------- *)

(* One "X" (complete) event per matched enter/exit pair, one "i"
   (instant) event per classify/drop/fault; pid 0, tid = ring index,
   ts/dur in trace microseconds converted from model cycles at [mhz].
   Loadable in about:tracing and Perfetto. *)
let to_chrome_json ?(gate_name = string_of_int) ?(mhz = 233.0) () =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let us ts = float_of_int ts /. mhz in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n";
    Buffer.add_string b s
  in
  let complete ~name ~cat ~tid ~ts ~dur ~args =
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
          \"pid\":0,\"tid\":%d,\"args\":{%s}}"
         name cat (us ts) (us (dur - ts)) tid args)
  in
  let instant ~name ~cat ~tid ~ts ~args =
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\
          \"pid\":0,\"tid\":%d,\"args\":{%s}}"
         name cat (us ts) tid args)
  in
  for idx = 0 to slots - 1 do
    (* Pending opens, keyed so nested packets (ICMP generated inside a
       packet's own processing) pair correctly: packet ids are unique,
       and a (pkt, gate) pair is open at most once at a time. *)
    let open_pkts : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let open_gates : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match e.kind with
        | Pkt_start -> Hashtbl.replace open_pkts e.pkt e.ts
        | Pkt_end -> (
            match Hashtbl.find_opt open_pkts e.pkt with
            | Some t0 ->
              Hashtbl.remove open_pkts e.pkt;
              complete ~name:"packet" ~cat:"packet" ~tid:idx ~ts:t0
                ~dur:e.ts
                ~args:(Printf.sprintf "\"pkt\":%d" e.pkt)
            | None -> ())
        | Gate_enter -> Hashtbl.replace open_gates (e.pkt, e.gate) e.ts
        | Gate_exit -> (
            match Hashtbl.find_opt open_gates (e.pkt, e.gate) with
            | Some t0 ->
              Hashtbl.remove open_gates (e.pkt, e.gate);
              complete
                ~name:("gate." ^ gate_name e.gate)
                ~cat:"gate" ~tid:idx ~ts:t0 ~dur:e.ts
                ~args:
                  (Printf.sprintf "\"pkt\":%d,\"accesses\":%d" e.pkt e.arg)
            | None -> ())
        | Classify ->
          instant ~name:"classify" ~cat:"classify" ~tid:idx ~ts:e.ts
            ~args:(Printf.sprintf "\"pkt\":%d,\"accesses\":%d" e.pkt e.arg)
        | Drop ->
          instant ~name:"drop" ~cat:"verdict" ~tid:idx ~ts:e.ts
            ~args:(Printf.sprintf "\"pkt\":%d" e.pkt)
        | Fault ->
          instant
            ~name:("fault." ^ gate_name e.gate)
            ~cat:"fault" ~tid:idx ~ts:e.ts
            ~args:(Printf.sprintf "\"pkt\":%d,\"instance\":%d" e.pkt e.arg)
        | Rewrite ->
          instant ~name:"rewrite" ~cat:"session" ~tid:idx ~ts:e.ts
            ~args:(Printf.sprintf "\"pkt\":%d,\"session\":%d" e.pkt e.arg))
      (ring_events idx)
  done;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_chrome_json ?gate_name ?mhz path =
  let oc = open_out path in
  output_string oc (to_chrome_json ?gate_name ?mhz ());
  close_out oc

let status () =
  let every = Atomic.get sampling in
  let state =
    if every = 0 then "off" else Printf.sprintf "on, sampling 1-in-%d" every
  in
  Printf.sprintf
    "trace: %s (capacity %d x %d rings, %d event(s) recorded, %d overwritten)"
    state !capacity slots (recorded ()) (overwritten ())
