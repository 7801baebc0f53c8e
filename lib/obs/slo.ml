(* End-to-end latency SLOs on the deterministic cost-model clock.

   The data path stamps each packet at ingress with its domain's Cost
   clock and notes the cycle delta at verdict time, so
   latency is *model* latency: reproducible across runs, and — because
   the clock is only read, never charged — invisible to Table-3.

   Histograms are per shard and split by verdict class, plus one
   always-on aggregate that feeds the CSV p50/p99 columns.  When a
   threshold is configured ([set_threshold]), packets that breach it
   (or overflow the top latency bucket) capture an exemplar — flow
   key, per-gate cycle attribution, telemetry trace ref — into
   per-domain lock-free overwrite-oldest rings, the same single-writer
   idiom as Telemetry: plain stores plus one Atomic head bump. *)

type cls = Fwd | Absorb | Drop

let cls_name = function Fwd -> "fwd" | Absorb -> "absorb" | Drop -> "drop"
let cls_index = function Fwd -> 0 | Absorb -> 1 | Drop -> 2
let classes = [| Fwd; Absorb; Drop |]

(* Ingress→verdict latency of every stamped packet; a sampled
   packet's trace spans (Pkt_start to Pkt_end) read the same clock. *)
let latency_bounds =
  [| 2_000; 4_000; 6_000; 8_000; 12_000; 16_000; 24_000; 48_000; 96_000 |]

let top_bound = latency_bounds.(Array.length latency_bounds - 1)

let aggregate = Registry.histogram ~bounds:latency_bounds "slo.latency.cycles"
let m_breaches = Registry.counter "slo.breaches"

let stamping = Atomic.make true
let threshold = Atomic.make 0

let on () = Atomic.get stamping
let set_stamping v = Atomic.set stamping v
let get_threshold () = Atomic.get threshold
let set_threshold n = Atomic.set threshold (max 0 n)

(* Exemplar capture (and the per-gate attribution it needs) only runs
   once an SLO is actually configured; pure stamping stays a two-int
   affair per packet. *)
let armed () = Atomic.get stamping && Atomic.get threshold > 0

let is_breach cycles =
  cycles > top_bound || (Atomic.get threshold > 0 && cycles >= Atomic.get threshold)

(* --- per-shard histogram families ----------------------------------- *)

let max_shards = 64

(* A plain array of families: creation races are benign because
   Registry.histogram is get-or-create under the registry lock, so two
   domains racing on the same shard index end up storing the same
   histograms. *)
let families : Histogram.t array option array = Array.make max_shards None

let family shard =
  let s =
    if shard < 0 then 0 else if shard >= max_shards then max_shards - 1
    else shard
  in
  match families.(s) with
  | Some f -> f
  | None ->
    let f =
      Array.map
        (fun c ->
          Registry.histogram ~bounds:latency_bounds
            (Printf.sprintf "slo.shard%d.%s.cycles" s (cls_name c)))
        classes
    in
    families.(s) <- Some f;
    f

let observe ~shard cls cycles =
  Histogram.observe aggregate cycles;
  Histogram.observe (family shard).(cls_index cls) cycles

(* One domain's tallies in front of the aggregate and its shard's
   class histograms: the data path notes each packet and settles once
   per frame. *)
type pending = { agg : Histogram.pending; by_cls : Histogram.pending array }

let pending ~shard =
  {
    agg = Histogram.pending aggregate;
    by_cls = Array.map Histogram.pending (family shard);
  }

let note p cls cycles =
  Histogram.note p.agg cycles;
  Histogram.note p.by_cls.(cls_index cls) cycles

let settle p =
  Histogram.settle p.agg;
  Array.iter Histogram.settle p.by_cls

(* Created families with observations, for pmgr's tables: newest
   verdict classes of each shard in [classes] order. *)
let shard_table () =
  let rows = ref [] in
  for s = max_shards - 1 downto 0 do
    match families.(s) with
    | None -> ()
    | Some f ->
      Array.iteri
        (fun i h ->
          if Histogram.total h > 0 then
            rows := (s, classes.(i), h) :: !rows)
        f
  done;
  List.rev !rows

(* --- exemplar rings -------------------------------------------------- *)

type exemplar = {
  seq : int;  (* global capture order, 1-based *)
  shard : int;
  cls : cls;
  cycles : int;
  slo : int;  (* configured threshold at capture time *)
  key : string;  (* pre-rendered flow key; obs stays free of lib/pkt *)
  gates : (string * int) list;  (* per-gate cycle attribution, nonzero *)
  trace_pkt : int;  (* telemetry packet id, 0 when the packet was unsampled *)
}

let ring_slots = 16  (* power of two; domain id folds with a mask *)
let ring_capacity = 32

type ring = { data : exemplar option array; head : int Atomic.t }

let rings =
  Array.init ring_slots (fun _ ->
      { data = Array.make ring_capacity None; head = Atomic.make 0 })

let next_seq = Atomic.make 1

let capture ~shard ~cls ~cycles ~key ~gates ~trace_pkt =
  let r = rings.((Domain.self () :> int) land (ring_slots - 1)) in
  let e =
    { seq = Atomic.fetch_and_add next_seq 1; shard; cls; cycles;
      slo = Atomic.get threshold; key; gates; trace_pkt }
  in
  let head = Atomic.get r.head in
  r.data.(head mod ring_capacity) <- Some e;
  Counter.inc m_breaches;
  Atomic.set r.head (head + 1)

let breaches () = Counter.get m_breaches

(* Newest first across all rings.  Like telemetry dumps, reading while
   workers are actively capturing may interleave with overwrites; the
   sanctioned pattern is to read at a quiescent point. *)
let exemplars ?(limit = max_int) () =
  let all =
    Array.fold_left
      (fun acc r ->
        let head = Atomic.get r.head in
        let n = min head ring_capacity in
        let rec take k acc =
          if k >= n then acc
          else
            match r.data.((head - 1 - k) mod ring_capacity) with
            | Some e -> take (k + 1) (e :: acc)
            | None -> take (k + 1) acc
        in
        take 0 acc)
      [] rings
  in
  let sorted = List.sort (fun a b -> compare b.seq a.seq) all in
  List.filteri (fun i _ -> i < limit) sorted

let clear_exemplars () =
  Array.iter
    (fun r ->
      Atomic.set r.head 0;
      Array.fill r.data 0 ring_capacity None)
    rings

let exemplar_to_string e =
  let gates =
    if e.gates = [] then "(no gate attribution)"
    else
      String.concat " "
        (List.map (fun (g, c) -> Printf.sprintf "%s=%d" g c) e.gates)
  in
  let trace =
    if e.trace_pkt = 0 then "untraced"
    else Printf.sprintf "trace pkt %d" e.trace_pkt
  in
  Printf.sprintf "#%d shard%d %s %d cycles (slo %d) %s [%s] %s" e.seq e.shard
    (cls_name e.cls) e.cycles e.slo e.key gates trace

let status () =
  Printf.sprintf
    "slo: stamping %s, threshold %s, %d breach(es) captured, %d exemplar(s) \
     retained"
    (if on () then "on" else "off")
    (let t = get_threshold () in
     if t = 0 then "unset" else Printf.sprintf "%d cycles" t)
    (breaches ())
    (List.length (exemplars ()))
