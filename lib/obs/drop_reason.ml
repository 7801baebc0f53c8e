(* The unified drop-reason taxonomy.  Every way the router loses a
   packet — data-path verdicts, ring overflow, pool exhaustion,
   engine backpressure, fragments a reassembler gave up on — funnels
   through [count], which bumps both the per-reason counter and
   [drops.total], so the conservation
   invariant (Σ per-reason == total) holds by construction and the
   tests only have to prove the *wiring*: that each drop site counts
   exactly once, under exactly one reason. *)

type t =
  | Ttl_expired
  | No_route
  | Fault  (** contained plugin fault under the drop policy *)
  | Queue_overflow  (** output queue / qdisc rejected the packet *)
  | Frag_loss  (** partial fragment loss at egress *)
  | Needs_frag  (** fragmentation needed but forbidden (DF / IPv6) *)
  | Frag_evicted
      (** a fragment a reassembler buffered (its verdict was to be
          absorbed) whose datagram then timed out, was evicted or
          refused, or a duplicate replaced *)
  | Conntrack  (** out-of-state drop by connection tracking *)
  | Session_table_full
      (** a session plugin could not open a session: the table is at
          capacity *)
  | Policy  (** a plugin's deliberate deny (firewall, ipsec, ...) *)
  | Link_overflow  (** full inter-stage {!Link} ring *)
  | Pool_exhausted  (** packet {!Pool} had no free descriptor *)
  | Backpressure  (** full engine rx ring at submit time *)
  | Tx_ring_overflow
      (** a shard's result, parked for a router-owned stage, lost to a
          full engine tx ring *)

let all =
  [ Ttl_expired; No_route; Fault; Queue_overflow; Frag_loss; Needs_frag;
    Frag_evicted; Conntrack; Session_table_full; Policy; Link_overflow;
    Pool_exhausted; Backpressure; Tx_ring_overflow ]

let name = function
  | Ttl_expired -> "ttl_expired"
  | No_route -> "no_route"
  | Fault -> "fault"
  | Queue_overflow -> "queue_overflow"
  | Frag_loss -> "frag_loss"
  | Needs_frag -> "needs_frag"
  | Frag_evicted -> "frag_evicted"
  | Conntrack -> "conntrack"
  | Session_table_full -> "session_table_full"
  | Policy -> "policy"
  | Link_overflow -> "link_overflow"
  | Pool_exhausted -> "pool_exhausted"
  | Backpressure -> "backpressure"
  | Tx_ring_overflow -> "tx_ring_overflow"

(* The reasons that arrive as data-path *verdicts*: their counters sum
   to exactly the dropped-verdict counter, ip_core.dropped, which
   every domain writes. *)
let verdict_reasons =
  [ Ttl_expired; No_route; Fault; Queue_overflow; Frag_loss; Needs_frag;
    Conntrack; Session_table_full; Policy ]

(* Eager creation: a dump always shows the whole taxonomy, zeros
   included (registry convention). *)
let m_total = Registry.counter "drops.total"

let counters =
  List.map (fun r -> (r, Registry.counter ("drops.by_reason." ^ name r))) all

let counter r = List.assq r counters

let count r =
  Counter.inc (counter r);
  Counter.inc m_total

let add r n =
  if n > 0 then begin
    Counter.add (counter r) n;
    Counter.add m_total n
  end

let get r = Counter.get (counter r)
let total () = Counter.get m_total

let starts_with ~prefix s =
  let np = String.length prefix in
  String.length s >= np && String.sub s 0 np = prefix

(* Classify a [Dropped why] verdict string.  The exact strings are the
   contract between the drop sites and this table; anything a plugin
   invents (firewall deny, token bucket, ipsec, null route, unknown
   option ...) is a deliberate [Policy] deny. *)
let of_why why =
  match why with
  | "ttl expired" -> Ttl_expired
  | "no route to destination" -> No_route
  | "plugin fault" -> Fault
  | "output queue" -> Queue_overflow
  | "needs fragmentation" -> Needs_frag
  | "session table full" -> Session_table_full
  | _ when starts_with ~prefix:"partial fragment loss" why -> Frag_loss
  | _ when starts_with ~prefix:"conntrack" why -> Conntrack
  | _ -> Policy

let count_why why = count (of_why why)

let table () = List.map (fun r -> (r, get r)) all

let to_string () =
  let lines =
    List.filter_map
      (fun (r, n) ->
        if n = 0 then None else Some (Printf.sprintf "  %-16s %d" (name r) n))
      (table ())
  in
  let lines = if lines = [] then [ "  (no drops)" ] else lines in
  String.concat "\n"
    ((Printf.sprintf "drops: total=%d" (total ())) :: lines)
