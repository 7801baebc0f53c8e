open Rp_pkt

type soft = ..

type 'a binding = {
  mutable instance : 'a;
  mutable filter : Filter.t;
  mutable soft : soft option;
  mutable owner : Mbuf.fix;
  mutable lent : bool;
}

(* Flat storage: every fixed-size per-record field lives in one native
   int Bigarray, [hot], at [slot * stride + field], three 64-byte lines
   a slot.  The first line is all a probe and a FIX check read: the
   packed meta word, the first word of each address, the generation
   and the state word, beside the last-use time, the route stamp and
   the key hash.  The second holds words 1-3 of each address (zero for
   IPv4) and the creation time; the third the accounting.  Nothing in
   [hot] is an OCaml block, so lookup, insert, evict and account
   traffic allocates no heap words and gives the GC nothing to scan. *)

let stride = 24

(* hot line (offsets 0-7) *)
let f_meta = 0 (* families, proto, ports, iface; see [meta_of] *)
let f_src = 1 (* word 0 of the source address *)
let f_dst = 2 (* word 0 of the destination address *)
let f_gen = 3 (* per-slot generation; FIX validity *)
let f_state = 4 (* bit 0: in use; bit [g + 1]: gate [g]'s binding is live *)
let f_last = 5 (* last_use_ns as a native int *)
let f_route = 6 (* route-table stamp of the cached route; 0 = none *)
let f_hash = 7 (* Flow_key.hash, to reindex a grown index *)

(* key tail (offsets 8-13): source words 1-3, then destination words
   1-3 *)
let f_tail = 8
let f_created = 14

(* accounting (offsets 16-20) *)
let f_packets = 16
let f_bytes = 17
let f_fwd = 18
let f_dropped = 19
let f_absorbed = 20

type 'a t = {
  gates : int;
  (* Table-wide per-gate generation, bumped when a wildcard-ish filter
     change at that gate makes every cached binding there suspect. *)
  gate_gens : int array;
  mutable hot : Index.flat;  (** [stride] ints per slot; see the f_* offsets *)
  mutable slot_gate_gens : Index.flat;  (** per-slot per-gate stamps, [slot*gates+g] *)
  mutable blocks : 'a binding option array;
      (** [slot*gates+g]: the pair's binding block, made by its first
          bind and refilled for every later flow unless it was lent;
          live while the state word's gate bit is set *)
  mutable handles : 'a record array;  (** one preallocated handle per slot *)
  mutable allocated : int;
  max_records : int;
  mutable index : Index.flat;  (** at least twice the record capacity: load <= 1/2 *)
  mutable inspected : int;  (** occupied entries the last probe read *)
  (* Every slot is on one of two lists: [used], the live slots in
     insertion order (the oldest is the one recycled, and [flush],
     [invalidate] and [iter] walk it), or [free], popped from its
     back. *)
  lists : Slot_list.t;
  mutable live : int;
  (* From the first [expire] on, every live slot is also on the wheel
     at its last use, then, plus [idle]: early, never late. *)
  mutable wheel : Wheel.t option;
  mutable idle : int;
  on_evict : gate:int -> 'a binding -> unit;
  mutable exporter : (reason:string -> 'a record -> unit) option;
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_recycled : int;
  mutable s_chain_max : int;
  mutable s_maint_visited : int;
  (* The data path's registry counters, settled at once unless [held]
     (see [hold]). *)
  mutable held : bool;
  c_lookups : Rp_obs.Counter.pending;
  c_hits : Rp_obs.Counter.pending;
  c_misses : Rp_obs.Counter.pending;
  c_acc_packets : Rp_obs.Counter.pending;
  c_acc_bytes : Rp_obs.Counter.pending;
}

(* A record is a stable handle onto a slot: one is preallocated per
   slot and reused for every flow that ever occupies it, so the data
   path never constructs one.  It also holds the slot's cached route
   (valid while [f_route] matches): the egress option it set, the
   gateway, and the destination it was routed for — [keyed_dst] for
   the flow's own destination, which also stands for a directly
   connected route's next hop, so a route cached by a flow's first
   packet keeps none of that packet's addresses. *)
and 'a record = {
  r_tab : 'a t;
  r_slot : int;
  mutable r_out : int option;
  mutable r_hop : Ipaddr.t;
  mutable r_dst : Ipaddr.t;
}

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  recycled : int;
  chain_max : int;
  maint_visited : int;
}

(* Process-wide counters (all tables aggregated); the per-table [stats]
   record remains the precise per-instance view. *)
let m_lookups = Rp_obs.Registry.counter "flow_table.lookups"
let m_hits = Rp_obs.Registry.counter "flow_table.hits"
let m_misses = Rp_obs.Registry.counter "flow_table.misses"
let m_inserts = Rp_obs.Registry.counter "flow_table.inserts"
let m_evictions = Rp_obs.Registry.counter "flow_table.evictions"
let m_recycled = Rp_obs.Registry.counter "flow_table.recycled"
let m_expired = Rp_obs.Registry.counter "flow_table.expired"
let m_acc_packets = Rp_obs.Registry.counter "flow_table.accounted_packets"
let m_acc_bytes = Rp_obs.Registry.counter "flow_table.accounted_bytes"

let used = 0
let free = 1

let default_buckets = 32768
let default_initial = 1024

let[@inline] get t slot field =
  Bigarray.Array1.unsafe_get t.hot ((slot * stride) + field)

let[@inline] set t slot field v =
  Bigarray.Array1.unsafe_set t.hot ((slot * stride) + field) v

(* --- keys as words ------------------------------------------------------

   A key is its meta word, word 0 of each address in the hot line, and
   the addresses' other words in the tail.  Meta packs each address's
   family (bits 0-1) with the protocol (8 bits), the ports (16 each)
   and the interface (20 bits), so two keys are equal exactly when
   these nine words are; an IPv4 address's tail words are 0, so a
   probe compares the tail only when a family bit is set. *)

let v6_src = 1
let v6_dst = 2

let[@inline] meta_of (k : Flow_key.t) =
  (if Ipaddr.is_v6 k.Flow_key.src then v6_src else 0)
  lor (if Ipaddr.is_v6 k.Flow_key.dst then v6_dst else 0)
  lor ((k.Flow_key.proto land 0xFF) lsl 2)
  lor ((k.Flow_key.sport land 0xFFFF) lsl 10)
  lor ((k.Flow_key.dport land 0xFFFF) lsl 26)
  lor ((k.Flow_key.iface land 0xFFFFF) lsl 42)

let[@inline] meta_proto meta = (meta lsr 2) land 0xFF
let[@inline] meta_sport meta = (meta lsr 10) land 0xFFFF
let[@inline] meta_dport meta = (meta lsr 26) land 0xFFFF
let[@inline] meta_iface meta = meta lsr 42

let[@inline] tail t slot j =
  Bigarray.Array1.unsafe_get t.hot ((slot * stride) + f_tail + j)

(* Words 1-3 of [a] against the tail words from [off] (0 = source,
   3 = destination). *)
let tail_is t slot off (a : Ipaddr.t) =
  tail t slot off = Ipaddr.word a 1
  && tail t slot (off + 1) = Ipaddr.word a 2
  && tail t slot (off + 2) = Ipaddr.word a 3

let[@inline] key_at t slot (src : Ipaddr.t) (dst : Ipaddr.t) meta s0 d0 =
  get t slot f_meta = meta
  && get t slot f_src = s0
  && get t slot f_dst = d0
  && (meta land (v6_src lor v6_dst) = 0 || (tail_is t slot 0 src && tail_is t slot 3 dst))

(* [a] against the record's destination words. *)
let dst_is t slot (a : Ipaddr.t) =
  let v6 = get t slot f_meta land v6_dst <> 0 in
  Ipaddr.is_v6 a = v6
  && Ipaddr.word a 0 = get t slot f_dst
  && ((not v6) || tail_is t slot 3 a)

let[@inline] keyed_word t slot ~w0 ~off j =
  if j = 0 then get t slot w0 else tail t slot (off + j - 1)

let prefix_at t slot ~w0 ~off ~v6 p =
  Prefix.matches_words p ~v6 (get t slot w0) (tail t slot off) (tail t slot (off + 1))
    (tail t slot (off + 2))

(* [Filter.matches f] on the record's words. *)
let filter_at t slot (f : Filter.t) =
  let meta = get t slot f_meta in
  prefix_at t slot ~w0:f_src ~off:0 ~v6:(meta land v6_src <> 0) f.Filter.src
  && prefix_at t slot ~w0:f_dst ~off:3 ~v6:(meta land v6_dst <> 0) f.Filter.dst
  && Filter.matches_numbers f ~proto:(meta_proto meta) ~sport:(meta_sport meta)
       ~dport:(meta_dport meta) ~iface:(meta_iface meta)

(* [r_dst] and [r_hop] of a route cached for the destination the flow
   is keyed on, told apart by address. *)
let keyed_dst = Ipaddr.V4 0l

(* An index entry packs a 31-bit hash fingerprint above [slot + 1]: a
   probe reads a record only when the fingerprint matches. *)
let e_bits = 31
let e_mask = (1 lsl e_bits) - 1

let handle t i =
  { r_tab = t; r_slot = i; r_out = None; r_hop = keyed_dst; r_dst = keyed_dst }

let create ?(buckets = default_buckets) ?(initial_records = default_initial)
    ?(max_records = max_int) ?(on_evict = fun ~gate:_ _ -> ()) ~gates () =
  if buckets <= 0 then invalid_arg "Flow_table.create: buckets";
  if gates < 0 || gates > 61 then invalid_arg "Flow_table.create: gates";
  let n = min initial_records max_records in
  let n = max n 0 in
  let t =
    {
      gates;
      gate_gens = Array.make gates 0;
      hot = Index.flat (n * stride);
      slot_gate_gens = Index.flat (n * gates);
      blocks = Array.make (n * gates) None;
      handles = [||];
      allocated = n;
      max_records;
      index = Index.make (max buckets (2 * max n 1));
      inspected = 0;
      lists = Slot_list.create ~lists:2 ~slots:n;
      live = 0;
      wheel = None;
      idle = 0;
      on_evict;
      exporter = None;
      s_lookups = 0;
      s_hits = 0;
      s_misses = 0;
      s_evictions = 0;
      s_recycled = 0;
      s_chain_max = 0;
      s_maint_visited = 0;
      held = false;
      c_lookups = Rp_obs.Counter.pending m_lookups;
      c_hits = Rp_obs.Counter.pending m_hits;
      c_misses = Rp_obs.Counter.pending m_misses;
      c_acc_packets = Rp_obs.Counter.pending m_acc_packets;
      c_acc_bytes = Rp_obs.Counter.pending m_acc_bytes;
    }
  in
  t.handles <- Array.init n (handle t);
  (* Slots pop 0, 1, 2, ... first, like the seed free list. *)
  for i = n - 1 downto 0 do
    Slot_list.push_back t.lists free i
  done;
  t

(* --- record accessors ------------------------------------------------ *)

let slot (r : 'a record) = r.r_slot
let gen (r : 'a record) = get r.r_tab r.r_slot f_gen
let packets (r : 'a record) = get r.r_tab r.r_slot f_packets
let bytes (r : 'a record) = get r.r_tab r.r_slot f_bytes
let fwd (r : 'a record) = get r.r_tab r.r_slot f_fwd
let dropped (r : 'a record) = get r.r_tab r.r_slot f_dropped
let absorbed (r : 'a record) = get r.r_tab r.r_slot f_absorbed
let created_ns (r : 'a record) = get r.r_tab r.r_slot f_created
let last_use_ns (r : 'a record) = get r.r_tab r.r_slot f_last
let meta (r : 'a record) = get r.r_tab r.r_slot f_meta
let proto r = meta_proto (meta r)
let sport r = meta_sport (meta r)
let dport r = meta_dport (meta r)
let iface r = meta_iface (meta r)
let src_v6 r = meta r land v6_src <> 0
let dst_v6 r = meta r land v6_dst <> 0
let src_word (r : 'a record) j = keyed_word r.r_tab r.r_slot ~w0:f_src ~off:0 j
let dst_word (r : 'a record) j = keyed_word r.r_tab r.r_slot ~w0:f_dst ~off:3 j

let key (r : 'a record) =
  let addr v6 w = Ipaddr.of_words ~v6 (w r 0) (w r 1) (w r 2) (w r 3) in
  Flow_key.make ~src:(addr (src_v6 r) src_word) ~dst:(addr (dst_v6 r) dst_word)
    ~proto:(proto r) ~sport:(sport r) ~dport:(dport r) ~iface:(iface r)

let has_key (r : 'a record) (k : Flow_key.t) =
  let src = k.Flow_key.src and dst = k.Flow_key.dst in
  key_at r.r_tab r.r_slot src dst (meta_of k) (Ipaddr.word src 0) (Ipaddr.word dst 0)

let[@inline] bound t slot g = get t slot f_state land (2 lsl g) <> 0

let binding (r : 'a record) ~gate =
  let t = r.r_tab in
  if gate < 0 || gate >= t.gates || not (bound t r.r_slot gate) then None
  else Array.unsafe_get t.blocks ((r.r_slot * t.gates) + gate)

let iter_bindings (r : 'a record) f =
  let t = r.r_tab in
  for g = 0 to t.gates - 1 do
    if bound t r.r_slot g then
      match t.blocks.((r.r_slot * t.gates) + g) with
      | Some b -> f ~gate:g b
      | None -> ()
  done

(* --- the open-addressing index ---------------------------------------

   Every loop below is a top-level recursive function taking its whole
   state as arguments: a nested [let rec] with free variables is a
   heap-allocated closure per call in OCaml's non-flambda compiler
   (and so is a [ref] loop counter), which would put minor-heap words
   on every packet — the one thing this table exists to avoid. *)

let index_insert t slot h =
  Index.insert t.index ~bits:e_bits ~hash:(h land e_mask) (slot + 1)

let index_remove t slot =
  Index.remove t.index ~bits:e_bits ~hash:(get t slot f_hash land e_mask) (slot + 1)

(* The probe: the slot holding the key, or -1; [t.inspected] is left at
   the occupied entries read — a hit at depth d (d entries skipped)
   reads d+1, a miss that skipped d occupied entries before an empty
   one reads d.  No stats, no charges. *)
let rec probe_loop t src dst fp meta s0 d0 mask i n =
  let e = Bigarray.Array1.unsafe_get t.index i in
  if e = 0 then begin
    t.inspected <- n;
    -1
  end
  else
    let slot = (e land e_mask) - 1 in
    if e lsr e_bits = fp && key_at t slot src dst meta s0 d0 then begin
      t.inspected <- n + 1;
      slot
    end
    else probe_loop t src dst fp meta s0 d0 mask ((i + 1) land mask) (n + 1)

let probe t (key : Flow_key.t) h =
  let src = key.Flow_key.src and dst = key.Flow_key.dst in
  let mask = Bigarray.Array1.dim t.index - 1 in
  probe_loop t src dst (h land e_mask) (meta_of key) (Ipaddr.word src 0)
    (Ipaddr.word dst 0) mask (h land mask) 0

(* --- lookup ---------------------------------------------------------- *)

(* Charge model (mirrors the chained table so the Table-3 cost figures
   are unchanged): one access for the home-bucket read, plus one per
   occupied entry inspected along the probe run — a collision-free hit
   costs 2, a miss on an empty home bucket costs 1.  The probe run
   plays the role of the old bucket chain; empty index entries beyond
   the first read are not charged. *)
let find t key ~now =
  t.s_lookups <- t.s_lookups + 1;
  Rp_obs.Counter.note t.c_lookups 1;
  let slot = probe t key (Flow_key.hash key) in
  let inspected = t.inspected in
  Rp_lpm.Access.charge (1 + inspected);
  if inspected > t.s_chain_max then t.s_chain_max <- inspected;
  if slot >= 0 then begin
    t.s_hits <- t.s_hits + 1;
    Rp_obs.Counter.note t.c_hits 1;
    set t slot f_last (Int64.to_int now)
  end
  else begin
    t.s_misses <- t.s_misses + 1;
    Rp_obs.Counter.note t.c_misses 1
  end;
  if not t.held then begin
    Rp_obs.Counter.settle t.c_lookups;
    Rp_obs.Counter.settle t.c_hits;
    Rp_obs.Counter.settle t.c_misses
  end;
  slot

let record_at t slot = t.handles.(slot)

let lookup t key ~now =
  let slot = find t key ~now in
  if slot < 0 then None else Some t.handles.(slot)

(* A data-path frame holds its table: lookups and accounting then
   [note] their registry counters, and [release] settles them, one add
   per counter per frame.  A call on a table nobody holds settles its
   own counters before it returns. *)
let hold t = t.held <- true

let release t =
  t.held <- false;
  Rp_obs.Counter.settle t.c_lookups;
  Rp_obs.Counter.settle t.c_hits;
  Rp_obs.Counter.settle t.c_misses;
  Rp_obs.Counter.settle t.c_acc_packets;
  Rp_obs.Counter.settle t.c_acc_bytes

let[@inline] fix_of t slot = Mbuf.make_fix ~slot ~gen:(get t slot f_gen)

(* The slot [fix] names while its flow still occupies it, else -1. *)
let fix_slot t (fix : Mbuf.fix) =
  if fix < 0 then -1
  else
    let slot = Mbuf.fix_slot fix in
    if slot < t.allocated && get t slot f_state land 1 = 1 && fix_of t slot = fix
    then slot
    else -1

let fix_of_record (r : 'a record) = fix_of r.r_tab r.r_slot

(* --- eviction -------------------------------------------------------- *)

let free_push t slot = Slot_list.push_back t.lists free slot

(* Each live binding block at [i] lets go of its flow: its soft state
   is dropped, so nothing the flow kept stays reachable, and its owner
   is none, so a handle kept past the flow matches no FIX.  A lent
   block may be in another domain's hands: the table drops it instead
   and writes nothing into it. *)
let release_block t i b =
  if b.lent then t.blocks.(i) <- None
  else begin
    if b.soft != None then b.soft <- None;
    b.owner <- Mbuf.no_fix
  end

let evict t slot reason =
  let state = get t slot f_state in
  if state land 1 = 1 then begin
    (* Export the flow record first, while key/accounting/bindings are
       still intact — this is the NetFlow emission point. *)
    (match t.exporter with
     | Some f -> f ~reason t.handles.(slot)
     | None -> ());
    let base = slot * t.gates in
    for g = 0 to t.gates - 1 do
      if state land (2 lsl g) <> 0 then
        match t.blocks.(base + g) with
        | Some b ->
          t.on_evict ~gate:g b;
          release_block t (base + g) b
        | None -> ()
    done;
    index_remove t slot;
    set t slot f_state 0;
    Slot_list.unlink t.lists slot;
    (match t.wheel with Some w -> Wheel.unlink w slot | None -> ());
    t.live <- t.live - 1;
    t.s_evictions <- t.s_evictions + 1;
    Rp_obs.Counter.inc m_evictions
  end

(* [f] on each slot of [used] from [slot] on, newest first or oldest
   first, reading the next slot before [f] may evict this one.  Cost
   is O(live), never O(allocated). *)
let rec walk t f ~newest slot =
  if slot >= 0 then begin
    let next =
      if newest then Slot_list.prev t.lists slot else Slot_list.next t.lists slot
    in
    f slot;
    walk t f ~newest next
  end

(* Grow the record pool exponentially (1024, 2048, 4096, ...), as the
   paper's implementation does, bounded by [max_records].  Existing
   handles are kept (callers hold them), flat storage is blitted, and
   the index is rebuilt at the next power of two whenever doubling the
   records would push its load factor past 1/2. *)
let grow t =
  let current = t.allocated in
  let target = min t.max_records (max 1 (current * 2)) in
  if target > current then begin
    let nhot = Index.flat (target * stride) in
    if current > 0 then
      Bigarray.Array1.blit t.hot
        (Bigarray.Array1.sub nhot 0 (current * stride));
    t.hot <- nhot;
    let ngg = Index.flat (target * t.gates) in
    if current * t.gates > 0 then
      Bigarray.Array1.blit t.slot_gate_gens
        (Bigarray.Array1.sub ngg 0 (current * t.gates));
    t.slot_gate_gens <- ngg;
    let nb = Array.make (target * t.gates) None in
    Array.blit t.blocks 0 nb 0 (current * t.gates);
    t.blocks <- nb;
    t.handles <-
      Array.init target (fun i ->
          if i < current then t.handles.(i) else handle t i);
    Slot_list.grow t.lists ~slots:target;
    (match t.wheel with Some w -> Wheel.grow w ~slots:target | None -> ());
    (* New slots pop lowest-first: current, current+1, ... *)
    for s = target - 1 downto current do
      free_push t s
    done;
    t.allocated <- target;
    if 2 * target > Bigarray.Array1.dim t.index then begin
      t.index <- Index.make (2 * target);
      walk t (fun slot -> index_insert t slot (get t slot f_hash)) ~newest:false
        (Slot_list.first t.lists used)
    end
  end

let[@inline] deadline t slot = get t slot f_last + t.idle + 1

let schedule t slot =
  match t.wheel with Some w -> Wheel.schedule w slot ~at:(deadline t slot) | None -> ()

let rec allocate t =
  let s = Slot_list.last t.lists free in
  if s >= 0 then begin
    Slot_list.unlink t.lists s;
    s
  end
  else if t.allocated < t.max_records then begin
    grow t;
    allocate t
  end
  else begin
    (* Recycle the oldest record (paper: "the oldest flow records
       are recycled"). *)
    let s = Slot_list.first t.lists used in
    if s < 0 then invalid_arg "Flow_table: no record to recycle";
    evict t s "recycled";
    t.s_recycled <- t.s_recycled + 1;
    t.s_evictions <- t.s_evictions - 1;
    Rp_obs.Counter.inc m_recycled;
    Rp_obs.Counter.add m_evictions (-1);
    s
  end

let put_tail t slot off (a : Ipaddr.t) =
  let b = (slot * stride) + f_tail + off in
  Bigarray.Array1.unsafe_set t.hot b (Ipaddr.word a 1);
  Bigarray.Array1.unsafe_set t.hot (b + 1) (Ipaddr.word a 2);
  Bigarray.Array1.unsafe_set t.hot (b + 2) (Ipaddr.word a 3)

let insert t (key : Flow_key.t) ~now =
  let h = Flow_key.hash key in
  (* Silent duplicate scan: no stats or access charges, the caller has
     already paid for its miss. *)
  let old = probe t key h in
  if old >= 0 then begin
    evict t old "replaced";
    free_push t old
  end;
  let slot = allocate t in
  let src = key.Flow_key.src and dst = key.Flow_key.dst in
  set t slot f_meta (meta_of key);
  set t slot f_src (Ipaddr.word src 0);
  set t slot f_dst (Ipaddr.word dst 0);
  put_tail t slot 0 src;
  put_tail t slot 3 dst;
  set t slot f_hash h;
  set t slot f_gen (get t slot f_gen + 1);
  set t slot f_route 0;
  for g = 0 to t.gates - 1 do
    Bigarray.Array1.unsafe_set t.slot_gate_gens ((slot * t.gates) + g)
      t.gate_gens.(g)
  done;
  set t slot f_state 1;
  set t slot f_last (Int64.to_int now);
  set t slot f_created (Int64.to_int now);
  set t slot f_packets 0;
  set t slot f_bytes 0;
  set t slot f_fwd 0;
  set t slot f_dropped 0;
  set t slot f_absorbed 0;
  index_insert t slot h;
  Slot_list.push_back t.lists used slot;
  schedule t slot;
  t.live <- t.live + 1;
  Rp_obs.Counter.inc m_inserts;
  t.handles.(slot)

let remove t (r : 'a record) =
  if get t r.r_slot f_state land 1 = 1 then begin
    evict t r.r_slot "removed";
    free_push t r.r_slot
  end

(* The table joins the wheel at its first pass, and a pass with
   another idle time re-ticks it; either schedules every live record
   again, once. *)
let expire t ~now ~idle_ns =
  let now = Int64.to_int now and idle = min (Int64.to_int idle_ns) Wheel.max_timeout in
  let w =
    match t.wheel with
    | Some w -> w
    | None -> Wheel.create ~slots:t.allocated ~timeout:idle ~now
  in
  if Option.is_none t.wheel || idle <> t.idle then begin
    Wheel.retick w ~timeout:idle;
    t.wheel <- Some w;
    t.idle <- idle;
    walk t (schedule t) ~newest:false (Slot_list.first t.lists used)
  end;
  (* reading ahead the hot, tail and accounting lines and the index home *)
  let read slot =
    get t slot f_last + get t slot f_created + get t slot f_packets
    + Index.home t.index (get t slot f_hash)
  in
  Wheel.pass w ~now ~deadline:(deadline t) ~read ~expired:(fun slot ->
      t.s_maint_visited <- t.s_maint_visited + 1;
      now - get t slot f_last > t.idle
      && begin
        evict t slot "expired";
        free_push t slot;
        Rp_obs.Counter.inc m_expired;
        true
      end)

(* Evict every live record [pred] holds for; returns how many. *)
let sweep t reason pred =
  let n = ref 0 in
  walk t
    (fun slot ->
      t.s_maint_visited <- t.s_maint_visited + 1;
      if pred slot then begin
        evict t slot reason;
        free_push t slot;
        incr n
      end)
    ~newest:true (Slot_list.last t.lists used);
  !n

let flush t = ignore (sweep t "flushed" (fun _ -> true))

let set_exporter t f = t.exporter <- Some f

(* Per-packet flow accounting, keyed off the packet's flow index so it
   costs one generation-checked flat read on top of the field bumps.
   Done once per packet at verdict time; a packet whose record was
   recycled mid-flight (only possible with a bounded table under
   pressure) is simply not attributed. *)
let account t (m : Mbuf.t) ~verdict =
  let slot = fix_slot t m.Mbuf.fix in
  if slot >= 0 then begin
    set t slot f_packets (get t slot f_packets + 1);
    set t slot f_bytes (get t slot f_bytes + m.Mbuf.len);
    (match verdict with
     | `Fwd -> set t slot f_fwd (get t slot f_fwd + 1)
     | `Drop -> set t slot f_dropped (get t slot f_dropped + 1)
     | `Absorb -> set t slot f_absorbed (get t slot f_absorbed + 1));
    Rp_obs.Counter.note t.c_acc_packets 1;
    Rp_obs.Counter.note t.c_acc_bytes m.Mbuf.len;
    if not t.held then begin
      Rp_obs.Counter.settle t.c_acc_packets;
      Rp_obs.Counter.settle t.c_acc_bytes
    end
  end

(* --- per-flow route cache --------------------------------------------- *)

let cached_route t (m : Mbuf.t) ~stamp =
  let slot = fix_slot t m.Mbuf.fix in
  if slot < 0 || get t slot f_route <> stamp then -1
  else
    let h = Array.unsafe_get t.handles slot and dst = m.Mbuf.key.Flow_key.dst in
    match h.r_out with
    | Some out
      when if h.r_dst == keyed_dst then dst_is t slot dst else Ipaddr.equal h.r_dst dst
      ->
      m.Mbuf.out_iface <- h.r_out;
      m.Mbuf.next_hop <- (if h.r_hop == keyed_dst then dst else h.r_hop);
      out
    | Some _ | None -> -1

let cache_route t (m : Mbuf.t) ~stamp =
  let slot = fix_slot t m.Mbuf.fix in
  if slot >= 0 then begin
    let h = t.handles.(slot) and dst = m.Mbuf.key.Flow_key.dst in
    h.r_out <- m.Mbuf.out_iface;
    h.r_hop <- (if m.Mbuf.next_hop == dst then keyed_dst else m.Mbuf.next_hop);
    h.r_dst <- (if dst_is t slot dst then keyed_dst else dst);
    set t slot f_route stamp
  end

(* --- bindings ---------------------------------------------------------- *)

let set_binding t (r : 'a record) ~gate ~filter instance =
  if gate < 0 || gate >= t.gates then invalid_arg "Flow_table.set_binding: gate";
  let slot = r.r_slot in
  let i = (slot * t.gates) + gate and owner = fix_of t slot in
  (match t.blocks.(i) with
   | Some b when not b.lent ->
     if b.instance != instance then b.instance <- instance;
     if b.filter != filter then b.filter <- filter;
     if b.soft != None then b.soft <- None;
     b.owner <- owner
   | Some _ | None ->
     t.blocks.(i) <- Some { instance; filter; soft = None; owner; lent = false });
  set t slot f_state (get t slot f_state lor (2 lsl gate))

let still_bound binding (fix : Mbuf.fix) =
  match binding with
  | Some b when fix >= 0 && b.owner = fix -> binding
  | Some _ | None -> None

let lend = function
  | Some b -> if not b.lent then b.lent <- true
  | None -> ()

(* --- selective invalidation ----------------------------------------- *)

let m_invalidated = Rp_obs.Registry.counter "flow_table.invalidated"

let bump_gate t ~gate =
  if gate < 0 || gate >= t.gates then invalid_arg "Flow_table.bump_gate: gate";
  t.gate_gens.(gate) <- t.gate_gens.(gate) + 1

let gate_stale t (r : 'a record) ~gate =
  Bigarray.Array1.unsafe_get t.slot_gate_gens ((r.r_slot * t.gates) + gate)
  <> t.gate_gens.(gate)

let revalidated t (r : 'a record) ~gate =
  Bigarray.Array1.unsafe_set t.slot_gate_gens ((r.r_slot * t.gates) + gate)
    t.gate_gens.(gate)

let clear_binding t (r : 'a record) ~gate =
  let slot = r.r_slot in
  if bound t slot gate then begin
    let i = (slot * t.gates) + gate in
    (match t.blocks.(i) with
     | Some b ->
       t.on_evict ~gate b;
       release_block t i b
     | None -> ());
    set t slot f_state (get t slot f_state land lnot (2 lsl gate))
  end

(* Evict only the records [f] matches (a changed filter), read from
   their words; each goes through the common [evict] path, so it is
   exported exactly once. *)
let invalidate t f =
  let n = sweep t "invalidated" (fun slot -> filter_at t slot f) in
  Rp_obs.Counter.add m_invalidated n;
  n

let length t = t.live
let capacity t = t.allocated
let max_records t = t.max_records

let stats t =
  {
    lookups = t.s_lookups;
    hits = t.s_hits;
    misses = t.s_misses;
    evictions = t.s_evictions;
    recycled = t.s_recycled;
    chain_max = t.s_chain_max;
    maint_visited = t.s_maint_visited;
  }

let iter f t =
  walk t (fun slot -> f t.handles.(slot)) ~newest:true (Slot_list.last t.lists used)
