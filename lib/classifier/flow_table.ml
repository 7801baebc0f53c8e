open Rp_pkt

type soft = ..

type 'a binding = {
  instance : 'a;
  mutable filter : Filter.t option;
  mutable soft : soft option;
}

(* Flat storage: every fixed-size per-record field lives in one native
   int Bigarray, [hot], at [slot * stride + field].  The first eight
   fields of a slot share one 64-byte cache line, ordered so a probe
   touches only the front of the line (hash, packed tuple, generation,
   liveness) and leaves accounting in the back half.  Nothing in [hot]
   is an OCaml block, so steady-state lookup/insert/evict/account
   traffic allocates no heap words and gives the GC nothing to scan.
   Offset 6 is spare; offset 7 stamps the route cached with the flow
   (see [cached_route]). *)

let stride = 16

(* hot line (offsets 0-7) *)
let f_hash = 0 (* Flow_key.hash, cached for probes and index removal *)
let f_meta = 1 (* packed proto/sport/dport/iface, a one-word prefilter *)
let f_gen = 2 (* per-slot generation; FIX validity *)
let f_in_use = 3
let f_last = 4 (* last_use_ns as a native int *)
let f_created = 5
let f_route = 7 (* route-table stamp of the cached route; 0 = none *)

(* accounting (offsets 8-12) *)
let f_packets = 8
let f_bytes = 9
let f_fwd = 10
let f_dropped = 11
let f_absorbed = 12

type flat = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type 'a t = {
  gates : int;
  (* Table-wide per-gate generation, bumped when a wildcard-ish filter
     change at that gate makes every cached binding there suspect. *)
  gate_gens : int array;
  mutable hot : flat;  (** [stride] ints per slot; see the f_* offsets *)
  mutable slot_gate_gens : flat;  (** per-slot per-gate stamps, [slot*gates+g] *)
  mutable bindings : 'a binding option array;  (** [slot*gates+g] *)
  mutable keys : Flow_key.t array;  (** boxed key per slot (dummy when free) *)
  mutable handles : 'a record array;  (** one preallocated handle per slot *)
  mutable some_handles : 'a record option array;
      (** [Some handles.(i)], preallocated so lookups return without
          allocating *)
  mutable allocated : int;
  max_records : int;
  (* Open-addressing index: power-of-two array of [slot + 1] entries
     (0 = empty), linear probing, kept at least twice the record
     capacity so the load factor never exceeds 1/2.  Deletion is
     backward-shift (no tombstones), using the home hash cached in
     [hot]. *)
  mutable index : flat;
  mutable mask : int;
  (* Every slot is on one of two lists: [used], the live slots in
     insertion order (the oldest is the one recycled, and sweeps walk
     it), or [free], popped from its back. *)
  lists : Slot_list.t;
  mutable live : int;
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
   path never constructs one.  It also holds the slot's heap-valued
   per-flow state, built once per flow so hits allocate nothing: the
   FIX option handed to packets (valid while its generation is the
   slot's), and the cached route (valid while [f_route] matches): the
   options it set and the destination it was routed for. *)
and 'a record = {
  r_tab : 'a t;
  r_slot : int;
  mutable r_fix : Mbuf.fix option;
  mutable r_out : int option;
  mutable r_hop : Ipaddr.t option;
  mutable r_dst : Ipaddr.t;  (** routed for; [keyed_dst] = the key's *)
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

let dummy_key =
  Flow_key.make ~src:Ipaddr.zero_v4 ~dst:Ipaddr.zero_v4 ~proto:0 ~sport:0
    ~dport:0 ~iface:0

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

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let[@inline] get t slot field =
  Bigarray.Array1.unsafe_get t.hot ((slot * stride) + field)

let[@inline] set t slot field v =
  Bigarray.Array1.unsafe_set t.hot ((slot * stride) + field) v

let flat_make n =
  let a = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n in
  Bigarray.Array1.fill a 0;
  a

(* Pack the non-address tuple fields into one word: equal metas plus
   equal cached hashes make a full (boxed) key comparison almost
   certainly a match, so probes stay in flat memory until then. *)
let[@inline] meta_of (k : Flow_key.t) =
  k.Flow_key.proto land 0xFF
  lor ((k.Flow_key.sport land 0xFFFF) lsl 8)
  lor ((k.Flow_key.dport land 0xFFFF) lsl 24)
  lor (k.Flow_key.iface lsl 40)

(* [r_dst] of a route cached for the destination the flow is keyed on,
   told apart by address: an unrewritten flow stores no packet's
   address and compares against its key. *)
let keyed_dst = Ipaddr.V4 0l

let handle t i =
  { r_tab = t; r_slot = i; r_fix = None; r_out = None; r_hop = None;
    r_dst = keyed_dst }

let create ?(buckets = default_buckets) ?(initial_records = default_initial)
    ?(max_records = max_int) ?(on_evict = fun ~gate:_ _ -> ()) ~gates () =
  if buckets <= 0 then invalid_arg "Flow_table.create: buckets";
  let n = min initial_records max_records in
  let n = max n 0 in
  let index_size = next_pow2 (max buckets (2 * max n 1)) in
  let t =
    {
      gates;
      gate_gens = Array.make gates 0;
      hot = flat_make (n * stride);
      slot_gate_gens = flat_make (n * gates);
      bindings = Array.make (n * gates) None;
      keys = Array.make n dummy_key;
      handles = [||];
      some_handles = [||];
      allocated = n;
      max_records;
      index = flat_make index_size;
      mask = index_size - 1;
      lists = Slot_list.create ~lists:2 ~slots:n;
      live = 0;
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
  t.some_handles <- Array.init n (fun i -> Some t.handles.(i));
  (* Slots pop 0, 1, 2, ... first, like the seed free list. *)
  for i = n - 1 downto 0 do
    Slot_list.push_back t.lists free i
  done;
  t

(* --- record accessors ------------------------------------------------ *)

let slot (r : 'a record) = r.r_slot
let gen (r : 'a record) = get r.r_tab r.r_slot f_gen
let key (r : 'a record) = r.r_tab.keys.(r.r_slot)
let packets (r : 'a record) = get r.r_tab r.r_slot f_packets
let bytes (r : 'a record) = get r.r_tab r.r_slot f_bytes
let fwd (r : 'a record) = get r.r_tab r.r_slot f_fwd
let dropped (r : 'a record) = get r.r_tab r.r_slot f_dropped
let absorbed (r : 'a record) = get r.r_tab r.r_slot f_absorbed
let created_ns (r : 'a record) = get r.r_tab r.r_slot f_created
let last_use_ns (r : 'a record) = get r.r_tab r.r_slot f_last

let binding (r : 'a record) ~gate =
  if gate >= r.r_tab.gates then None
  else r.r_tab.bindings.((r.r_slot * r.r_tab.gates) + gate)

let iter_bindings (r : 'a record) f =
  let base = r.r_slot * r.r_tab.gates in
  for g = 0 to r.r_tab.gates - 1 do
    match r.r_tab.bindings.(base + g) with
    | Some b -> f ~gate:g b
    | None -> ()
  done

(* --- the open-addressing index ---------------------------------------

   Every loop below is a top-level recursive function taking its whole
   state as arguments: a nested [let rec] with free variables is a
   heap-allocated closure per call in OCaml's non-flambda compiler
   (and so is a [ref] loop counter), which would put minor-heap words
   on every packet — the one thing this table exists to avoid. *)

let rec idx_ins_loop t slot i =
  if Bigarray.Array1.unsafe_get t.index i = 0 then
    Bigarray.Array1.unsafe_set t.index i (slot + 1)
  else idx_ins_loop t slot ((i + 1) land t.mask)

let index_insert t slot = idx_ins_loop t slot (get t slot f_hash land t.mask)

let rec idx_find t slot i =
  if Bigarray.Array1.unsafe_get t.index i = slot + 1 then i
  else idx_find t slot ((i + 1) land t.mask)

(* Backward-shift deletion: refill the hole at [i] from the rest of
   its probe run so no tombstones accumulate.  An entry at [j] whose
   home bucket is [home] may move into the hole at [i] exactly when
   [i] lies on the cyclic path from [home] to [j]. *)
let rec idx_shift t i j =
  let j = (j + 1) land t.mask in
  let e = Bigarray.Array1.unsafe_get t.index j in
  if e = 0 then Bigarray.Array1.unsafe_set t.index i 0
  else begin
    let home = get t (e - 1) f_hash land t.mask in
    if (j - home) land t.mask >= (j - i) land t.mask then begin
      Bigarray.Array1.unsafe_set t.index i e;
      idx_shift t j j
    end
    else idx_shift t i j
  end

let index_remove t slot =
  let i = idx_find t slot (get t slot f_hash land t.mask) in
  idx_shift t i i

(* --- lookup ---------------------------------------------------------- *)

(* Charge model (mirrors the chained table so the Table-3 cost figures
   are unchanged): one access for the home-bucket read, plus one per
   occupied slot inspected along the probe run — a collision-free hit
   costs 2, a miss on an empty home bucket costs 1.  The probe run
   plays the role of the old bucket chain; empty index entries beyond
   the first read are not charged. *)
let rec lookup_probe t key h meta now i inspected =
  let e = Bigarray.Array1.unsafe_get t.index i in
  if e = 0 then begin
    t.s_misses <- t.s_misses + 1;
    Rp_obs.Counter.note t.c_misses 1;
    if inspected > t.s_chain_max then t.s_chain_max <- inspected;
    None
  end
  else begin
    let slot = e - 1 in
    Rp_lpm.Access.charge 1;
    let inspected = inspected + 1 in
    if
      get t slot f_hash = h
      && get t slot f_meta = meta
      && Flow_key.equal (Array.unsafe_get t.keys slot) key
    then begin
      t.s_hits <- t.s_hits + 1;
      Rp_obs.Counter.note t.c_hits 1;
      if inspected > t.s_chain_max then t.s_chain_max <- inspected;
      set t slot f_last (Int64.to_int now);
      Array.unsafe_get t.some_handles slot
    end
    else lookup_probe t key h meta now ((i + 1) land t.mask) inspected
  end

let lookup t key ~now =
  t.s_lookups <- t.s_lookups + 1;
  Rp_obs.Counter.note t.c_lookups 1;
  Rp_lpm.Access.charge 1;
  let h = Flow_key.hash key in
  let r = lookup_probe t key h (meta_of key) now (h land t.mask) 0 in
  if not t.held then begin
    Rp_obs.Counter.settle t.c_lookups;
    Rp_obs.Counter.settle t.c_hits;
    Rp_obs.Counter.settle t.c_misses
  end;
  r

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

(* Uninstrumented probe for internal use (insert's duplicate scan):
   no stats, no access charges; returns the slot or -1. *)
let rec pfind_loop t key h meta i =
  let e = Bigarray.Array1.unsafe_get t.index i in
  if e = 0 then -1
  else
    let slot = e - 1 in
    if
      get t slot f_hash = h
      && get t slot f_meta = meta
      && Flow_key.equal t.keys.(slot) key
    then slot
    else pfind_loop t key h meta ((i + 1) land t.mask)

let probe_find t key ~hash:h = pfind_loop t key h (meta_of key) (h land t.mask)

(* The slot [fix] names while its flow still occupies it, else -1. *)
let fix_slot t (fix : Mbuf.fix) =
  let slot = fix.Mbuf.slot in
  if
    slot >= 0
    && slot < t.allocated
    && get t slot f_in_use = 1
    && get t slot f_gen = fix.Mbuf.gen
  then slot
  else -1

let find_fix t fix =
  let slot = fix_slot t fix in
  if slot < 0 then None else Array.unsafe_get t.some_handles slot

let fix_of_record (r : 'a record) = { Mbuf.slot = r.r_slot; gen = gen r }

(* Built by the flow's first packet, which pays a miss anyway; insert
   itself stays allocation-free. *)
let some_fix (r : 'a record) =
  match r.r_fix with
  | Some fix as o when fix.Mbuf.gen = gen r -> o
  | Some _ | None ->
    let o = Some (fix_of_record r) in
    r.r_fix <- o;
    o

(* --- eviction -------------------------------------------------------- *)

let free_push t slot = Slot_list.push_back t.lists free slot

let evict ?(reason = "evicted") t slot =
  if get t slot f_in_use = 1 then begin
    (* Export the flow record first, while key/accounting/bindings are
       still intact — this is the NetFlow emission point. *)
    (match t.exporter with
     | Some f -> f ~reason t.handles.(slot)
     | None -> ());
    let base = slot * t.gates in
    for g = 0 to t.gates - 1 do
      match t.bindings.(base + g) with
      | Some b -> t.on_evict ~gate:g b
      | None -> ()
    done;
    Array.fill t.bindings base t.gates None;
    index_remove t slot;
    set t slot f_in_use 0;
    t.keys.(slot) <- dummy_key;
    Slot_list.unlink t.lists slot;
    t.live <- t.live - 1;
    t.s_evictions <- t.s_evictions + 1;
    Rp_obs.Counter.inc m_evictions
  end

let rec reindex t slot =
  if slot >= 0 then begin
    index_insert t slot;
    reindex t (Slot_list.next t.lists slot)
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
    let nhot = flat_make (target * stride) in
    if current > 0 then
      Bigarray.Array1.blit t.hot
        (Bigarray.Array1.sub nhot 0 (current * stride));
    t.hot <- nhot;
    let ngg = flat_make (target * t.gates) in
    if current * t.gates > 0 then
      Bigarray.Array1.blit t.slot_gate_gens
        (Bigarray.Array1.sub ngg 0 (current * t.gates));
    t.slot_gate_gens <- ngg;
    let nb = Array.make (target * t.gates) None in
    Array.blit t.bindings 0 nb 0 (current * t.gates);
    t.bindings <- nb;
    let nk = Array.make target dummy_key in
    Array.blit t.keys 0 nk 0 current;
    t.keys <- nk;
    let nh =
      Array.init target (fun i ->
          if i < current then t.handles.(i) else handle t i)
    in
    let nsh =
      Array.init target (fun i ->
          if i < current then t.some_handles.(i) else Some nh.(i))
    in
    t.handles <- nh;
    t.some_handles <- nsh;
    Slot_list.grow t.lists ~slots:target;
    (* New slots pop lowest-first: current, current+1, ... *)
    for s = target - 1 downto current do
      free_push t s
    done;
    t.allocated <- target;
    if 2 * target > Bigarray.Array1.dim t.index then begin
      let size = next_pow2 (2 * target) in
      t.index <- flat_make size;
      t.mask <- size - 1;
      reindex t (Slot_list.first t.lists used)
    end
  end

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
    evict ~reason:"recycled" t s;
    t.s_recycled <- t.s_recycled + 1;
    t.s_evictions <- t.s_evictions - 1;
    Rp_obs.Counter.inc m_recycled;
    Rp_obs.Counter.add m_evictions (-1);
    s
  end

let insert t key ~now =
  let h = Flow_key.hash key in
  (* Silent duplicate scan: no stats or access charges, the caller has
     already paid for its miss. *)
  (match probe_find t key ~hash:h with
   | old when old >= 0 ->
     evict ~reason:"replaced" t old;
     free_push t old
   | _ -> ());
  let slot = allocate t in
  t.keys.(slot) <- key;
  set t slot f_hash h;
  set t slot f_meta (meta_of key);
  set t slot f_gen (get t slot f_gen + 1);
  set t slot f_route 0;
  for g = 0 to t.gates - 1 do
    Bigarray.Array1.unsafe_set t.slot_gate_gens ((slot * t.gates) + g)
      t.gate_gens.(g)
  done;
  set t slot f_in_use 1;
  set t slot f_last (Int64.to_int now);
  set t slot f_created (Int64.to_int now);
  set t slot f_packets 0;
  set t slot f_bytes 0;
  set t slot f_fwd 0;
  set t slot f_dropped 0;
  set t slot f_absorbed 0;
  index_insert t slot;
  Slot_list.push_back t.lists used slot;
  t.live <- t.live + 1;
  Rp_obs.Counter.inc m_inserts;
  t.handles.(slot)

let remove t (r : 'a record) =
  if get t r.r_slot f_in_use = 1 then begin
    evict ~reason:"removed" t r.r_slot;
    free_push t r.r_slot
  end

(* Maintenance sweeps walk [used] newest first, reading each slot's
   predecessor before the slot can be evicted.  Cost is O(live), never
   O(allocated) — a table grown to millions of slots with a handful of
   live flows pays for the handful. *)

let rec expire_loop t now_i idle_i slot count =
  if slot < 0 then count
  else begin
    let older = Slot_list.prev t.lists slot in
    t.s_maint_visited <- t.s_maint_visited + 1;
    let count =
      if now_i - get t slot f_last > idle_i then begin
        evict ~reason:"expired" t slot;
        free_push t slot;
        Rp_obs.Counter.inc m_expired;
        count + 1
      end
      else count
    in
    expire_loop t now_i idle_i older count
  end

let expire t ~now ~idle_ns =
  expire_loop t (Int64.to_int now) (Int64.to_int idle_ns)
    (Slot_list.last t.lists used) 0

let rec flush_loop t slot =
  if slot >= 0 then begin
    let older = Slot_list.prev t.lists slot in
    t.s_maint_visited <- t.s_maint_visited + 1;
    evict ~reason:"flushed" t slot;
    free_push t slot;
    flush_loop t older
  end

let flush t = flush_loop t (Slot_list.last t.lists used)

let set_exporter t f = t.exporter <- Some f

(* Per-packet flow accounting, keyed off the packet's flow index so it
   costs one generation-checked flat read on top of the field bumps.
   Done once per packet at verdict time; a packet whose record was
   recycled mid-flight (only possible with a bounded table under
   pressure) is simply not attributed. *)
let account t (m : Mbuf.t) ~verdict =
  match m.Mbuf.fix with
  | None -> ()
  | Some fix ->
    let slot = fix_slot t fix in
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

(* The slot of [m]'s flow record when its FIX is still valid, else -1. *)
let route_slot t (m : Mbuf.t) =
  match m.Mbuf.fix with None -> -1 | Some fix -> fix_slot t fix

let cached_route t (m : Mbuf.t) ~stamp =
  let slot = route_slot t m in
  if slot < 0 || get t slot f_route <> stamp then -1
  else
    let h = Array.unsafe_get t.handles slot in
    let dst =
      if h.r_dst == keyed_dst then (Array.unsafe_get t.keys slot).Flow_key.dst
      else h.r_dst
    in
    match h.r_out with
    | Some out when Ipaddr.equal dst m.Mbuf.key.Flow_key.dst ->
      m.Mbuf.out_iface <- h.r_out;
      m.Mbuf.next_hop <- h.r_hop;
      out
    | Some _ | None -> -1

let cache_route t (m : Mbuf.t) ~stamp =
  let slot = route_slot t m in
  if slot >= 0 then begin
    let h = t.handles.(slot) and dst = m.Mbuf.key.Flow_key.dst in
    h.r_out <- m.Mbuf.out_iface;
    h.r_hop <- m.Mbuf.next_hop;
    h.r_dst <-
      (if Ipaddr.equal t.keys.(slot).Flow_key.dst dst then keyed_dst else dst);
    set t slot f_route stamp
  end

let set_binding t (r : 'a record) ~gate ?filter instance =
  if gate < 0 || gate >= t.gates then invalid_arg "Flow_table.set_binding: gate";
  t.bindings.((r.r_slot * t.gates) + gate) <- Some { instance; filter; soft = None }

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
  match t.bindings.((r.r_slot * t.gates) + gate) with
  | Some b ->
    t.on_evict ~gate b;
    t.bindings.((r.r_slot * t.gates) + gate) <- None
  | None -> ()

(* Evict only the records whose key [matches] (a changed filter); each
   goes through the common [evict] path, so it is exported exactly
   once. *)
let rec invalidate_loop t matches slot count =
  if slot < 0 then count
  else begin
    let older = Slot_list.prev t.lists slot in
    t.s_maint_visited <- t.s_maint_visited + 1;
    let count =
      if matches t.keys.(slot) then begin
        evict ~reason:"invalidated" t slot;
        free_push t slot;
        Rp_obs.Counter.inc m_invalidated;
        count + 1
      end
      else count
    in
    invalidate_loop t matches older count
  end

let invalidate t ~matches =
  invalidate_loop t matches (Slot_list.last t.lists used) 0

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

let rec iter_loop f t slot =
  if slot >= 0 then begin
    let older = Slot_list.prev t.lists slot in
    f t.handles.(slot);
    iter_loop f t older
  end

let iter f t = iter_loop f t (Slot_list.last t.lists used)
