(* Bidirectional session table: NAT + conntrack + QoS behind one
   lookup.  Routing is not cached here: a session's packets ride the
   route cached in their flow record, which every route change renews
   ([Route_table.resolve]).

   Storage: every session is one row of [stride] immediates in flat
   int memory (Bigarray chunks, see the f_* offsets), plus one small
   block per direction, its view ([Sess]), holding what a packet needs
   boxed: the addresses for the key copy and the export tuple.  Rows
   live in fixed-size chunks that never move:
   the table grows by adding chunks, so a worker domain writing a row
   through a cached handle can never lose its write to a concurrent
   copy.

   Index: an [Rp_classifier.Index], at most half full, of
   [hash lsl ref_bits lor (ref + 1)] entries, where a ref is
   [slot lsl 1 lor which]: [which] = 0 is the session's forward tuple,
   1 its translated tuple.  The hash is
   symmetric in the two endpoints, so a tuple and its reverse land on
   one entry; probing compares the row's words in both orientations,
   and the orientation that matches is the packet's direction — before
   the NAT rewrite (ingress tuples) and after it (translated tuples)
   alike.  An un-NAT'd session has one entry.

   Expiry: the flow table's [Rp_classifier.Wheel]; every slot is on the
   wheel or on the parked or free list.  A session is scheduled at its
   deadline when created, when a state change shortens its timeout,
   and whenever a pass finds it touched since; a pass visits only the
   buckets whose ticks elapsed and re-checks each slot there against
   its current state's timeout.

   Concurrency: one plain mutex guards the index, the slot lists and
   growth.  Per-session counters and last-touch times are per
   direction and single-writer (one domain processes a direction's
   ingress tuple), so they are plain ints; a conntrack transition
   takes the mutex only when it changes the state. *)

open Rp_pkt
open Rp_classifier

type tcp_state = Tcp_syn | Tcp_est | Tcp_fin | Tcp_closed
type state = Tcp of tcp_state | Udp | Other

(* State encoding, one int: 0 = Udp, 1 = Other; TCP sets 0x10 with the
   phase in bits 0-1 and the per-direction FIN-seen flags in bits 2
   (fwd) / 3 (rev). *)
let st_tcp = 0x10
let fin_fwd = 0x4
let fin_rev = 0x8
let code_syn = 0
let code_est = 1
let code_fin = 2
let code_closed = 3

let decode v =
  if v = 0 then Udp
  else if v = 1 then Other
  else
    Tcp
      (match v land 0x3 with
      | 0 -> Tcp_syn
      | 1 -> Tcp_est
      | 2 -> Tcp_fin
      | _ -> Tcp_closed)

(* TCP flag bits ([Tcp_header.byte_of_flags]). *)
let tf_fin = 0x01
let tf_syn = 0x02
let tf_rst = 0x04
let tf_ack = 0x10

(* One packet's transition from state [v] in direction [dir] (0 = fwd,
   1 = rev): the new state, or -1 when the packet must not pass and
   the state is unchanged (data on a closed session). *)
let transition v dir tcp_flags =
  if v < st_tcp then v
  else
    let code = v land 0x3 in
    let fins = v land (fin_fwd lor fin_rev) in
    let syn = tcp_flags land tf_syn <> 0 and rst = tcp_flags land tf_rst <> 0 in
    let fin = tcp_flags land tf_fin <> 0 in
    if code = code_closed && not (syn || rst) then -1
    else if rst then st_tcp lor code_closed lor fins
    else if syn && code = code_closed then
      (* reopen: fresh handshake on the same tuple *)
      st_tcp lor code_syn
    else
      let fins =
        if fin then fins lor if dir = 0 then fin_fwd else fin_rev else fins
      in
      let code =
        if fins = fin_fwd lor fin_rev then code_closed
        else if fin then code_fin
        else if code = code_syn && dir = 1 then
          (* responder answered the handshake *)
          code_est
        else code
      in
      st_tcp lor code lor fins

(* ---- Rows ---------------------------------------------------------

   A row is [stride] ints at [(slot land cmask) * stride] in chunk
   [slot lsr cbits].  The first sixteen words are what a packet
   touches (generation, state, flags, QoS, and per direction the
   last-touch time and counters; words 6, 7 and 15 are spare); the
   tuples follow, each address as the four 32-bit words [Ipaddr.word]
   splits it into (the layout of [Flow_export]'s rows), then the
   control-path words.  Per-direction fields sit at [field + dir]
   ([+ 3 * dir] for the counter triple). *)

let stride = 40
let f_gen = 0 (* odd while the slot holds a live session *)
let f_state = 1
let f_flags = 2 (* proto, NAT/QoS/two-key bits, address families *)
let f_qos = 3
let f_last = 4 (* + dir: last touch, ns *)
let f_pkts = 8 (* + 3 * dir *)
let f_bytes = 9
let f_drops = 10
let f_iface = 14
let f_osrc = 16 (* forward (pre-rewrite) tuple *)
let f_odst = 20
let f_xsrc = 24 (* translated tuple; equal to the forward one un-NAT'd *)
let f_xdst = 28
let f_osport = 32
let f_odport = 33
let f_xsport = 34
let f_xdport = 35
let f_created = 36
let f_id = 37
let f_hash = 38 (* + which: the home hash of each index entry *)

(* [f_flags] bits above the protocol byte. *)
let b_nat = 0x100
let b_qos = 0x200
let b_two_keys = 0x400 (* the translated tuple has its own index entry *)

(* IPv6 flag of the address whose words start at [f]: bits 11-14, in
   the order of the four addresses. *)
let v6_shift = 11
let[@inline] b_v6 f = 1 lsl (v6_shift + ((f - f_osrc) lsr 2))

type nat_rule = {
  kind : [ `Snat | `Dnat ];
  filter : Rp_classifier.Filter.t;
  addr : Ipaddr.t;
  port : int option;
  tos : int option;
}

type table = {
  tname : string;
  lock : Mutex.t;
  cap : int;
  cbits : int; (* log2 of the rows per chunk *)
  cmask : int;
  rows : Index.flat array; (* chunk directory; unallocated: [empty_chunk] *)
  views : Rp_classifier.Flow_table.soft option array array;
      (* two per slot, see [Sess] *)
  mutable allocated : int;
  mutable index : Index.flat;
  mutable nlive : int;
  (* Every slot is on the wheel or on [l_parked] or [l_free]; both are
     made with the first rows. *)
  mutable wheel : Wheel.t;
  mutable lists : Slot_list.t;
  mutable rules_l : nat_rule list;
  mutable tcp_syn_ns : int;
  mutable tcp_est_ns : int;
  mutable tcp_fin_ns : int;
  mutable udp_ns : int;
  mutable other_ns : int;
  mutable nvisited : int;
  created_c : int Atomic.t;
  expired_c : int Atomic.t;
  lookups_c : int Atomic.t;
  hits_c : int Atomic.t;
  misses_c : int Atomic.t;
  cached_c : int Atomic.t;
  rewrites_c : int Atomic.t;
  ct_drops_c : int Atomic.t;
  conflicts_c : int Atomic.t;
  refused_c : int Atomic.t;
}

(* One direction of a session, as flow bindings' soft slots cache it:
   the handle (generation, slot, direction), the direction's
   post-rewrite addresses boxed for the packet key, the post-rewrite
   key itself, and the tuple a flow export carries.  Built with the
   session, two per session, and shared by every binding that caches
   it, so filling a slot allocates nothing and the plugins on one
   packet read one block.  [xkey] is the key the direction's packets
   leave with, built by the first rewrite that needs it (or, forward,
   at creation) and reused by every later one whose packet has its
   protocol and interface; its single writer is the domain that
   processes the direction. *)
type Rp_classifier.Flow_table.soft +=
  | Sess of {
      tab : table;
      h : int;
      nsrc : Ipaddr.t;
      ndst : Ipaddr.t;
      mutable xkey : Flow_key.t;
      xlate : Rp_core.Flow_export.xlate option;
    }
  | No_session
  | Table_full

let empty_chunk = Index.flat 0

let[@inline] chunk t slot = Array.unsafe_get t.rows (slot lsr t.cbits)
let[@inline] base t slot = (slot land t.cmask) * stride

let[@inline] get t slot f =
  Bigarray.Array1.unsafe_get (chunk t slot) (base t slot + f)

let[@inline] set t slot f v =
  Bigarray.Array1.unsafe_set (chunk t slot) (base t slot + f) v

let[@inline] view t slot d =
  Array.unsafe_get
    (Array.unsafe_get t.views (slot lsr t.cbits))
    ((2 * (slot land t.cmask)) + d)

(* ---- Handles ------------------------------------------------------

   A ref is [slot lsl 1 lor dir] (dir 0 = fwd, 1 = rev); a handle adds
   the slot's generation above [ref_bits], so a handle cached past its
   session's expiry never matches the slot again. *)

let ref_bits = 26
let ref_mask = (1 lsl ref_bits) - 1
let max_capacity = 1 lsl (ref_bits - 2)
let[@inline] slot_of r = (r land ref_mask) lsr 1
let[@inline] handle t r = (get t (slot_of r) f_gen lsl ref_bits) lor r
let[@inline] valid t h = get t (slot_of h) f_gen = h lsr ref_bits

type t = { tab : table; h : int (* direction bit clear *) }

let dir_code (d : Flow_key.direction) = match d with Fwd -> 0 | Rev -> 1
let direction r : Flow_key.direction = if r land 1 = 0 then Fwd else Rev
let ref_of s dir = (s.h land ref_mask) lor dir_code dir
let equal a b = a.tab == b.tab && a.h = b.h
let slot s = slot_of s.h

(* ---- Accessors ---------------------------------------------------- *)

let id s = get s.tab (slot s) f_id
let proto s = get s.tab (slot s) f_flags land 0xFF
let iface s = get s.tab (slot s) f_iface
let nat s = get s.tab (slot s) f_flags land b_nat <> 0
let nsrc_of = function Some (Sess v) -> v.nsrc | _ -> Ipaddr.zero_v4
let ndst_of = function Some (Sess v) -> v.ndst | _ -> Ipaddr.zero_v4

(* The reply's post-rewrite tuple is the forward tuple reversed. *)
let orig_src s = ndst_of (view s.tab (slot s) 1)
let orig_dst s = nsrc_of (view s.tab (slot s) 1)
let xlat_src s = nsrc_of (view s.tab (slot s) 0)
let xlat_dst s = ndst_of (view s.tab (slot s) 0)
let orig_sport s = get s.tab (slot s) f_osport
let orig_dport s = get s.tab (slot s) f_odport
let xlat_sport s = get s.tab (slot s) f_xsport
let xlat_dport s = get s.tab (slot s) f_xdport

let index_keys s =
  if get s.tab (slot s) f_flags land b_two_keys <> 0 then 2 else 1

let qos s =
  let t = s.tab and i = slot s in
  if get t i f_flags land b_qos <> 0 then Some (get t i f_qos) else None

let state s = decode (get s.tab (slot s) f_state)

let state_name s =
  match state s with
  | Tcp Tcp_syn -> "tcp-syn"
  | Tcp Tcp_est -> "tcp-est"
  | Tcp Tcp_fin -> "tcp-fin"
  | Tcp Tcp_closed -> "tcp-closed"
  | Udp -> "udp"
  | Other -> "other"

let packets s dir = get s.tab (slot s) (f_pkts + (3 * dir_code dir))
let bytes s dir = get s.tab (slot s) (f_bytes + (3 * dir_code dir))
let drops s dir = get s.tab (slot s) (f_drops + (3 * dir_code dir))
let created_ns s = Int64.of_int (get s.tab (slot s) f_created)

let last_touch t i = max (get t i f_last) (get t i (f_last + 1))
let last_ns s = Int64.of_int (last_touch s.tab (slot s))

(* ---- Timeouts and the wheel --------------------------------------- *)

let timeout_of_code t v =
  if v = 0 then t.udp_ns
  else if v = 1 then t.other_ns
  else
    match v land 0x3 with
    | 0 -> t.tcp_syn_ns
    | 1 -> t.tcp_est_ns
    | _ -> t.tcp_fin_ns

let shortest t =
  min t.tcp_syn_ns (min t.tcp_est_ns (min t.tcp_fin_ns (min t.udp_ns t.other_ns)))

(* The first instant the session is idle past its state's timeout. *)
let deadline t i = last_touch t i + timeout_of_code t (get t i f_state) + 1

(* [l_parked] holds the slots freed by the last pass, [l_free] the
   slots ready for reuse. *)
let l_parked = 0
let l_free = 1

(* Shared by every table until its first rows: nothing is ever put on
   them. *)
let no_wheel = Wheel.create ~slots:0 ~timeout:0 ~now:0
let no_lists = Slot_list.create ~lists:2 ~slots:0
let schedule t i = Wheel.schedule t.wheel i ~at:(deadline t i)

(* ---- Per-packet operations on a ref ------------------------------- *)

let touch_ref t r ~now ~len =
  let i = slot_of r and d = r land 1 in
  set t i (f_last + d) now;
  set t i (f_pkts + (3 * d)) (get t i (f_pkts + (3 * d)) + 1);
  set t i (f_bytes + (3 * d)) (get t i (f_bytes + (3 * d)) + len)

(* Advance the state; false = reject (counted on the direction).  The
   lock is taken only for a change, and the state re-read under it,
   so two domains stepping the two directions never lose one.  A state
   with a shorter timeout moves the session to its earlier deadline:
   the wheel may hold a session late, never early. *)
let step_ref t r ~tcp_flags =
  let i = slot_of r and d = r land 1 in
  let v = get t i f_state in
  let v' = transition v d tcp_flags in
  let v' =
    if v' = v || v' < 0 then v'
    else begin
      Mutex.lock t.lock;
      let v0 = get t i f_state in
      let v' = transition v0 d tcp_flags in
      if v' >= 0 && v' <> v0 then begin
        set t i f_state v';
        if get t i f_gen land 1 = 1 && timeout_of_code t v' < timeout_of_code t v0
        then schedule t i
      end;
      Mutex.unlock t.lock;
      v'
    end
  in
  if v' < 0 then begin
    set t i (f_drops + (3 * d)) (get t i (f_drops + (3 * d)) + 1);
    false
  end
  else true

(* Does address [a] equal the row's address at [f]? *)
let addr_is t i flags f (a : Ipaddr.t) =
  match a with
  | V4 x ->
    flags land b_v6 f = 0 && get t i f = Int32.to_int x land 0xFFFF_FFFF
  | V6 _ ->
    flags land b_v6 f <> 0
    && get t i f = Ipaddr.word a 0
    && get t i (f + 1) = Ipaddr.word a 1
    && get t i (f + 2) = Ipaddr.word a 2
    && get t i (f + 3) = Ipaddr.word a 3

(* The tuple direction [d]'s packets carry after the rewrite: forward
   packets leave with the translated tuple, replies with the reverse
   of the forward one. *)
let[@inline] new_src d = if d = 0 then f_xsrc else f_odst
let[@inline] new_dst d = if d = 0 then f_xdst else f_osrc
let[@inline] new_sport d = if d = 0 then f_xsport else f_odport
let[@inline] new_dport d = if d = 0 then f_xdport else f_osport

let translated t i d (k : Flow_key.t) =
  let flags = get t i f_flags in
  k.sport = get t i (new_sport d)
  && k.dport = get t i (new_dport d)
  && addr_is t i flags (new_src d) k.src
  && addr_is t i flags (new_dst d) k.dst

(* ---- In-place header rewrite --------------------------------------

   RFC 1624 incremental checksum update with every changed 16-bit word
   folded into one sum, [~m + m'] per word, finished once per checksum
   field: no lists, no intermediate checksums. *)

let[@inline] delta16 acc o n = acc + (lnot o land 0xFFFF) + (n land 0xFFFF)

let[@inline] delta32 acc o n =
  if o = n then acc
  else delta16 (delta16 acc (o lsr 16) (n lsr 16)) (o land 0xFFFF) (n land 0xFFFF)

(* A 32-bit word into [buf] as two 16-bit stores (no boxed int32). *)
let put32 buf off w =
  Bytes.set_uint16_be buf off (w lsr 16);
  Bytes.set_uint16_be buf (off + 2) (w land 0xFFFF)

(* Sum of the deltas from the packet's address [a] to the row's
   address at [f], written into [buf] at [off] as it goes. *)
let addr_delta t i f (a : Ipaddr.t) buf off acc =
  match a with
  | V4 x ->
    let o = Int32.to_int x land 0xFFFF_FFFF and n = get t i f in
    if o <> n then put32 buf off n;
    delta32 acc o n
  | V6 _ ->
    let acc = ref acc in
    for j = 0 to 3 do
      let o = Ipaddr.word a j and n = get t i (f + j) in
      if o <> n then begin
        put32 buf (off + (4 * j)) n;
        acc := delta32 !acc o n
      end
    done;
    !acc

let fixup buf off acc ~udp =
  if acc <> 0 && off + 2 <= Bytes.length buf then begin
    let cur = Bytes.get_uint16_be buf off in
    (* a UDP checksum of zero means "not computed": leave it *)
    if not (udp && cur = 0) then begin
      let c = Checksum.finish ((lnot cur land 0xFFFF) + acc) in
      Bytes.set_uint16_be buf off (if udp && c = 0 then 0xFFFF else c)
    end
  end

let rewrite_raw t i d (m : Mbuf.t) buf (k : Flow_key.t) =
  let v6 = Ipaddr.is_v6 k.src in
  let sa, da = if v6 then (8, 24) else (12, 16) in
  if Bytes.length buf >= (if v6 then 40 else 20) then begin
    let acc = addr_delta t i (new_src d) k.src buf sa 0 in
    let acc = addr_delta t i (new_dst d) k.dst buf da acc in
    (* the IPv4 header checksum covers only the addresses *)
    if not v6 then fixup buf 10 acc ~udp:false;
    let l4 = if k.proto = 6 || k.proto = 17 then Mbuf.l4_offset m else -1 in
    if l4 >= 0 && l4 + 4 <= Bytes.length buf then begin
      let nsp = get t i (new_sport d) and ndp = get t i (new_dport d) in
      if k.sport <> nsp then Bytes.set_uint16_be buf l4 nsp;
      if k.dport <> ndp then Bytes.set_uint16_be buf (l4 + 2) ndp;
      (* the pseudo-header includes the addresses *)
      let acc = if k.sport <> nsp then delta16 acc k.sport nsp else acc in
      let acc = if k.dport <> ndp then delta16 acc k.dport ndp else acc in
      if k.proto = 6 then fixup buf (l4 + 16) acc ~udp:false
      else fixup buf (l4 + 6) acc ~udp:true
    end
  end

(* Stands in a view's [xkey] until its first rewrite: no packet has
   its protocol. *)
let no_key = { Mbuf.dummy.Mbuf.key with Flow_key.proto = -1 }

(* ---- The plugins' per-packet operations --------------------------- *)

module Hit = struct
  type t = Rp_classifier.Flow_table.soft

  let none = No_session
  let full = Table_full

  (* The rewrite proper, in the view's direction. *)
  let rewrite v (m : Mbuf.t) =
    match v with
    | Sess v ->
      let t = v.tab and i = slot_of v.h and d = v.h land 1 in
      let k = m.Mbuf.key in
      if translated t i d k then false
      else begin
        (match m.Mbuf.raw with
         | Some buf -> rewrite_raw t i d m buf k
         | None -> ());
        let x = v.xkey in
        m.Mbuf.key <-
          (if x.proto = k.proto && x.iface = k.iface then x
           else begin
             let x =
               { k with src = v.nsrc; dst = v.ndst;
                 sport = get t i (new_sport d); dport = get t i (new_dport d) }
             in
             v.xkey <- x;
             x
           end);
        true
      end
    | _ -> false

  let stamp v (m : Mbuf.t) =
    match v with
    | Sess v ->
      let t = v.tab and i = slot_of v.h in
      if get t i f_flags land b_qos <> 0 then m.Mbuf.tos <- get t i f_qos
    | _ -> ()

  let touch v ~now ~len =
    match v with Sess v -> touch_ref v.tab v.h ~now ~len | _ -> ()

  let step v ~tcp_flags =
    match v with Sess v -> step_ref v.tab v.h ~tcp_flags | _ -> true

  let id v = match v with Sess v -> get v.tab (slot_of v.h) f_id | _ -> 0
end

(* ---- Handle-level operations (control path, tests) ---------------- *)

(* Times are native ints; an int64 past their range saturates. *)
let ns_of_int64 x =
  if Int64.compare x (Int64.of_int max_int) > 0 then max_int
  else if Int64.compare x (Int64.of_int min_int) < 0 then min_int
  else Int64.to_int x

let touch s ~now ~dir ~len =
  touch_ref s.tab (ref_of s dir) ~now:(ns_of_int64 now) ~len

let conntrack_step s ~dir ~tcp_flags =
  if step_ref s.tab (ref_of s dir) ~tcp_flags then `Pass
  else `Drop "conntrack: closed session"

let cached s dir =
  match view s.tab (slot s) (dir_code dir) with Some v -> v | None -> No_session

let apply_rewrite s dir m = Hit.rewrite (cached s dir) m

(* ---- Soft-slot cache and export ----------------------------------- *)

let shard_key = Flow_key.canonical_hash

(* The NAT'd session cached in any of [r]'s gate bindings (its export
   tuple outlives the session, as the soft slot does).  A top-level
   loop, not [iter_bindings] with a closure: this runs on every flow
   export, which must not allocate. *)
let rec xlate_at (r : Rp_core.Plugin.t Rp_classifier.Flow_table.record) g =
  if g >= Rp_core.Gate.count then None
  else
    match Rp_classifier.Flow_table.binding r ~gate:g with
    | Some { Rp_classifier.Flow_table.soft = Some (Sess { xlate = Some _ as x; _ }); _ }
      ->
      x
    | Some _ | None -> xlate_at r (g + 1)

let xlate_of_record r = xlate_at r 0

let () = Rp_core.Flow_export.set_translated_of xlate_of_record

(* Straight from the row: the four addresses are [Flow_export]'s run of
   16 words. *)
let export t i ~reason =
  let flags = get t i f_flags in
  let packets = get t i f_pkts + get t i (f_pkts + 3) in
  let dropped = get t i f_drops + get t i (f_drops + 3) in
  Rp_core.Flow_export.emit_session ~reason ~id:(get t i f_id) ~words:(chunk t i)
    ~off:(base t i + f_osrc)
    ~v6:((flags lsr v6_shift) land 0xF)
    ~xlate:(flags land b_nat <> 0) ~proto:(flags land 0xFF)
    ~sport:(get t i f_osport) ~dport:(get t i f_odport)
    ~xsport:(get t i f_xsport) ~xdport:(get t i f_xdport)
    ~iface:(get t i f_iface) ~packets
    ~bytes:(get t i f_bytes + get t i (f_bytes + 3))
    ~forwarded:(packets - dropped) ~dropped ~created_ns:(get t i f_created)
    ~last_ns:(last_touch t i)

(* ---- The table ---------------------------------------------------- *)

let next_id = Atomic.make 1

module Table = struct
  type session = t
  type t = table

  type timeout_class = [ `Tcp_syn | `Tcp_est | `Tcp_fin | `Udp | `Other ]

  type nonrec nat_rule = nat_rule = {
    kind : [ `Snat | `Dnat ];
    filter : Rp_classifier.Filter.t;
    addr : Ipaddr.t;
    port : int option;
    tos : int option;
  }

  type stats = {
    live : int;
    capacity : int;
    created : int;
    expired : int;
    lookups : int;
    hits : int;
    misses : int;
    cached_hits : int;
    rewrites : int;
    ct_drops : int;
    key_conflicts : int;
    refused : int;
    visited : int;
  }

  let default_capacity = 1 lsl 18

  (* The flow table's initial size: the first chunk, and the unit the
     table grows by doubling. *)
  let initial_rows = 1024
  let secs n = n * 1_000_000_000

  let create ?(capacity = default_capacity) tname =
    let capacity = Index.pow2_at_least (max 1 (min capacity max_capacity)) in
    let chunk = min initial_rows capacity in
    let cbits = Index.log2 chunk in
    {
      tname;
      lock = Mutex.create ();
      cap = capacity;
      cbits;
      cmask = chunk - 1;
      rows = Array.make (capacity lsr cbits) empty_chunk;
      views = Array.make (capacity lsr cbits) [||];
      allocated = 0;
      index = empty_chunk;
      nlive = 0;
      wheel = no_wheel;
      lists = no_lists;
      rules_l = [];
      tcp_syn_ns = secs 30;
      tcp_est_ns = secs 300;
      tcp_fin_ns = secs 10;
      udp_ns = secs 60;
      other_ns = secs 60;
      nvisited = 0;
      created_c = Atomic.make 0;
      expired_c = Atomic.make 0;
      lookups_c = Atomic.make 0;
      hits_c = Atomic.make 0;
      misses_c = Atomic.make 0;
      cached_c = Atomic.make 0;
      rewrites_c = Atomic.make 0;
      ct_drops_c = Atomic.make 0;
      conflicts_c = Atomic.make 0;
      refused_c = Atomic.make 0;
    }

  let name t = t.tname

  (* ---- Hashing and the index ---- *)

  let[@inline] mix x =
    let x = x * 0x2545F4914F6CDD1D in
    x lxor (x lsr 31)

  let[@inline] ep w0 w1 w2 w3 v6 port =
    mix
      ((w0 * 0x9E3779B1) + (w1 * 0x85EBCA77) + (w2 * 0xC2B2AE3D)
      + (w3 * 0x27D4EB2F) + (port lsl 1) + v6)

  let ep_addr (a : Ipaddr.t) port =
    match a with
    | V4 x -> ep (Int32.to_int x land 0xFFFF_FFFF) 0 0 0 0 port
    | V6 _ ->
      ep (Ipaddr.word a 0) (Ipaddr.word a 1) (Ipaddr.word a 2) (Ipaddr.word a 3)
        1 port

  let hash_bits = 62 - ref_bits
  let hash_mask = (1 lsl hash_bits) - 1

  (* Symmetric in the endpoints: a tuple and its reverse hash alike. *)
  let[@inline] combine ea eb proto = mix (ea + eb + proto) land hash_mask

  let key_hash (k : Flow_key.t) =
    combine (ep_addr k.src k.sport) (ep_addr k.dst k.dport) k.proto

  (* 1 when [k] is entry [which]'s tuple as stored, 2 when reversed,
     0 when neither. *)
  let orient t i which (k : Flow_key.t) =
    let flags = get t i f_flags in
    if flags land 0xFF <> k.proto then 0
    else
      let s, d, sp, dp =
        if which = 0 then (f_osrc, f_odst, f_osport, f_odport)
        else (f_xsrc, f_xdst, f_xsport, f_xdport)
      in
      if
        get t i sp = k.sport && get t i dp = k.dport
        && addr_is t i flags s k.src && addr_is t i flags d k.dst
      then 1
      else if
        get t i dp = k.sport && get t i sp = k.dport
        && addr_is t i flags d k.src && addr_is t i flags s k.dst
      then 2
      else 0

  (* The ref (slot and direction) [k] resolves to, or -1. *)
  let rec probe t (k : Flow_key.t) h mask i =
    let e = Bigarray.Array1.unsafe_get t.index i in
    if e = 0 then -1
    else
      let r = (e land ref_mask) - 1 in
      let o = if e lsr ref_bits = h then orient t (r lsr 1) (r land 1) k else 0 in
      if o = 0 then probe t k h mask ((i + 1) land mask)
      else (r land lnot 1) lor (o - 1)

  let find t k h =
    let mask = Bigarray.Array1.dim t.index - 1 in
    if t.nlive = 0 then -1 else probe t k h mask (h land mask)

  (* Entry [which] of slot [i]: its ref + 1 under the hash in the row. *)
  let add_entry t i which =
    Index.insert t.index ~bits:ref_bits ~hash:(get t i (f_hash + which))
      (((i lsl 1) lor which) + 1)

  let remove_entry t i which =
    Index.remove t.index ~bits:ref_bits ~hash:(get t i (f_hash + which))
      (((i lsl 1) lor which) + 1)

  let live_slots t f =
    for i = 0 to t.allocated - 1 do
      if get t i f_gen land 1 = 1 then f i
    done

  (* ---- Slots ---- *)

  (* Double the rows (the first call allocates one chunk, the wheel,
     ticked by the shortest timeout, and the slot lists), adding chunks
     so that no row moves; the new slots go on [l_free], to be taken
     lowest first.  The index keeps four entries per row. *)
  let grow t =
    let chunk = t.cmask + 1 in
    let target = if t.allocated = 0 then chunk else min t.cap (2 * t.allocated) in
    for c = t.allocated lsr t.cbits to (target lsr t.cbits) - 1 do
      t.rows.(c) <- Index.flat (chunk * stride);
      t.views.(c) <- Array.make (2 * chunk) None
    done;
    if t.allocated = 0 then begin
      t.wheel <- Wheel.create ~slots:target ~timeout:(shortest t) ~now:0;
      t.lists <- Slot_list.create ~lists:2 ~slots:target
    end;
    Wheel.grow t.wheel ~slots:target;
    Slot_list.grow t.lists ~slots:target;
    for i = target - 1 downto t.allocated do
      Slot_list.push_back t.lists l_free i
    done;
    t.allocated <- target;
    t.index <- Index.make (4 * target);
    live_slots t (fun i ->
        add_entry t i 0;
        if get t i f_flags land b_two_keys <> 0 then add_entry t i 1)

  (* A slot for a new session, the last one freed, or -1 at capacity. *)
  let alloc_slot t =
    if Slot_list.last t.lists l_free < 0 && t.allocated < t.cap then grow t;
    let s = Slot_list.last t.lists l_free in
    if s >= 0 then Slot_list.unlink t.lists s;
    s

  (* Slots freed by the previous pass rejoin the free list: every
     packet that validated a handle to them before they were freed has
     left the workers since (callers run passes between frames; perf
     and the soak flush the engine first), so no stale handle can
     write into a reused row. *)
  let unpark t = Slot_list.append t.lists ~src:l_parked ~dst:l_free

  let release t i ~reason =
    export t i ~reason;
    remove_entry t i 0;
    if get t i f_flags land b_two_keys <> 0 then remove_entry t i 1;
    set t i f_gen (get t i f_gen + 1);
    t.nlive <- t.nlive - 1;
    Wheel.unlink t.wheel i;
    Slot_list.push_back t.lists l_parked i;
    Atomic.incr t.expired_c

  (* ---- Creation ---- *)

  let put_addr t i f (a : Ipaddr.t) =
    for j = 0 to 3 do
      set t i (f + j) (Ipaddr.word a j)
    done;
    if Ipaddr.is_v6 a then b_v6 f else 0

  (* A plain recursion rather than [List.find_opt] over a closure: a
     session's creation allocates its views and keys only. *)
  let rec first_rule kind key = function
    | [] -> None
    | r :: rules ->
      if r.kind = kind && Rp_classifier.Filter.matches r.filter key then Some r
      else first_rule kind key rules

  (* Fill slot [i] with a new session for [key] and index it.  Under
     the lock. *)
  let fill t i (key : Flow_key.t) ~h ~now ~tcp_flags =
    let snat = first_rule `Snat key t.rules_l
    and dnat = first_rule `Dnat key t.rules_l in
    let xsrc, xsport =
      match snat with
      | Some r -> (r.addr, Option.value r.port ~default:key.sport)
      | None -> (key.src, key.sport)
    in
    let xdst, xdport =
      match dnat with
      | Some r -> (r.addr, Option.value r.port ~default:key.dport)
      | None -> (key.dst, key.dport)
    in
    let qos =
      match (snat, dnat) with
      | Some { tos = Some q; _ }, _ | _, Some { tos = Some q; _ } -> q
      | _ -> -1
    in
    let nat =
      not
        (Ipaddr.equal xsrc key.src && Ipaddr.equal xdst key.dst
        && xsport = key.sport && xdport = key.dport)
    in
    (* The translated tuple needs an entry of its own unless it is the
       forward tuple, either way round. *)
    let two_keys =
      nat
      && not
           (Ipaddr.equal xsrc key.dst && Ipaddr.equal xdst key.src
           && xsport = key.dport && xdport = key.sport)
    in
    let state0 =
      if key.proto = 6 then
        if tcp_flags land tf_syn <> 0 && tcp_flags land tf_ack = 0 then
          st_tcp lor code_syn
        else st_tcp lor code_est (* mid-stream pickup *)
      else if key.proto = 17 then 0
      else 1
    in
    let fam =
      put_addr t i f_osrc key.src lor put_addr t i f_odst key.dst
      lor put_addr t i f_xsrc xsrc lor put_addr t i f_xdst xdst
    in
    set t i f_osport key.sport;
    set t i f_odport key.dport;
    set t i f_xsport xsport;
    set t i f_xdport xdport;
    set t i f_state state0;
    set t i f_qos (max qos 0);
    set t i f_iface key.iface;
    set t i f_id (Atomic.fetch_and_add next_id 1);
    set t i f_created now;
    for d = 0 to 1 do
      set t i (f_last + d) now;
      set t i (f_pkts + (3 * d)) 0;
      set t i (f_bytes + (3 * d)) 0;
      set t i (f_drops + (3 * d)) 0
    done;
    (* the views carry the generation the slot is about to take *)
    let vh = ((get t i f_gen + 1) lsl ref_bits) lor (i lsl 1) in
    let xlate =
      if nat then Some { Rp_core.Flow_export.xsrc; xdst; xsport; xdport } else None
    in
    (* The key forward packets leave with: the creating packet's,
       translated, so the forward view starts with it. *)
    let x =
      if nat then
        { key with src = xsrc; dst = xdst; sport = xsport; dport = xdport }
      else no_key
    in
    let vs = t.views.(i lsr t.cbits) and j = 2 * (i land t.cmask) in
    vs.(j) <-
      Some
        (Sess { tab = t; h = vh; nsrc = xsrc; ndst = xdst; xkey = x; xlate });
    vs.(j + 1) <-
      Some
        (Sess
           { tab = t; h = vh lor 1; nsrc = key.dst; ndst = key.src;
             xkey = no_key; xlate });
    let flags =
      key.proto land 0xFF lor fam
      lor (if nat then b_nat else 0)
      lor if qos >= 0 then b_qos else 0
    in
    set t i f_flags flags;
    set t i f_hash h;
    add_entry t i 0;
    (if two_keys then
       let hx = key_hash x in
       (* reply tuple already owned by another session: keep the
          forward entry only *)
       if find t x hx >= 0 then Atomic.incr t.conflicts_c
       else begin
         set t i (f_hash + 1) hx;
         add_entry t i 1;
         set t i f_flags (flags lor b_two_keys)
       end);
    set t i f_gen (get t i f_gen + 1);
    t.nlive <- t.nlive + 1;
    schedule t i;
    Atomic.incr t.created_c

  (* The session-table hit: a handle (generation, slot, direction) for
     the session [key] resolves to, creating it when [create]; -1 when
     there is none, -2 when the table is full.  The lookup and insert
     run under one lock, which nothing between can raise out of. *)
  let resolve_h t ~create (key : Flow_key.t) ~now ~tcp_flags =
    Atomic.incr t.lookups_c;
    (* the one session-table hit: bucket probe + record read *)
    Rp_lpm.Access.charge 2;
    Rp_core.Cost.charge_mem 2;
    Rp_core.Cost.charge Rp_core.Cost.flow_hash;
    let h = key_hash key in
    Mutex.lock t.lock;
    let r = find t key h in
    let res =
      if r >= 0 then begin
        Atomic.incr t.hits_c;
        handle t r
      end
      else begin
        Atomic.incr t.misses_c;
        if not create then -1
        else begin
          (* index insert: two writes *)
          Rp_lpm.Access.charge 2;
          Rp_core.Cost.charge_mem 2;
          let i = alloc_slot t in
          if i < 0 then begin
            Atomic.incr t.refused_c;
            -2
          end
          else begin
            fill t i key ~h ~now ~tcp_flags;
            handle t (i lsl 1)
          end
        end
      end
    in
    Mutex.unlock t.lock;
    res

  let resolve t ?(create = true) key ~now ~tcp_flags =
    let h = resolve_h t ~create key ~now:(ns_of_int64 now) ~tcp_flags in
    if h < 0 then None
    else Some ({ tab = t; h = h land lnot 1 }, direction h)

  let cached_hit t ~charge =
    Atomic.incr t.cached_c;
    if charge then begin
      Rp_lpm.Access.charge 1;
      Rp_core.Cost.charge_mem 1
    end

  let note_rewrite t = Atomic.incr t.rewrites_c
  let note_ct_drop t = Atomic.incr t.ct_drops_c

  let add_rule t r =
    Mutex.lock t.lock;
    t.rules_l <- t.rules_l @ [ r ];
    Mutex.unlock t.lock

  let del_rule t i =
    Mutex.lock t.lock;
    let res =
      if i < 0 || i >= List.length t.rules_l then
        Error (Printf.sprintf "no NAT rule %d" i)
      else begin
        t.rules_l <- List.filteri (fun j _ -> j <> i) t.rules_l;
        Ok ()
      end
    in
    Mutex.unlock t.lock;
    res

  let rules t = t.rules_l

  let timeout t (c : timeout_class) =
    Int64.of_int
      (match c with
      | `Tcp_syn -> t.tcp_syn_ns
      | `Tcp_est -> t.tcp_est_ns
      | `Tcp_fin -> t.tcp_fin_ns
      | `Udp -> t.udp_ns
      | `Other -> t.other_ns)

  (* A shorter timeout can bring deadlines forward past where the
     wheel holds them, and a new tick size moves every bucket: a new
     timeout reschedules every live session, once (control path). *)
  let set_timeout t (c : timeout_class) ns =
    let ns = Int64.to_int (max 0L (min ns (Int64.of_int Wheel.max_timeout))) in
    Mutex.lock t.lock;
    (match c with
    | `Tcp_syn -> t.tcp_syn_ns <- ns
    | `Tcp_est -> t.tcp_est_ns <- ns
    | `Tcp_fin -> t.tcp_fin_ns <- ns
    | `Udp -> t.udp_ns <- ns
    | `Other -> t.other_ns <- ns);
    if t.allocated > 0 then begin
      Wheel.retick t.wheel ~timeout:(shortest t);
      live_slots t (schedule t)
    end;
    Mutex.unlock t.lock

  (* One word in each 64-byte line of a row, and the home of its first
     index entry: what a pass reads ahead. *)
  let row_words t s =
    get t s f_state + get t s f_pkts + get t s f_osrc + get t s f_xsrc
    + get t s f_osport + Index.home t.index (get t s f_hash)

  (* A pass re-checks each due slot: expired ones are exported and
     parked, the rest rescheduled at their current deadline. *)
  let expire t ~now =
    Mutex.lock t.lock;
    unpark t;
    let now = ns_of_int64 now in
    let n =
      if t.allocated = 0 then 0
      else
        Wheel.pass t.wheel ~now ~deadline:(deadline t) ~read:(row_words t)
          ~expired:(fun i ->
            t.nvisited <- t.nvisited + 1;
            now - last_touch t i > timeout_of_code t (get t i f_state)
            && (release t i ~reason:"session-expired"; true))
    in
    Mutex.unlock t.lock;
    n

  let flush t =
    Mutex.lock t.lock;
    unpark t;
    let n = t.nlive in
    live_slots t (release t ~reason:"session-flushed");
    Mutex.unlock t.lock;
    n

  let iter f t =
    Mutex.lock t.lock;
    let l = ref [] in
    live_slots t (fun i -> l := { tab = t; h = handle t (i lsl 1) } :: !l);
    Mutex.unlock t.lock;
    List.iter f (List.rev !l)

  let length t = t.nlive

  let stats t =
    {
      live = t.nlive;
      capacity = t.cap;
      created = Atomic.get t.created_c;
      expired = Atomic.get t.expired_c;
      lookups = Atomic.get t.lookups_c;
      hits = Atomic.get t.hits_c;
      misses = Atomic.get t.misses_c;
      cached_hits = Atomic.get t.cached_c;
      rewrites = Atomic.get t.rewrites_c;
      ct_drops = Atomic.get t.ct_drops_c;
      key_conflicts = Atomic.get t.conflicts_c;
      refused = Atomic.get t.refused_c;
      visited = t.nvisited;
    }

  (* The registry, last: its [get] shadows the row accessor. *)
  let registry : (string, t) Hashtbl.t = Hashtbl.create 4
  let registry_lock = Mutex.create ()

  let get name =
    Mutex.lock registry_lock;
    let t =
      match Hashtbl.find_opt registry name with
      | Some t -> t
      | None ->
        let t = create name in
        Hashtbl.add registry name t;
        (* Live-session health probe (registered tables only: the
           probe keeps its table alive). *)
        Rp_obs.Health.register
          ("session." ^ name ^ ".live")
          (fun () -> float_of_int t.nlive);
        t
    in
    Mutex.unlock registry_lock;
    t

  let names () =
    Mutex.lock registry_lock;
    let l = Hashtbl.fold (fun k _ acc -> k :: acc) registry [] in
    Mutex.unlock registry_lock;
    List.sort compare l
end

(* ---- The plugins' entry point -------------------------------------- *)

(* Steady state reads the session cached in the gate binding's soft
   slot (one memory access, charged by exactly one of the plugins on
   the packet's path — the row is cache-hot for the rest); a cold or
   stale slot falls back to the table and points the slot at the
   session's view for the packet's direction.  Allocates nothing. *)
let cached_resolve table ?(create = true) ~cache ~charge
    (ctx : Rp_core.Plugin.ctx) (m : Mbuf.t) =
  match ctx.Rp_core.Plugin.binding with
  | Some { Rp_classifier.Flow_table.soft = Some (Sess v as hit); _ }
    when cache && v.tab == table && valid table v.h ->
    Table.cached_hit table ~charge;
    hit
  | binding ->
    let h =
      Table.resolve_h table ~create m.Mbuf.key
        ~now:(Int64.to_int ctx.Rp_core.Plugin.now_ns)
        ~tcp_flags:m.Mbuf.tcp_flags
    in
    if h = -1 then No_session
    else if h = -2 then Table_full
    else
      let o = view table (slot_of h) (h land 1) in
      (match binding with
      | Some b when cache -> b.Rp_classifier.Flow_table.soft <- o
      | Some _ | None -> ());
      match o with Some hit -> hit | None -> No_session

let full_why = "session table full"
