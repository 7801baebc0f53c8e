(* Bidirectional session table: NAT + conntrack + QoS + cached
   next-hop behind one lookup.

   Index structure: a striped hashtable keyed by canonical
   (direction-normalized) flow keys.  A session is inserted under the
   canonical of its forward ingress tuple AND the canonical of its
   reply ingress tuple; the two coincide exactly when the session is
   not NAT'd (canonical collapses direction).  Because the NAT rewrite
   happens mid-pipeline (Security_in), packets reach later gates with
   the translated tuple — which canonicalizes to the session's *other*
   index key with the direction bit flipped, so [dir_of] recovers the
   true direction from (key, bit) regardless of whether the caller
   sits before or after the rewrite.

   Concurrency: stripe mutexes guard only the index (control-plane
   insert/remove + cold-path lookup); all per-packet state on the
   session record itself is atomics, because under NAT the two
   directions of one session can RSS to different shard domains. *)

open Rp_pkt

type tcp_state = Tcp_syn | Tcp_est | Tcp_fin | Tcp_closed
type state = Tcp of tcp_state | Udp | Other

type t = {
  id : int;
  proto : int;
  iface : int;
  orig_src : Ipaddr.t;
  orig_sport : int;
  orig_dst : Ipaddr.t;
  orig_dport : int;
  xlat_src : Ipaddr.t;
  xlat_sport : int;
  xlat_dst : Ipaddr.t;
  xlat_dport : int;
  nat : bool;
  exported_xlate : Rp_core.Flow_export.xlate option;
  qos : int option;
  fwd_lookup : Flow_key.t;
  fwd_dir : Flow_key.direction;
  rev_lookup : Flow_key.t;
  rev_dir : Flow_key.direction;
  created_ns : int64;
  state_a : int Atomic.t;
  fwd_pkts : int Atomic.t;
  fwd_bytes : int Atomic.t;
  rev_pkts : int Atomic.t;
  rev_bytes : int Atomic.t;
  drops : int Atomic.t;
  last_ns : int64 Atomic.t;
  fwd_route : (int * Ipaddr.t option) option Atomic.t;
  rev_route : (int * Ipaddr.t option) option Atomic.t;
  alive_a : bool Atomic.t;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let alive s = Atomic.get s.alive_a

(* State encoding, one atomic int: 0 = Udp, 1 = Other; TCP sets 0x10
   with the phase in bits 0-1 and the per-direction FIN-seen flags in
   bits 2 (fwd) / 3 (rev). *)
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

let state s = decode (Atomic.get s.state_a)

let state_name s =
  match state s with
  | Tcp Tcp_syn -> "tcp-syn"
  | Tcp Tcp_est -> "tcp-est"
  | Tcp Tcp_fin -> "tcp-fin"
  | Tcp Tcp_closed -> "tcp-closed"
  | Udp -> "udp"
  | Other -> "other"

let route s (dir : Flow_key.direction) =
  Atomic.get (match dir with Fwd -> s.fwd_route | Rev -> s.rev_route)

let learn_route s (dir : Flow_key.direction) r =
  let cell = match dir with Fwd -> s.fwd_route | Rev -> s.rev_route in
  ignore (Atomic.compare_and_set cell None (Some r))

let fetch_add c n =
  ignore (Atomic.fetch_and_add c n)

let touch s ~now ~dir ~len =
  (match (dir : Flow_key.direction) with
  | Fwd ->
    fetch_add s.fwd_pkts 1;
    fetch_add s.fwd_bytes len
  | Rev ->
    fetch_add s.rev_pkts 1;
    fetch_add s.rev_bytes len);
  Atomic.set s.last_ns now

(* One packet's transition.  [`Reject] = the packet must not pass and
   the state is unchanged (data on a closed session). *)
let transition v (dir : Flow_key.direction) tcp_flags =
  if v < st_tcp then `Set v
  else
    let fl = Tcp_header.flags_of_byte tcp_flags in
    let code = v land 0x3 in
    let fins = v land (fin_fwd lor fin_rev) in
    if code = code_closed && not (fl.Tcp_header.syn || fl.Tcp_header.rst) then
      `Reject
    else if fl.Tcp_header.rst then `Set (st_tcp lor code_closed lor fins)
    else if fl.Tcp_header.syn && code = code_closed then
      (* reopen: fresh handshake on the same tuple *)
      `Set (st_tcp lor code_syn)
    else
      let fins =
        fins
        lor
        if fl.Tcp_header.fin then
          match dir with Fwd -> fin_fwd | Rev -> fin_rev
        else 0
      in
      let code =
        if fins = fin_fwd lor fin_rev then code_closed
        else if fl.Tcp_header.fin then code_fin
        else if code = code_syn && dir = Rev then
          (* responder answered the handshake *)
          code_est
        else code
      in
      `Set (st_tcp lor code lor fins)

let rec conntrack_step s ~dir ~tcp_flags =
  let v = Atomic.get s.state_a in
  match transition v dir tcp_flags with
  | `Reject ->
    fetch_add s.drops 1;
    `Drop "conntrack: closed session"
  | `Set v' ->
    if v' = v || Atomic.compare_and_set s.state_a v v' then `Pass
    else conntrack_step s ~dir ~tcp_flags

(* ---- In-place header rewrite -------------------------------------- *)

(* 16-bit words of an address, most significant first — the units both
   the IPv4 header checksum and the L4 pseudo-header checksum sum. *)
let words_of_addr = function
  | Ipaddr.V4 a ->
    let a = Int32.to_int a land 0xFFFFFFFF in
    [ (a lsr 16) land 0xFFFF; a land 0xFFFF ]
  | Ipaddr.V6 (hi, lo) ->
    let quads x =
      [
        Int64.(to_int (shift_right_logical x 48)) land 0xFFFF;
        Int64.(to_int (shift_right_logical x 32)) land 0xFFFF;
        Int64.(to_int (shift_right_logical x 16)) land 0xFFFF;
        Int64.to_int x land 0xFFFF;
      ]
    in
    quads hi @ quads lo

let adjust_diffs csum diffs =
  List.fold_left
    (fun c (old_word, new_word) -> Checksum.adjust c ~old_word ~new_word)
    csum diffs

let adjust_at buf off diffs =
  if diffs <> [] && off >= 0 && off + 2 <= Bytes.length buf then
    Bytes.set_uint16_be buf off
      (adjust_diffs (Bytes.get_uint16_be buf off) diffs)

(* Pair up old/new 16-bit words for one changed field. *)
let addr_diff oldv newv =
  if Ipaddr.equal oldv newv then []
  else List.combine (words_of_addr oldv) (words_of_addr newv)

let port_diff oldp newp = if oldp = newp then [] else [ (oldp, newp) ]

let l4_csum_off proto l4 =
  (* offset of the transport checksum relative to the datagram start,
     or -1 when the protocol has none we maintain *)
  if proto = 6 then l4 + 16 else if proto = 17 then l4 + 6 else -1

let rewrite_raw buf (k : Flow_key.t) ~version ~options ~nsrc ~nsport ~ndst
    ~ndport =
  let addr_diffs = addr_diff k.src nsrc @ addr_diff k.dst ndst in
  let port_diffs = port_diff k.sport nsport @ port_diff k.dport ndport in
  match (version : Mbuf.version) with
  | V4 when Bytes.length buf >= 20 ->
    let ihl = (Bytes.get_uint8 buf 0 land 0xF) * 4 in
    if not (Ipaddr.equal k.src nsrc) then Ipaddr.write nsrc buf 12;
    if not (Ipaddr.equal k.dst ndst) then Ipaddr.write ndst buf 16;
    (* IP header checksum covers only the addresses *)
    adjust_at buf 10 addr_diffs;
    if k.proto = 6 || k.proto = 17 then begin
      if ihl + 4 <= Bytes.length buf then begin
        if k.sport <> nsport then Bytes.set_uint16_be buf ihl nsport;
        if k.dport <> ndport then Bytes.set_uint16_be buf (ihl + 2) ndport
      end;
      let coff = l4_csum_off k.proto ihl in
      if coff >= 0 && coff + 2 <= Bytes.length buf then
        let cur = Bytes.get_uint16_be buf coff in
        (* a UDP checksum of zero means "not computed" — leave it *)
        if not (k.proto = 17 && cur = 0) then
          (* pseudo-header includes the addresses *)
          adjust_at buf coff (addr_diffs @ port_diffs)
    end
  | V6 when Bytes.length buf >= 40 ->
    if not (Ipaddr.equal k.src nsrc) then Ipaddr.write nsrc buf 8;
    if not (Ipaddr.equal k.dst ndst) then Ipaddr.write ndst buf 24;
    (* the transport header sits at 40 only without extension
       headers; with options present we leave ports/checksum to the
       parsed-key rewrite (the model path) *)
    if options = [] && (k.proto = 6 || k.proto = 17) then begin
      let l4 = 40 in
      if l4 + 4 <= Bytes.length buf then begin
        if k.sport <> nsport then Bytes.set_uint16_be buf l4 nsport;
        if k.dport <> ndport then Bytes.set_uint16_be buf (l4 + 2) ndport
      end;
      let coff = l4_csum_off k.proto l4 in
      if coff >= 0 && coff + 2 <= Bytes.length buf then
        let cur = Bytes.get_uint16_be buf coff in
        if not (k.proto = 17 && cur = 0) then
          adjust_at buf coff (addr_diffs @ port_diffs)
    end
  | _ -> ()

let apply_rewrite s (dir : Flow_key.direction) (m : Mbuf.t) =
  let nsrc, nsport, ndst, ndport =
    match dir with
    | Fwd -> (s.xlat_src, s.xlat_sport, s.xlat_dst, s.xlat_dport)
    | Rev -> (s.orig_dst, s.orig_dport, s.orig_src, s.orig_sport)
  in
  let k = m.Mbuf.key in
  if
    Ipaddr.equal k.src nsrc && Ipaddr.equal k.dst ndst && k.sport = nsport
    && k.dport = ndport
  then false
  else begin
    (match m.Mbuf.raw with
    | Some buf ->
      rewrite_raw buf k ~version:m.Mbuf.version ~options:m.Mbuf.options ~nsrc
        ~nsport ~ndst ~ndport
    | None -> ());
    m.Mbuf.key <-
      { k with src = nsrc; dst = ndst; sport = nsport; dport = ndport };
    true
  end

(* A routing decision is only safe to cache when it was made for the
   direction's post-rewrite tuple.  If the NAT plugin was bypassed
   (quarantined, unbound) the packet routed under its untranslated
   addresses, and learning that decision would poison the session's
   cached next-hop for when the rewrite comes back. *)
let route_learnable s (dir : Flow_key.direction) (k : Flow_key.t) =
  let nsrc, nsport, ndst, ndport =
    match dir with
    | Fwd -> (s.xlat_src, s.xlat_sport, s.xlat_dst, s.xlat_dport)
    | Rev -> (s.orig_dst, s.orig_dport, s.orig_src, s.orig_sport)
  in
  Ipaddr.equal k.src nsrc && Ipaddr.equal k.dst ndst && k.sport = nsport
  && k.dport = ndport

type Rp_classifier.Flow_table.soft += Cached of t * Flow_key.direction

let shard_key = Flow_key.canonical_hash

(* The NAT'd session cached in any of [r]'s gate bindings.  A
   top-level loop over the gates, not [iter_bindings] with a closure:
   this runs on every flow export, which must not allocate. *)
let rec xlate_at (r : Rp_core.Plugin.t Rp_classifier.Flow_table.record) g =
  if g >= Rp_core.Gate.count then None
  else
    match Rp_classifier.Flow_table.binding r ~gate:g with
    | Some { Rp_classifier.Flow_table.soft = Some (Cached (s, _)); _ }
      when s.nat ->
      s.exported_xlate
    | Some _ | None -> xlate_at r (g + 1)

let xlate_of_record r = xlate_at r 0

let () = Rp_core.Flow_export.set_translated_of xlate_of_record

let export ~reason s =
  let fp = Atomic.get s.fwd_pkts and rp = Atomic.get s.rev_pkts in
  let drops = Atomic.get s.drops in
  Rp_core.Flow_export.emit_session ~reason ~id:s.id ~src:s.orig_src
    ~dst:s.orig_dst ~proto:s.proto ~sport:s.orig_sport ~dport:s.orig_dport
    ~iface:s.iface ~packets:(fp + rp)
    ~bytes:(Atomic.get s.fwd_bytes + Atomic.get s.rev_bytes)
    ~forwarded:(fp + rp - drops) ~dropped:drops
    ~created_ns:(Int64.to_int s.created_ns)
    ~last_ns:(Int64.to_int (Atomic.get s.last_ns))
    s.exported_xlate

(* ---- The table ---------------------------------------------------- *)

let next_id = Atomic.make 1

module Table = struct
  type session = t

  type timeout_class = [ `Tcp_syn | `Tcp_est | `Tcp_fin | `Udp | `Other ]

  type nat_rule = {
    kind : [ `Snat | `Dnat ];
    filter : Rp_classifier.Filter.t;
    addr : Ipaddr.t;
    port : int option;
    tos : int option;
  }

  type stats = {
    live : int;
    created : int;
    expired : int;
    lookups : int;
    hits : int;
    misses : int;
    cached_hits : int;
    rewrites : int;
    ct_drops : int;
    key_conflicts : int;
  }

  type stripe = { lock : Mutex.t; tbl : (Flow_key.t, session) Hashtbl.t }

  type t = {
    tname : string;
    str : stripe array;
    rules_lock : Mutex.t;
    mutable rules_l : nat_rule list;
    mutable tcp_syn_ns : int64;
    mutable tcp_est_ns : int64;
    mutable tcp_fin_ns : int64;
    mutable udp_ns : int64;
    mutable other_ns : int64;
    created_c : int Atomic.t;
    expired_c : int Atomic.t;
    lookups_c : int Atomic.t;
    hits_c : int Atomic.t;
    misses_c : int Atomic.t;
    cached_c : int Atomic.t;
    rewrites_c : int Atomic.t;
    ct_drops_c : int Atomic.t;
    conflicts_c : int Atomic.t;
  }

  let secs n = Int64.mul (Int64.of_int n) 1_000_000_000L

  let create ?(stripes = 16) tname =
    let t =
    {
      tname;
      str =
        Array.init (max 1 stripes) (fun _ ->
            { lock = Mutex.create (); tbl = Hashtbl.create 64 });
      rules_lock = Mutex.create ();
      rules_l = [];
      tcp_syn_ns = secs 30;
      tcp_est_ns = secs 300;
      tcp_fin_ns = secs 10;
      udp_ns = secs 60;
      other_ns = secs 60;
      created_c = Atomic.make 0;
      expired_c = Atomic.make 0;
      lookups_c = Atomic.make 0;
      hits_c = Atomic.make 0;
      misses_c = Atomic.make 0;
      cached_c = Atomic.make 0;
      rewrites_c = Atomic.make 0;
      ct_drops_c = Atomic.make 0;
      conflicts_c = Atomic.make 0;
    }
    in
    (* Live-session health probe: an unlocked sum over the stripes is a
       momentary snapshot, which is all a sampler needs. *)
    Rp_obs.Health.register
      ("session." ^ tname ^ ".live")
      (fun () ->
        float_of_int
          (Array.fold_left (fun acc s -> acc + Hashtbl.length s.tbl) 0 t.str));
    t

  let name t = t.tname

  let registry : (string, t) Hashtbl.t = Hashtbl.create 4
  let registry_lock = Mutex.create ()

  let get name =
    with_lock registry_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some t -> t
        | None ->
          let t = create name in
          Hashtbl.add registry name t;
          t)

  let names () =
    with_lock registry_lock (fun () ->
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry []))

  let stripe_idx t ck = Flow_key.hash ck land max_int mod Array.length t.str

  let set_timeout t (c : timeout_class) ns =
    match c with
    | `Tcp_syn -> t.tcp_syn_ns <- ns
    | `Tcp_est -> t.tcp_est_ns <- ns
    | `Tcp_fin -> t.tcp_fin_ns <- ns
    | `Udp -> t.udp_ns <- ns
    | `Other -> t.other_ns <- ns

  let timeout t (c : timeout_class) =
    match c with
    | `Tcp_syn -> t.tcp_syn_ns
    | `Tcp_est -> t.tcp_est_ns
    | `Tcp_fin -> t.tcp_fin_ns
    | `Udp -> t.udp_ns
    | `Other -> t.other_ns

  let timeout_of_state t = function
    | Tcp Tcp_syn -> t.tcp_syn_ns
    | Tcp Tcp_est -> t.tcp_est_ns
    | Tcp (Tcp_fin | Tcp_closed) -> t.tcp_fin_ns
    | Udp -> t.udp_ns
    | Other -> t.other_ns

  let add_rule t r = with_lock t.rules_lock (fun () -> t.rules_l <- t.rules_l @ [ r ])

  let del_rule t i =
    with_lock t.rules_lock (fun () ->
        if i < 0 || i >= List.length t.rules_l then
          Error (Printf.sprintf "no NAT rule %d" i)
        else begin
          t.rules_l <- List.filteri (fun j _ -> j <> i) t.rules_l;
          Ok ()
        end)

  let rules t = t.rules_l

  let cached_hit t ~charge =
    Atomic.incr t.cached_c;
    if charge then begin
      Rp_lpm.Access.charge 1;
      Rp_core.Cost.charge_mem 1
    end

  let note_rewrite t = Atomic.incr t.rewrites_c
  let note_ct_drop t = Atomic.incr t.ct_drops_c

  (* Recover the packet's true direction from which index key it
     canonicalized to and the direction bit canonicalization reported.
     Works both before the NAT rewrite (the key is an ingress tuple,
     matching (fwd_lookup, fwd_dir) or (rev_lookup, rev_dir)) and
     after it (the translated tuple canonicalizes to the *other* index
     key with the bit flipped). *)
  let dir_of s ck d : Flow_key.direction =
    if Flow_key.equal ck s.fwd_lookup then
      if d = s.fwd_dir then Fwd else Rev
    else if d = s.rev_dir then Rev
    else Fwd

  let first_rule t kind key =
    List.find_opt
      (fun r -> r.kind = kind && Rp_classifier.Filter.matches r.filter key)
      t.rules_l

  let make_session t (key : Flow_key.t) ~now ~tcp_flags =
    let snat = first_rule t `Snat key and dnat = first_rule t `Dnat key in
    let xlat_src, xlat_sport =
      match snat with
      | Some r -> (r.addr, Option.value r.port ~default:key.sport)
      | None -> (key.src, key.sport)
    in
    let xlat_dst, xlat_dport =
      match dnat with
      | Some r -> (r.addr, Option.value r.port ~default:key.dport)
      | None -> (key.dst, key.dport)
    in
    let qos =
      match (snat, dnat) with
      | Some { tos = Some q; _ }, _ | _, Some { tos = Some q; _ } -> Some q
      | _ -> None
    in
    let nat =
      not
        (Ipaddr.equal xlat_src key.src
        && Ipaddr.equal xlat_dst key.dst
        && xlat_sport = key.sport && xlat_dport = key.dport)
    in
    let fwd_lookup, fwd_dir = Flow_key.canonical key in
    let rev_lookup, rev_dir =
      Flow_key.canonical
        (Flow_key.reverse ~iface:0
           { key with src = xlat_src; dst = xlat_dst; sport = xlat_sport;
             dport = xlat_dport })
    in
    let state0 =
      if key.proto = 6 then
        let fl = Tcp_header.flags_of_byte tcp_flags in
        if fl.Tcp_header.syn && not fl.Tcp_header.ack then st_tcp lor code_syn
        else st_tcp lor code_est (* mid-stream pickup *)
      else if key.proto = 17 then 0
      else 1
    in
    {
      id = Atomic.fetch_and_add next_id 1;
      proto = key.proto;
      iface = key.iface;
      orig_src = key.src;
      orig_sport = key.sport;
      orig_dst = key.dst;
      orig_dport = key.dport;
      xlat_src;
      xlat_sport;
      xlat_dst;
      xlat_dport;
      nat;
      exported_xlate =
        (if nat then
           Some
             {
               Rp_core.Flow_export.xsrc = xlat_src;
               xdst = xlat_dst;
               xsport = xlat_sport;
               xdport = xlat_dport;
             }
         else None);
      qos;
      fwd_lookup;
      fwd_dir;
      rev_lookup;
      rev_dir;
      created_ns = now;
      state_a = Atomic.make state0;
      fwd_pkts = Atomic.make 0;
      fwd_bytes = Atomic.make 0;
      rev_pkts = Atomic.make 0;
      rev_bytes = Atomic.make 0;
      drops = Atomic.make 0;
      last_ns = Atomic.make now;
      fwd_route = Atomic.make None;
      rev_route = Atomic.make None;
      alive_a = Atomic.make true;
    }

  (* Lock stripes [i] and [j] in index order (deadlock-free for the
     two-key insert). *)
  let lock2 t i j f =
    if i = j then with_lock t.str.(i).lock f
    else
      let a = min i j and b = max i j in
      with_lock t.str.(a).lock (fun () -> with_lock t.str.(b).lock f)

  let resolve t ?(create = true) key ~now ~tcp_flags =
    let ck, d = Flow_key.canonical key in
    Atomic.incr t.lookups_c;
    (* the one session-table hit: bucket probe + record read *)
    Rp_lpm.Access.charge 2;
    Rp_core.Cost.charge_mem 2;
    Rp_core.Cost.charge Rp_core.Cost.flow_hash;
    let i = stripe_idx t ck in
    let found =
      with_lock t.str.(i).lock (fun () -> Hashtbl.find_opt t.str.(i).tbl ck)
    in
    match found with
    | Some s when alive s ->
      Atomic.incr t.hits_c;
      Some (s, dir_of s ck d)
    | _ ->
      Atomic.incr t.misses_c;
      if not create then None
      else begin
        let s = make_session t key ~now ~tcp_flags in
        let j = stripe_idx t s.fwd_lookup and k2 = stripe_idx t s.rev_lookup in
        (* index insert: two writes *)
        Rp_lpm.Access.charge 2;
        Rp_core.Cost.charge_mem 2;
        let s =
          lock2 t j k2 (fun () ->
              match Hashtbl.find_opt t.str.(j).tbl s.fwd_lookup with
              | Some s' when alive s' -> s' (* lost a create race *)
              | _ ->
                Hashtbl.replace t.str.(j).tbl s.fwd_lookup s;
                if not (Flow_key.equal s.rev_lookup s.fwd_lookup) then begin
                  match Hashtbl.find_opt t.str.(k2).tbl s.rev_lookup with
                  | Some s' when alive s' ->
                    (* reply tuple already owned by another session:
                       keep the forward index only *)
                    ignore s';
                    Atomic.incr t.conflicts_c
                  | _ -> Hashtbl.replace t.str.(k2).tbl s.rev_lookup s
                end;
                Atomic.incr t.created_c;
                s)
        in
        Some (s, dir_of s ck d)
      end

  let remove_key t k s =
    let i = stripe_idx t k in
    with_lock t.str.(i).lock (fun () ->
        match Hashtbl.find_opt t.str.(i).tbl k with
        | Some s' when s' == s -> Hashtbl.remove t.str.(i).tbl k
        | _ -> ())

  let reap t ~now ~force ~reason =
    let victims = ref [] in
    Array.iter
      (fun st ->
        with_lock st.lock (fun () ->
            Hashtbl.iter
              (fun _ s ->
                let dead =
                  force
                  || (not (alive s))
                  || Int64.sub now (Atomic.get s.last_ns)
                     > timeout_of_state t (state s)
                in
                (* the CAS makes one reaper the owner even if expiry
                   runs concurrently from two domains *)
                if dead && Atomic.compare_and_set s.alive_a true false then
                  victims := s :: !victims)
              st.tbl))
      t.str;
    List.iter
      (fun s ->
        remove_key t s.fwd_lookup s;
        if not (Flow_key.equal s.rev_lookup s.fwd_lookup) then
          remove_key t s.rev_lookup s;
        Atomic.incr t.expired_c;
        export ~reason s)
      !victims;
    List.length !victims

  let expire t ~now = reap t ~now ~force:false ~reason:"session-expired"
  let flush t = reap t ~now:0L ~force:true ~reason:"session-flushed"

  let iter f t =
    Array.iter
      (fun st ->
        with_lock st.lock (fun () ->
            Hashtbl.iter
              (fun k s ->
                if alive s && Flow_key.equal k s.fwd_lookup then f s)
              st.tbl))
      t.str

  let length t =
    let n = ref 0 in
    iter (fun _ -> incr n) t;
    !n

  let stats t =
    {
      live = length t;
      created = Atomic.get t.created_c;
      expired = Atomic.get t.expired_c;
      lookups = Atomic.get t.lookups_c;
      hits = Atomic.get t.hits_c;
      misses = Atomic.get t.misses_c;
      cached_hits = Atomic.get t.cached_c;
      rewrites = Atomic.get t.rewrites_c;
      ct_drops = Atomic.get t.ct_drops_c;
      key_conflicts = Atomic.get t.conflicts_c;
    }
end

(* The per-packet entry point shared by the session plugins: steady
   state dereferences the session pointer cached in the gate binding's
   soft slot (one memory access, charged by exactly one of the plugins
   on the packet's path — the record is cache-hot for the rest); a
   cold or invalidated slot falls back to the striped table and
   repopulates the cache. *)
let cached_resolve table ?(create = true) ~cache ~charge
    (ctx : Rp_core.Plugin.ctx) (m : Mbuf.t) =
  let now = ctx.Rp_core.Plugin.now_ns in
  let table_resolve () =
    Table.resolve table ~create m.Mbuf.key ~now ~tcp_flags:m.Mbuf.tcp_flags
  in
  match ctx.Rp_core.Plugin.binding with
  | Some b when cache -> (
    match b.Rp_classifier.Flow_table.soft with
    | Some (Cached (s, dir)) when alive s ->
      Table.cached_hit table ~charge;
      Some (s, dir)
    | _ -> (
      match table_resolve () with
      | Some (s, dir) as r ->
        b.Rp_classifier.Flow_table.soft <- Some (Cached (s, dir));
        r
      | None -> None))
  | _ -> table_resolve ()
