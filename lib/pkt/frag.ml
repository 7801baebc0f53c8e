let header_size (m : Mbuf.t) =
  match m.Mbuf.version with
  | Mbuf.V4 -> Ipv4_header.size
  | Mbuf.V6 -> Ipv6_header.size

let needs_fragmentation (m : Mbuf.t) ~mtu = m.Mbuf.len > mtu

let fragment (m : Mbuf.t) ~mtu =
  if not (needs_fragmentation m ~mtu) then Ok [ m ]
  else
    match m.Mbuf.version with
    | Mbuf.V6 -> Error `V6_never_fragments
    | Mbuf.V4 when m.Mbuf.dont_fragment -> Error `Dont_fragment
    | Mbuf.V4 ->
      let hdr = header_size m in
      let payload_len = m.Mbuf.len - hdr in
      (* Per-fragment payload: multiple of 8, at least 8. *)
      let chunk = max 8 ((mtu - hdr) land lnot 7) in
      let base_offset, last_has_more =
        match m.Mbuf.frag with
        | Some f -> (f.Mbuf.offset, f.Mbuf.more)
        | None -> (0, false)
      in
      let rec split acc off =
        if off >= payload_len then List.rev acc
        else
          let this = min chunk (payload_len - off) in
          let more = off + this < payload_len || last_has_more in
          let fm = Mbuf.synth ~ttl:m.Mbuf.ttl ~tos:m.Mbuf.tos ~key:m.Mbuf.key
              ~len:(hdr + this) ()
          in
          fm.Mbuf.ident <- m.Mbuf.ident;
          fm.Mbuf.seq <- m.Mbuf.seq;
          fm.Mbuf.out_iface <- m.Mbuf.out_iface;
          fm.Mbuf.next_hop <- m.Mbuf.next_hop;
          fm.Mbuf.birth_ns <- m.Mbuf.birth_ns;
          fm.Mbuf.tags <- m.Mbuf.tags;
          fm.Mbuf.frag <- Some { Mbuf.offset = base_offset + off; more };
          (match m.Mbuf.raw with
           | Some raw ->
             (* Real wire fragment: fresh IPv4 header + payload slice. *)
             let buf = Bytes.create (hdr + this) in
             let h =
               Ipv4_header.default ~tos:m.Mbuf.tos ~ident:m.Mbuf.ident
                 ~ttl:m.Mbuf.ttl ~total_length:(hdr + this)
                 ~proto:m.Mbuf.key.Flow_key.proto ~src:m.Mbuf.key.Flow_key.src
                 ~dst:m.Mbuf.key.Flow_key.dst ()
             in
             Ipv4_header.serialize
               {
                 h with
                 Ipv4_header.more_fragments = more;
                 fragment_offset = (base_offset + off) / 8;
               }
               buf 0;
             Bytes.blit raw (hdr + off) buf hdr this;
             fm.Mbuf.raw <- Some buf
           | None -> ());
          split (fm :: acc) (off + this)
      in
      Ok (split [] 0)

module Reassembly = struct
  type datagram = {
    mutable chunks : (int * int * Bytes.t option) list;
        (** (offset, payload length, wire payload) *)
    mutable total : int option;  (** known once the last fragment arrives *)
    mutable first_seen_ns : int64;
    template : Mbuf.t;  (** header fields for the rebuilt datagram *)
  }

  type t = {
    timeout_ns : int64;
    table : (Ipaddr.t * Ipaddr.t * int * int, datagram) Hashtbl.t;
    mutable oldest_ns : int64;  (** no pending datagram is older *)
  }

  let c_expired = Rp_obs.Registry.counter "frag.reasm_expired"
  let c_evicted = Rp_obs.Registry.counter "frag.reasm_evicted"
  let c_refused = Rp_obs.Registry.counter "frag.reasm_refused"

  let max_pending = 1024
  let max_frags = 64

  let create ?(timeout_ns = 30_000_000_000L) () =
    { timeout_ns; table = Hashtbl.create 32; oldest_ns = Int64.max_int }

  (* Buffered fragments that die unreassembled; their verdict was to
     be absorbed, so this is where their loss is counted. *)
  let discarded n = Rp_obs.Drop_reason.add Rp_obs.Drop_reason.Frag_evicted n

  (* A datagram is (source, destination, protocol, identification). *)
  let key_of (m : Mbuf.t) =
    let k = m.Mbuf.key in
    (k.Flow_key.src, k.Flow_key.dst, k.Flow_key.proto, m.Mbuf.ident)

  let pending t = Hashtbl.length t.table
  let buffered t = Hashtbl.fold (fun _ d n -> n + List.length d.chunks) t.table 0

  (* Is [0, total) fully covered by the chunks? *)
  let complete d =
    match d.total with
    | None -> false
    | Some total ->
      let sorted = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) d.chunks in
      let rec walk edge = function
        | [] -> edge >= total
        | (off, len, _) :: rest ->
          if off > edge then false else walk (max edge (off + len)) rest
      in
      walk 0 sorted

  (* The whole datagram: its wire bytes parsed afresh when every
     fragment carried bytes ([None] if they make no datagram), else a
     descriptor like the fragments'. *)
  let rebuild d =
    let t = d.template and total = Option.get d.total in
    let k = t.Mbuf.key in
    match
      if List.exists (fun (_, _, b) -> b = None) d.chunks then
        Mbuf.synth ~ttl:t.Mbuf.ttl ~tos:t.Mbuf.tos ~key:k
          ~len:(header_size t + total) ()
      else begin
        let payload = Bytes.create total in
        List.iter
          (fun (off, len, b) -> Bytes.blit (Option.get b) 0 payload off len)
          d.chunks;
        Mbuf.datagram ~ttl:t.Mbuf.ttl ~tos:t.Mbuf.tos ~src:k.Flow_key.src
          ~dst:k.Flow_key.dst ~proto:k.Flow_key.proto ~iface:k.Flow_key.iface
          payload
      end
    with
    | m ->
      m.Mbuf.ident <- t.Mbuf.ident;
      m.Mbuf.seq <- t.Mbuf.seq;
      m.Mbuf.birth_ns <- t.Mbuf.birth_ns;
      m.Mbuf.tags <- t.Mbuf.tags;
      Some m
    | exception Invalid_argument _ -> None

  (* Drop the datagrams first seen before [before], counted in [c];
     [oldest_ns] is then exact. *)
  let drop_before t ~before c =
    let stale = ref [] and oldest = ref Int64.max_int and frags = ref 0 in
    Hashtbl.iter
      (fun k d ->
        if d.first_seen_ns < before then begin
          stale := k :: !stale;
          frags := !frags + List.length d.chunks
        end
        else oldest := min !oldest d.first_seen_ns)
      t.table;
    List.iter (Hashtbl.remove t.table) !stale;
    t.oldest_ns <- !oldest;
    Rp_obs.Counter.add c (List.length !stale);
    if !frags > 0 then discarded !frags;
    List.length !stale

  let expire t ~now = drop_before t ~before:(Int64.sub now t.timeout_ns) c_expired

  let offer t ~now (m : Mbuf.t) =
    match m.Mbuf.frag with
    | None -> Some m
    | Some f ->
      if t.oldest_ns < Int64.sub now t.timeout_ns then ignore (expire t ~now);
      let k = key_of m in
      let d =
        match Hashtbl.find_opt t.table k with
        | Some d -> d
        | None ->
          (* at the cap, the datagrams first seen earliest make room *)
          while Hashtbl.length t.table >= max_pending do
            ignore (drop_before t ~before:(Int64.succ t.oldest_ns) c_evicted)
          done;
          let d =
            { chunks = []; total = None; first_seen_ns = now; template = m }
          in
          Hashtbl.add t.table k d;
          t.oldest_ns <- min t.oldest_ns now;
          d
      in
      let hdr = header_size m in
      let plen = m.Mbuf.len - hdr in
      let payload =
        Option.map (fun raw -> Bytes.sub raw hdr plen) m.Mbuf.raw
      in
      (* A duplicate fragment replaces the one buffered, which dies. *)
      if List.exists (fun (off, _, _) -> off = f.Mbuf.offset) d.chunks then begin
        discarded 1;
        d.chunks <- List.filter (fun (off, _, _) -> off <> f.Mbuf.offset) d.chunks
      end;
      d.chunks <- (f.Mbuf.offset, plen, payload) :: d.chunks;
      if not f.Mbuf.more then d.total <- Some (f.Mbuf.offset + plen);
      let discard () =
        Hashtbl.remove t.table k;
        discarded (List.length d.chunks);
        None
      in
      if List.compare_length_with d.chunks max_frags > 0 then begin
        (* past the per-datagram cap: the datagram is dropped whole *)
        Rp_obs.Counter.inc c_refused;
        discard ()
      end
      else if complete d then
        match rebuild d with
        | Some _ as whole ->
          Hashtbl.remove t.table k;
          whole
        | None -> discard ()
      else None
end
