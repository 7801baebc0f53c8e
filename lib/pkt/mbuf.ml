type version = V4 | V6

(* A FIX packs the slot in the low [fix_slot_bits] bits and the low
   31 bits of the generation above them, so it is an immediate int and
   never negative; -1 is none. *)
type fix = int

let no_fix = -1
let fix_slot_bits = 31
let fix_slot_mask = (1 lsl fix_slot_bits) - 1
let fix_gen_mask = (1 lsl 31) - 1
let make_fix ~slot ~gen = ((gen land fix_gen_mask) lsl fix_slot_bits) lor slot
let fix_slot fix = fix land fix_slot_mask
let fix_gen fix = fix lsr fix_slot_bits

(* Physically unique: [next_hop == no_hop] is the test, so no address
   value, the all-ones one included, can be mistaken for it. *)
let no_hop = Ipaddr.of_string "255.255.255.255"

type frag_info = {
  offset : int;
  more : bool;
}

type t = {
  mutable key : Flow_key.t;
  mutable version : version;
  mutable len : int;
  mutable ttl : int;
  mutable tos : int;
  mutable flow_label : int;
  mutable options : Ipv6_header.Option_tlv.t list;
  mutable raw : Bytes.t option;
  mutable fix : fix;
  mutable out_iface : int option;
  mutable next_hop : Ipaddr.t;
  mutable birth_ns : int64;
  mutable seq : int;
  mutable tags : string list;
  mutable ident : int;
  mutable dont_fragment : bool;
  mutable frag : frag_info option;
  mutable tseq : int;
  mutable pool_id : int;
  mutable pool_slot : int;
  mutable tcp_flags : int;
  mutable ingress_cycles : int;
  mutable gate_cycles : int array;
}

(* Every constructor of a descriptor goes through here; the fields
   not named are a fresh packet's. *)
let descriptor ~key ~version ~len ~ttl ~tos ~flow_label ~options ~raw ~ident
    ~dont_fragment ~frag ~tcp_flags =
  {
    key;
    version;
    len;
    ttl;
    tos;
    flow_label;
    options;
    raw;
    fix = no_fix;
    out_iface = None;
    next_hop = no_hop;
    birth_ns = 0L;
    seq = 0;
    tags = [];
    ident;
    dont_fragment;
    frag;
    tseq = 0;
    pool_id = 0;
    pool_slot = -1;
    tcp_flags;
    ingress_cycles = 0;
    gate_cycles = [||];
  }

let synth ?(ttl = 64) ?(tos = 0) ?(flow_label = 0) ?(tcp_flags = 0) ~key ~len
    () =
  descriptor ~key
    ~version:(if Ipaddr.is_v4 key.Flow_key.src then V4 else V6)
    ~len ~ttl ~tos ~flow_label ~options:[] ~raw:None ~ident:0
    ~dont_fragment:false ~frag:None ~tcp_flags

let dummy =
  synth
    ~key:
      (Flow_key.make ~src:Ipaddr.zero_v4 ~dst:Ipaddr.zero_v4 ~proto:0 ~sport:0
         ~dport:0 ~iface:0)
    ~len:0 ()

type error =
  | V4_error of Ipv4_header.error
  | V6_error of Ipv6_header.error
  | Udp_error of Udp_header.error
  | Tcp_error of Tcp_header.error
  | Empty

let pp_error ppf = function
  | V4_error e -> Ipv4_header.pp_error ppf e
  | V6_error e -> Ipv6_header.pp_error ppf e
  | Udp_error e -> Udp_header.pp_error ppf e
  | Tcp_error e -> Tcp_header.pp_error ppf e
  | Empty -> Format.pp_print_string ppf "empty packet"

(* The datagram parser reads every field at its fixed offset straight
   into the descriptor; the header modules' validators are the only
   checks, in wire order, so the valid path builds no header record,
   [Result] chain or port tuple. *)

let rd8 = Bytes.get_uint8
let rd16 = Bytes.get_uint16_be

(* The transport header at [l4] is checked only for the protocols
   whose ports enter the key, and only when the bytes hold one. *)
let transport_error ~proto buf l4 =
  if l4 < 0 then None
  else if proto = Proto.udp then
    match Udp_header.validate buf l4 with
    | None -> None
    | Some e -> Some (Udp_error e)
  else if proto = Proto.tcp then
    match Tcp_header.validate buf l4 with
    | None -> None
    | Some e -> Some (Tcp_error e)
  else None

(* The six-tuple: the caller reads the addresses, the ports come from
   the validated transport header at [l4] (0 without one). *)
let key_of ~iface ~proto buf ~l4 src dst =
  let ports = l4 >= 0 && (proto = Proto.udp || proto = Proto.tcp) in
  Flow_key.make ~src ~dst ~proto
    ~sport:(if ports then rd16 buf l4 else 0)
    ~dport:(if ports then rd16 buf (l4 + 2) else 0)
    ~iface

let tcp_flags_of ~proto buf ~l4 =
  if l4 >= 0 && proto = Proto.tcp then rd8 buf (l4 + 13) land 0x3F else 0

(* Where the transport header starts in a datagram's bytes, by their
   version nibble: IHL for IPv4, past a hop-by-hop header for IPv6
   (the parser accepts no other extension header); -1 when the bytes
   hold none: too short to say, or a non-initial IPv4 fragment, whose
   bytes are the middle of the payload (RFC 791: only the fragment at
   offset 0 carries the transport header).  The parser and
   [l4_offset] both read it here. *)
let l4_of_buf buf =
  let n = Bytes.length buf in
  if n < Ipv4_header.size then -1
  else if rd8 buf 0 lsr 4 <> 6 then
    if rd16 buf 6 land 0x1FFF <> 0 then -1 else (rd8 buf 0 land 0xF) * 4
  else if n < Ipv6_header.size then -1
  else if rd8 buf 6 <> Proto.ipv6_hop_by_hop then Ipv6_header.size
  else if n < Ipv6_header.size + 2 then -1
  else Ipv6_header.size + ((rd8 buf (Ipv6_header.size + 1) + 1) * 8)

let v4 ~iface buf =
  match Ipv4_header.validate buf 0 with
  | Some e -> Error (V4_error e)
  | None -> (
    let len = rd16 buf 2 in
    (* the header parser accepts a header alone (an ICMP error quotes
       one); a datagram must be all there *)
    if len > Bytes.length buf then Error (V4_error (Ipv4_header.Bad_length len))
    else
      let proto = rd8 buf 9 and l4 = l4_of_buf buf in
      match transport_error ~proto buf l4 with
      | Some e -> Error e
      | None ->
        let flags_frag = rd16 buf 6 in
        let offset = flags_frag land 0x1FFF
        and more = flags_frag land 0x2000 <> 0 in
        Ok
          (descriptor
             ~key:
               (key_of ~iface ~proto buf ~l4 (Ipaddr.read_v4 buf 12)
                  (Ipaddr.read_v4 buf 16))
             ~version:V4 ~len ~ttl:(rd8 buf 8) ~tos:(rd8 buf 1) ~flow_label:0
             ~options:[] ~raw:(Some buf) ~ident:(rd16 buf 4)
             ~dont_fragment:(flags_frag land 0x4000 <> 0)
             ~frag:
               (if offset = 0 && not more then None
                else Some { offset = offset * 8; more })
             ~tcp_flags:(tcp_flags_of ~proto buf ~l4)))

(* Padding options carry no meaning past the parser. *)
let semantic =
  List.filter (function
    | Ipv6_header.Option_tlv.Pad1 | Ipv6_header.Option_tlv.Padn _ -> false
    | Ipv6_header.Option_tlv.Router_alert _
    | Ipv6_header.Option_tlv.Jumbo_payload _
    | Ipv6_header.Option_tlv.Unknown _ -> true)

let v6_upper ~iface buf ~len ~options ~proto ~l4 =
  match transport_error ~proto buf l4 with
  | Some e -> Error e
  | None ->
    let b0 = rd8 buf 0 and b1 = rd8 buf 1 in
    Ok
      (descriptor
         ~key:
           (key_of ~iface ~proto buf ~l4 (Ipaddr.read_v6 buf 8)
              (Ipaddr.read_v6 buf 24))
         ~version:V6 ~len ~ttl:(rd8 buf 7)
         ~tos:(((b0 land 0xF) lsl 4) lor (b1 lsr 4))
         ~flow_label:(((b1 land 0xF) lsl 16) lor rd16 buf 2)
         ~options ~raw:(Some buf) ~ident:0
         ~dont_fragment:true (* routers never fragment IPv6 *)
         ~frag:None ~tcp_flags:(tcp_flags_of ~proto buf ~l4))

let v6 ~iface buf =
  match Ipv6_header.validate buf 0 with
  | Some e -> Error (V6_error e)
  | None ->
    let len = Ipv6_header.size + rd16 buf 4 in
    if len > Bytes.length buf then Error (V6_error Ipv6_header.Truncated)
    else
      let next = rd8 buf 6 and l4 = l4_of_buf buf in
      if next <> Proto.ipv6_hop_by_hop then
        v6_upper ~iface buf ~len ~options:[] ~proto:next ~l4
      else
        match Ipv6_header.Hop_by_hop.parse buf Ipv6_header.size with
        | Error e -> Error (V6_error e)
        | Ok (hbh, _) ->
          v6_upper ~iface buf ~len
            ~options:(semantic hbh.Ipv6_header.Hop_by_hop.options)
            ~proto:hbh.Ipv6_header.Hop_by_hop.next_header ~l4

let of_bytes ~iface buf =
  if Bytes.length buf = 0 then Error Empty
  else
    let version = rd8 buf 0 lsr 4 in
    if version = 4 then v4 ~iface buf
    else if version = 6 then v6 ~iface buf
    else Error (V4_error (Ipv4_header.Bad_version version))

(* The builder writes the IP header (and any hop-by-hop header) with
   the header serializers, puts [msg] after it, and parses the result,
   so a built datagram is exactly what the wire would deliver. *)
let datagram ?(ttl = 64) ?(tos = 0) ?(flow_label = 0) ?(options = []) ~src
    ~dst ~proto ~iface msg =
  let mlen = Bytes.length msg in
  let buf, l4 =
    if Ipaddr.is_v4 src then begin
      let total = Ipv4_header.size + mlen in
      if options <> [] || total > 0xFFFF then invalid_arg "Mbuf.datagram";
      let buf = Bytes.create total in
      Ipv4_header.serialize
        (Ipv4_header.default ~tos ~ttl ~total_length:total ~proto ~src ~dst ())
        buf 0;
      (buf, Ipv4_header.size)
    end
    else begin
      let hbh =
        if options = [] then None
        else Some { Ipv6_header.Hop_by_hop.next_header = proto; options }
      in
      let hbh_len = Option.fold ~none:0 ~some:Ipv6_header.Hop_by_hop.wire_length hbh in
      if hbh_len + mlen > 0xFFFF then invalid_arg "Mbuf.datagram";
      let buf = Bytes.create (Ipv6_header.size + hbh_len + mlen) in
      Ipv6_header.serialize
        (Ipv6_header.default ~traffic_class:tos ~flow_label ~hop_limit:ttl
           ~payload_length:(hbh_len + mlen)
           ~next_header:(if hbh = None then proto else Proto.ipv6_hop_by_hop)
           ~src ~dst ())
        buf 0;
      Option.iter
        (fun h -> ignore (Ipv6_header.Hop_by_hop.serialize h buf Ipv6_header.size))
        hbh;
      (buf, Ipv6_header.size + hbh_len)
    end
  in
  Bytes.blit msg 0 buf l4 mlen;
  match of_bytes ~iface buf with
  | Ok m -> m
  | Error e -> invalid_arg (Format.asprintf "Mbuf.datagram: %a" pp_error e)

let l4_offset m =
  match m.raw with
  | None -> -1
  | Some buf ->
    let l4 = l4_of_buf buf in
    if l4 > m.len then -1 else l4

let l4_message m =
  let l4 = l4_offset m in
  match m.raw with
  | Some buf when l4 >= 0 && m.len <= Bytes.length buf ->
    Some (Bytes.sub buf l4 (m.len - l4))
  | Some _ | None -> None

let udp_message ~src ~dst ~sport ~dport payload =
  let len = Udp_header.size + String.length payload in
  let msg = Bytes.create len in
  Bytes.blit_string payload 0 msg Udp_header.size (String.length payload);
  let udp = { Udp_header.sport; dport; length = len; checksum = 0 } in
  Udp_header.serialize udp msg 0;
  Udp_header.serialize
    { udp with checksum = Udp_header.compute_checksum ~src ~dst msg 0 len }
    msg 0;
  msg

let udp_v4 ?ttl ?tos ~src ~dst ~sport ~dport ~iface ~payload () =
  datagram ?ttl ?tos ~src ~dst ~proto:Proto.udp ~iface
    (udp_message ~src ~dst ~sport ~dport payload)

let udp_v6 ?hop_limit ?traffic_class ?flow_label ?options ~src ~dst ~sport
    ~dport ~iface ~payload () =
  datagram ?ttl:hop_limit ?tos:traffic_class ?flow_label ?options ~src ~dst
    ~proto:Proto.udp ~iface
    (udp_message ~src ~dst ~sport ~dport payload)

let set_ttl m ttl =
  m.ttl <- ttl;
  match m.raw with
  | None -> ()
  | Some buf ->
    if m.version = V6 then Bytes.set_uint8 buf 7 ttl
    else begin
      (* the TTL shares its header word with the protocol; byte-wide
         accesses are primitives, the 16-bit ones calls *)
      let proto = rd8 buf 9 in
      let old_word = (rd8 buf 8 lsl 8) lor proto in
      let c =
        Checksum.adjust
          ((rd8 buf 10 lsl 8) lor rd8 buf 11)
          ~old_word ~new_word:((ttl lsl 8) lor proto)
      in
      Bytes.set_uint8 buf 8 ttl;
      Bytes.set_uint8 buf 10 (c lsr 8);
      Bytes.set_uint8 buf 11 (c land 0xFF)
    end

let has_tag m tag = List.mem tag m.tags
let add_tag m tag = if not (has_tag m tag) then m.tags <- tag :: m.tags

let pp ppf m =
  Format.fprintf ppf "pkt{%a len=%d ttl=%d%s}" Flow_key.pp m.key m.len m.ttl
    (if m.fix < 0 then ""
     else Printf.sprintf " fix=%d.%d" (fix_slot m.fix) (fix_gen m.fix))
