type t = {
  tos : int;
  total_length : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;
  ttl : int;
  proto : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

let size = 20

type error =
  | Truncated
  | Bad_version of int
  | Bad_ihl of int
  | Bad_checksum
  | Bad_length of int

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated IPv4 header"
  | Bad_version v -> Format.fprintf ppf "bad IP version %d" v
  | Bad_ihl i -> Format.fprintf ppf "unsupported IHL %d" i
  | Bad_checksum -> Format.pp_print_string ppf "bad IPv4 header checksum"
  | Bad_length l -> Format.fprintf ppf "bad total length %d" l

let u8 buf off = Char.code (Bytes.get buf off)
let u16 buf off = Char.code (Bytes.get buf off) * 256 + Char.code (Bytes.get buf (off + 1))

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

let validate buf off =
  if Bytes.length buf - off < size then Some Truncated
  else
    let vihl = u8 buf off in
    let version = vihl lsr 4 in
    let ihl = vihl land 0xF in
    if version <> 4 then Some (Bad_version version)
    else if ihl <> 5 then Some (Bad_ihl ihl)
    else if not (Checksum.valid buf off size) then Some Bad_checksum
    else
      let total_length = u16 buf (off + 2) in
      if total_length < size then Some (Bad_length total_length) else None

let parse buf off =
  match validate buf off with
  | Some e -> Error e
  | None ->
    let flags_frag = u16 buf (off + 6) in
    Ok
      {
        tos = u8 buf (off + 1);
        total_length = u16 buf (off + 2);
        ident = u16 buf (off + 4);
        dont_fragment = flags_frag land 0x4000 <> 0;
        more_fragments = flags_frag land 0x2000 <> 0;
        fragment_offset = flags_frag land 0x1FFF;
        ttl = u8 buf (off + 8);
        proto = u8 buf (off + 9);
        src = Ipaddr.read_v4 buf (off + 12);
        dst = Ipaddr.read_v4 buf (off + 16);
      }

let serialize t buf off =
  Bytes.set buf off (Char.chr 0x45);
  Bytes.set buf (off + 1) (Char.chr (t.tos land 0xFF));
  set_u16 buf (off + 2) t.total_length;
  set_u16 buf (off + 4) t.ident;
  let flags =
    (if t.dont_fragment then 0x4000 else 0)
    lor (if t.more_fragments then 0x2000 else 0)
    lor (t.fragment_offset land 0x1FFF)
  in
  set_u16 buf (off + 6) flags;
  Bytes.set buf (off + 8) (Char.chr (t.ttl land 0xFF));
  Bytes.set buf (off + 9) (Char.chr (t.proto land 0xFF));
  set_u16 buf (off + 10) 0;
  Ipaddr.write t.src buf (off + 12);
  Ipaddr.write t.dst buf (off + 16);
  set_u16 buf (off + 10) (Checksum.compute buf off size)

let default ?(tos = 0) ?(ident = 0) ?(ttl = 64) ~total_length ~proto ~src ~dst () =
  if not (Ipaddr.is_v4 src && Ipaddr.is_v4 dst) then
    invalid_arg "Ipv4_header.default: addresses must be IPv4";
  {
    tos;
    total_length;
    ident;
    dont_fragment = false;
    more_fragments = false;
    fragment_offset = 0;
    ttl;
    proto;
    src;
    dst;
  }

let pp ppf t =
  Format.fprintf ppf "IPv4{%a -> %a proto=%a len=%d ttl=%d}" Ipaddr.pp t.src
    Ipaddr.pp t.dst Proto.pp t.proto t.total_length t.ttl
