type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

let no_flags =
  { fin = false; syn = false; rst = false; psh = false; ack = false; urg = false }

type t = {
  sport : int;
  dport : int;
  seq : int32;
  ack_seq : int32;
  flags : flags;
  window : int;
  checksum : int;
  urgent : int;
}

let size = 20

type error = Truncated | Bad_offset of int

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated TCP header"
  | Bad_offset o -> Format.fprintf ppf "unsupported data offset %d" o

let u16 buf off =
  Char.code (Bytes.get buf off) * 256 + Char.code (Bytes.get buf (off + 1))

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

let flags_of_byte b =
  {
    fin = b land 0x01 <> 0;
    syn = b land 0x02 <> 0;
    rst = b land 0x04 <> 0;
    psh = b land 0x08 <> 0;
    ack = b land 0x10 <> 0;
    urg = b land 0x20 <> 0;
  }

let byte_of_flags f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let validate buf off =
  if Bytes.length buf - off < size then Some Truncated
  else
    let offset = Char.code (Bytes.get buf (off + 12)) lsr 4 in
    if offset <> 5 then Some (Bad_offset offset) else None

let parse buf off =
  match validate buf off with
  | Some e -> Error e
  | None ->
    Ok
      {
        sport = u16 buf off;
        dport = u16 buf (off + 2);
        seq = Bytes.get_int32_be buf (off + 4);
        ack_seq = Bytes.get_int32_be buf (off + 8);
        flags = flags_of_byte (Char.code (Bytes.get buf (off + 13)));
        window = u16 buf (off + 14);
        checksum = u16 buf (off + 16);
        urgent = u16 buf (off + 18);
      }

let serialize t buf off =
  set_u16 buf off t.sport;
  set_u16 buf (off + 2) t.dport;
  Bytes.set_int32_be buf (off + 4) t.seq;
  Bytes.set_int32_be buf (off + 8) t.ack_seq;
  Bytes.set buf (off + 12) (Char.chr 0x50);
  Bytes.set buf (off + 13) (Char.chr (byte_of_flags t.flags));
  set_u16 buf (off + 14) t.window;
  set_u16 buf (off + 16) t.checksum;
  set_u16 buf (off + 18) t.urgent

let pp ppf t =
  Format.fprintf ppf "TCP{%d -> %d seq=%ld%s%s}" t.sport t.dport t.seq
    (if t.flags.syn then " SYN" else "")
    (if t.flags.ack then " ACK" else "")
