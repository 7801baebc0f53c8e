type t = {
  sport : int;
  dport : int;
  length : int;
  checksum : int;
}

let size = 8

type error = Truncated | Bad_length of int

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated UDP header"
  | Bad_length l -> Format.fprintf ppf "bad UDP length %d" l

let u16 buf off =
  Char.code (Bytes.get buf off) * 256 + Char.code (Bytes.get buf (off + 1))

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

let validate buf off =
  if Bytes.length buf - off < size then Some Truncated
  else
    let length = u16 buf (off + 4) in
    if length < size then Some (Bad_length length) else None

let parse buf off =
  match validate buf off with
  | Some e -> Error e
  | None ->
    Ok
      {
        sport = u16 buf off;
        dport = u16 buf (off + 2);
        length = u16 buf (off + 4);
        checksum = u16 buf (off + 6);
      }

let serialize t buf off =
  set_u16 buf off t.sport;
  set_u16 buf (off + 2) t.dport;
  set_u16 buf (off + 4) t.length;
  set_u16 buf (off + 6) t.checksum

let pseudo_header_sum ~src ~dst ~proto ~len =
  let addr_sum a =
    let b = Ipaddr.to_bytes a in
    Checksum.sum b 0 (Bytes.length b)
  in
  addr_sum src + addr_sum dst + proto + len

let compute_checksum ~src ~dst buf off len =
  (* Sum the datagram with the checksum field masked to zero. *)
  let s = ref (pseudo_header_sum ~src ~dst ~proto:Proto.udp ~len) in
  s := !s + Checksum.sum buf off 6;
  if len > size then s := !s + Checksum.sum buf (off + size) (len - size);
  let c = Checksum.finish !s in
  if c = 0 then 0xFFFF else c

let pp ppf t =
  Format.fprintf ppf "UDP{%d -> %d len=%d}" t.sport t.dport t.length
