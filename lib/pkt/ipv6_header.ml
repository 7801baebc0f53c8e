type t = {
  traffic_class : int;
  flow_label : int;
  payload_length : int;
  next_header : int;
  hop_limit : int;
  src : Ipaddr.t;
  dst : Ipaddr.t;
}

let size = 40

type error =
  | Truncated
  | Bad_version of int
  | Bad_option_length

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated IPv6 header"
  | Bad_version v -> Format.fprintf ppf "bad IP version %d" v
  | Bad_option_length -> Format.pp_print_string ppf "bad option length"

let u8 buf off = Char.code (Bytes.get buf off)
let u16 buf off = u8 buf off * 256 + u8 buf (off + 1)

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

let validate buf off =
  if Bytes.length buf - off < size then Some Truncated
  else
    let version = u8 buf off lsr 4 in
    if version <> 6 then Some (Bad_version version) else None

let parse buf off =
  match validate buf off with
  | Some e -> Error e
  | None ->
    let b0 = u8 buf off and b1 = u8 buf (off + 1) in
    Ok
      {
        traffic_class = ((b0 land 0xF) lsl 4) lor (b1 lsr 4);
        flow_label = ((b1 land 0xF) lsl 16) lor u16 buf (off + 2);
        payload_length = u16 buf (off + 4);
        next_header = u8 buf (off + 6);
        hop_limit = u8 buf (off + 7);
        src = Ipaddr.read_v6 buf (off + 8);
        dst = Ipaddr.read_v6 buf (off + 24);
      }

let serialize t buf off =
  Bytes.set buf off (Char.chr (0x60 lor ((t.traffic_class lsr 4) land 0xF)));
  Bytes.set buf (off + 1)
    (Char.chr (((t.traffic_class land 0xF) lsl 4) lor ((t.flow_label lsr 16) land 0xF)));
  set_u16 buf (off + 2) (t.flow_label land 0xFFFF);
  set_u16 buf (off + 4) t.payload_length;
  Bytes.set buf (off + 6) (Char.chr (t.next_header land 0xFF));
  Bytes.set buf (off + 7) (Char.chr (t.hop_limit land 0xFF));
  Ipaddr.write t.src buf (off + 8);
  Ipaddr.write t.dst buf (off + 24)

let default ?(traffic_class = 0) ?(flow_label = 0) ?(hop_limit = 64)
    ~payload_length ~next_header ~src ~dst () =
  if not (Ipaddr.is_v6 src && Ipaddr.is_v6 dst) then
    invalid_arg "Ipv6_header.default: addresses must be IPv6";
  { traffic_class; flow_label; payload_length; next_header; hop_limit; src; dst }

let pp ppf t =
  Format.fprintf ppf "IPv6{%a -> %a nh=%a plen=%d hl=%d fl=%#x}" Ipaddr.pp
    t.src Ipaddr.pp t.dst Proto.pp t.next_header t.payload_length t.hop_limit
    t.flow_label

module Option_tlv = struct
  type t =
    | Pad1
    | Padn of int
    | Router_alert of int
    | Jumbo_payload of int
    | Unknown of int * string

  let type_pad1 = 0
  let type_padn = 1
  let type_router_alert = 5
  let type_jumbo = 0xC2

  let serialized_length = function
    | Pad1 -> 1
    | Padn n -> n
    | Router_alert _ -> 4
    | Jumbo_payload _ -> 6
    | Unknown (_, body) -> 2 + String.length body

  let parse_all buf off len =
    let last = off + len in
    let rec loop acc i =
      if i >= last then Ok (List.rev acc)
      else
        let ty = u8 buf i in
        if ty = type_pad1 then loop (Pad1 :: acc) (i + 1)
        else if i + 1 >= last then Error Bad_option_length
        else
          let olen = u8 buf (i + 1) in
          if i + 2 + olen > last then Error Bad_option_length
          else
            let opt =
              if ty = type_padn then Some (Padn (olen + 2))
              else if ty = type_router_alert && olen = 2 then
                Some (Router_alert (u16 buf (i + 2)))
              else if ty = type_jumbo && olen = 4 then
                Some
                  (Jumbo_payload
                     ((u16 buf (i + 2) lsl 16) lor u16 buf (i + 4)))
              else Some (Unknown (ty, Bytes.sub_string buf (i + 2) olen))
            in
            (match opt with
             | Some o -> loop (o :: acc) (i + 2 + olen)
             | None -> Error Bad_option_length)
    in
    loop [] off

  let serialize_one buf off = function
    | Pad1 ->
      Bytes.set buf off '\000';
      1
    | Padn n ->
      Bytes.set buf off (Char.chr type_padn);
      Bytes.set buf (off + 1) (Char.chr (n - 2));
      for i = 2 to n - 1 do
        Bytes.set buf (off + i) '\000'
      done;
      n
    | Router_alert v ->
      Bytes.set buf off (Char.chr type_router_alert);
      Bytes.set buf (off + 1) '\002';
      set_u16 buf (off + 2) v;
      4
    | Jumbo_payload v ->
      Bytes.set buf off (Char.chr type_jumbo);
      Bytes.set buf (off + 1) '\004';
      set_u16 buf (off + 2) ((v lsr 16) land 0xFFFF);
      set_u16 buf (off + 4) (v land 0xFFFF);
      6
    | Unknown (ty, body) ->
      Bytes.set buf off (Char.chr (ty land 0xFF));
      Bytes.set buf (off + 1) (Char.chr (String.length body land 0xFF));
      Bytes.blit_string body 0 buf (off + 2) (String.length body);
      2 + String.length body

  let serialize_all opts =
    let len = List.fold_left (fun acc o -> acc + serialized_length o) 0 opts in
    let buf = Bytes.create len in
    let off = List.fold_left (fun off o -> off + serialize_one buf off o) 0 opts in
    assert (off = len);
    buf

  let pp ppf = function
    | Pad1 -> Format.pp_print_string ppf "Pad1"
    | Padn n -> Format.fprintf ppf "PadN(%d)" n
    | Router_alert v -> Format.fprintf ppf "RouterAlert(%d)" v
    | Jumbo_payload v -> Format.fprintf ppf "Jumbo(%d)" v
    | Unknown (ty, body) -> Format.fprintf ppf "Opt(%d,%d bytes)" ty (String.length body)
end

module Hop_by_hop = struct
  type hbh = {
    next_header : int;
    options : Option_tlv.t list;
  }

  type t = hbh = {
    next_header : int;
    options : Option_tlv.t list;
  }

  let options_length t =
    List.fold_left (fun acc o -> acc + Option_tlv.serialized_length o) 0 t.options

  let wire_length t =
    let raw = 2 + options_length t in
    (raw + 7) / 8 * 8

  let parse buf off =
    if Bytes.length buf - off < 8 then Error Truncated
    else
      let next_header = u8 buf off in
      let hdr_ext_len = u8 buf (off + 1) in
      let total = (hdr_ext_len + 1) * 8 in
      if Bytes.length buf - off < total then Error Truncated
      else
        match Option_tlv.parse_all buf (off + 2) (total - 2) with
        | Ok options -> Ok ({ next_header; options }, total)
        | Error e -> Error e

  let serialize t buf off =
    let total = wire_length t in
    let pad = total - 2 - options_length t in
    let options =
      if pad = 0 then t.options
      else if pad = 1 then t.options @ [ Option_tlv.Pad1 ]
      else t.options @ [ Option_tlv.Padn pad ]
    in
    Bytes.set buf off (Char.chr (t.next_header land 0xFF));
    Bytes.set buf (off + 1) (Char.chr (total / 8 - 1));
    let body = Option_tlv.serialize_all options in
    Bytes.blit body 0 buf (off + 2) (Bytes.length body);
    total
end
