type message =
  | Echo_request of { ident : int; seq : int }
  | Echo_reply of { ident : int; seq : int }
  | Dest_unreachable of unreachable_code
  | Time_exceeded
  | Packet_too_big of int
  | Param_problem of int

and unreachable_code =
  | Net_unreachable
  | Host_unreachable
  | Proto_unreachable
  | Port_unreachable
  | Admin_prohibited

let unreachable_code_v4 = function
  | Net_unreachable -> 0
  | Host_unreachable -> 1
  | Proto_unreachable -> 2
  | Port_unreachable -> 3
  | Admin_prohibited -> 13

let unreachable_of_v4 = function
  | 0 -> Some Net_unreachable
  | 1 -> Some Host_unreachable
  | 2 -> Some Proto_unreachable
  | 3 -> Some Port_unreachable
  | 13 -> Some Admin_prohibited
  | _ -> None

let unreachable_code_v6 = function
  | Net_unreachable -> 0
  | Admin_prohibited -> 1
  | Host_unreachable -> 3
  | Port_unreachable -> 4
  | Proto_unreachable -> 4
  (* v6 folds protocol into port unreachable *)

let unreachable_of_v6 = function
  | 0 -> Some Net_unreachable
  | 1 -> Some Admin_prohibited
  | 3 -> Some Host_unreachable
  | 4 -> Some Port_unreachable
  | _ -> None

let type_code ~family m =
  match family, m with
  | `V4, Echo_request _ -> (8, 0)
  | `V4, Echo_reply _ -> (0, 0)
  | `V4, Dest_unreachable c -> (3, unreachable_code_v4 c)
  | `V4, Time_exceeded -> (11, 0)
  | `V4, Packet_too_big _ -> (3, 4)  (* fragmentation needed and DF set *)
  | `V4, Param_problem _ -> (12, 0)
  | `V6, Echo_request _ -> (128, 0)
  | `V6, Echo_reply _ -> (129, 0)
  | `V6, Dest_unreachable c -> (1, unreachable_code_v6 c)
  | `V6, Time_exceeded -> (3, 0)
  | `V6, Packet_too_big _ -> (2, 0)
  | `V6, Param_problem _ -> (4, 0)

let of_type_code ~family ty code ~ident ~seq ~mtu ~pointer =
  match family, ty, code with
  | `V4, 8, 0 -> Some (Echo_request { ident; seq })
  | `V4, 0, 0 -> Some (Echo_reply { ident; seq })
  | `V4, 3, 4 -> Some (Packet_too_big mtu)
  | `V4, 3, c -> Option.map (fun u -> Dest_unreachable u) (unreachable_of_v4 c)
  | `V4, 11, _ -> Some Time_exceeded
  | `V4, 12, _ -> Some (Param_problem pointer)
  | `V6, 128, 0 -> Some (Echo_request { ident; seq })
  | `V6, 129, 0 -> Some (Echo_reply { ident; seq })
  | `V6, 1, c -> Option.map (fun u -> Dest_unreachable u) (unreachable_of_v6 c)
  | `V6, 2, _ -> Some (Packet_too_big mtu)
  | `V6, 3, _ -> Some Time_exceeded
  | `V6, 4, _ -> Some (Param_problem pointer)
  | _, _, _ -> None

type t = {
  message : message;
  payload : string;
}

type error = Truncated | Bad_checksum | Unknown_type of int * int

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated ICMP message"
  | Bad_checksum -> Format.pp_print_string ppf "bad ICMP checksum"
  | Unknown_type (t, c) -> Format.fprintf ppf "unknown ICMP type %d code %d" t c

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

let u16 buf off =
  Char.code (Bytes.get buf off) * 256 + Char.code (Bytes.get buf (off + 1))

(* The second 32-bit word carries the type-specific data. *)
let word2 = function
  | Echo_request { ident; seq } | Echo_reply { ident; seq } ->
    (ident lsl 16) lor (seq land 0xFFFF)
  | Dest_unreachable _ | Time_exceeded -> 0
  | Packet_too_big mtu -> mtu land 0xFFFFFFFF
  | Param_problem ptr -> (ptr land 0xFF) lsl 24

let family_of src = if Ipaddr.is_v4 src then `V4 else `V6

(* ICMPv6's checksum also covers the IPv6 pseudo-header (RFC 4443
   section 2.3); ICMP's covers the message alone. *)
let checksum ~src ~dst buf len =
  Checksum.finish
    (Checksum.add (Checksum.sum buf 0 len)
       (match family_of src with
        | `V4 -> 0
        | `V6 -> Udp_header.pseudo_header_sum ~src ~dst ~proto:Proto.icmpv6 ~len))

let serialize ~src ~dst t =
  let family = family_of src in
  let ty, code = type_code ~family t.message in
  let len = 8 + String.length t.payload in
  let buf = Bytes.create len in
  Bytes.set buf 0 (Char.chr ty);
  Bytes.set buf 1 (Char.chr code);
  set_u16 buf 2 0;
  let w2 = word2 t.message in
  set_u16 buf 4 ((w2 lsr 16) land 0xFFFF);
  set_u16 buf 6 (w2 land 0xFFFF);
  Bytes.blit_string t.payload 0 buf 8 (String.length t.payload);
  set_u16 buf 2 (checksum ~src ~dst buf len);
  buf

let parse ~src ~dst buf =
  let len = Bytes.length buf in
  if len < 8 then Error Truncated
  else if checksum ~src ~dst buf len <> 0 then Error Bad_checksum
  else begin
    let ty = Char.code (Bytes.get buf 0) in
    let code = Char.code (Bytes.get buf 1) in
    let hi = u16 buf 4 and lo = u16 buf 6 in
    let mtu = (hi lsl 16) lor lo in
    match
      of_type_code ~family:(family_of src) ty code ~ident:hi ~seq:lo ~mtu
        ~pointer:(hi lsr 8)
    with
    | Some message -> Ok { message; payload = Bytes.sub_string buf 8 (len - 8) }
    | None -> Error (Unknown_type (ty, code))
  end

let pp ppf t =
  let s =
    match t.message with
    | Echo_request { ident; seq } -> Printf.sprintf "echo request %d/%d" ident seq
    | Echo_reply { ident; seq } -> Printf.sprintf "echo reply %d/%d" ident seq
    | Dest_unreachable Net_unreachable -> "net unreachable"
    | Dest_unreachable Host_unreachable -> "host unreachable"
    | Dest_unreachable Proto_unreachable -> "protocol unreachable"
    | Dest_unreachable Port_unreachable -> "port unreachable"
    | Dest_unreachable Admin_prohibited -> "administratively prohibited"
    | Time_exceeded -> "time exceeded"
    | Packet_too_big mtu -> Printf.sprintf "packet too big (mtu %d)" mtu
    | Param_problem p -> Printf.sprintf "parameter problem at %d" p
  in
  Format.pp_print_string ppf s
