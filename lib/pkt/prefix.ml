type t = {
  addr : Ipaddr.t;
  len : int;
}

let make addr len =
  if len < 0 || len > Ipaddr.width addr then
    invalid_arg
      (Printf.sprintf "Prefix.make: /%d out of range for %s" len
         (Ipaddr.to_string addr));
  { addr = Ipaddr.prefix_bits addr len; len }

let host addr = { addr; len = Ipaddr.width addr }

let any_v4 = { addr = Ipaddr.zero_v4; len = 0 }
let any_v6 = { addr = Ipaddr.zero_v6; len = 0 }

let compare a b =
  let c = Ipaddr.compare a.addr b.addr in
  if c <> 0 then c else Int.compare a.len b.len

let equal a b = compare a b = 0
let hash p = Ipaddr.hash p.addr lxor (p.len * 0x45D9F3B)

(* Does the 32-bit word [w] agree with the prefix word [pw] on its top
   [bits] bits (none when [bits <= 0], all when [bits >= 32])? *)
let[@inline] word_in w pw bits =
  bits <= 0
  || (w lxor pw) land (if bits >= 32 then 0xFFFF_FFFF else 0xFFFF_FFFF lxor (0xFFFF_FFFF lsr bits))
     = 0

let matches_words p ~v6 w0 w1 w2 w3 =
  let a = p.addr and len = p.len in
  Ipaddr.is_v6 a = v6
  && word_in w0 (Ipaddr.word a 0) len
  && ((not v6)
     || word_in w1 (Ipaddr.word a 1) (len - 32)
        && word_in w2 (Ipaddr.word a 2) (len - 64)
        && word_in w3 (Ipaddr.word a 3) (len - 96))

let matches p a =
  matches_words p ~v6:(Ipaddr.is_v6 a) (Ipaddr.word a 0) (Ipaddr.word a 1)
    (Ipaddr.word a 2) (Ipaddr.word a 3)

let subsumes p q =
  Ipaddr.width p.addr = Ipaddr.width q.addr
  && p.len <= q.len
  && matches p q.addr

let is_wildcard p = p.len = 0

let to_string p =
  if p.len = Ipaddr.width p.addr then Ipaddr.to_string p.addr
  else Printf.sprintf "%s/%d" (Ipaddr.to_string p.addr) p.len

let of_string_opt s =
  match String.index_opt s '/' with
  | None ->
    (match Ipaddr.of_string_opt s with
     | Some a -> Some (host a)
     | None -> None)
  | Some i ->
    let astr = String.sub s 0 i in
    let lstr = String.sub s (i + 1) (String.length s - i - 1) in
    (match Ipaddr.of_string_opt astr, int_of_string_opt lstr with
     | Some a, Some len when len >= 0 && len <= Ipaddr.width a ->
       Some (make a len)
     | _, _ -> None)

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let pp ppf p = Format.pp_print_string ppf (to_string p)
