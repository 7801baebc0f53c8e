open Rp_pkt

type port_match =
  | Any_port
  | Port of int
  | Port_range of int * int

type num_match =
  | Any_num
  | Num of int

type t = {
  src : Prefix.t;
  dst : Prefix.t;
  proto : num_match;
  sport : port_match;
  dport : port_match;
  iface : num_match;
  priority : int;
}

let check_port_match = function
  | Any_port -> ()
  | Port p ->
    if p < 0 || p > 65535 then invalid_arg "Filter: port out of range"
  | Port_range (lo, hi) ->
    if lo < 0 || hi > 65535 || lo > hi then
      invalid_arg "Filter: bad port range"

let make ~family ?src ?dst ?proto ?(sport = Any_port) ?(dport = Any_port)
    ?iface ?(priority = 0) () =
  let any = match family with `V4 -> Prefix.any_v4 | `V6 -> Prefix.any_v6 in
  let src = Option.value src ~default:any in
  let dst = Option.value dst ~default:any in
  let want_width = match family with `V4 -> 32 | `V6 -> 128 in
  if Ipaddr.width src.Prefix.addr <> want_width
     || Ipaddr.width dst.Prefix.addr <> want_width
  then invalid_arg "Filter: address family mismatch";
  check_port_match sport;
  check_port_match dport;
  {
    src;
    dst;
    proto = (match proto with None -> Any_num | Some p -> Num p);
    sport;
    dport;
    iface = (match iface with None -> Any_num | Some i -> Num i);
    priority;
  }

let v4 ?src ?dst ?proto ?sport ?dport ?iface ?priority () =
  make ~family:`V4 ?src ?dst ?proto ?sport ?dport ?iface ?priority ()

let v6 ?src ?dst ?proto ?sport ?dport ?iface ?priority () =
  make ~family:`V6 ?src ?dst ?proto ?sport ?dport ?iface ?priority ()

let exact_of_key (k : Flow_key.t) =
  {
    src = Prefix.host k.src;
    dst = Prefix.host k.dst;
    proto = Num k.proto;
    sport = Port k.sport;
    dport = Port k.dport;
    iface = Num k.iface;
    priority = 0;
  }

let is_v4 f = Ipaddr.width f.src.Prefix.addr = 32

let port_match_matches pm p =
  match pm with
  | Any_port -> true
  | Port q -> p = q
  | Port_range (lo, hi) -> lo <= p && p <= hi

let port_match_width = function
  | Any_port -> 65536
  | Port _ -> 1
  | Port_range (lo, hi) -> hi - lo + 1

let num_match_matches nm v =
  match nm with
  | Any_num -> true
  | Num n -> v = n

let matches_numbers f ~proto ~sport ~dport ~iface =
  num_match_matches f.proto proto
  && port_match_matches f.sport sport
  && port_match_matches f.dport dport
  && num_match_matches f.iface iface

let matches f (k : Flow_key.t) =
  Prefix.matches f.src k.src
  && Prefix.matches f.dst k.dst
  && matches_numbers f ~proto:k.proto ~sport:k.sport ~dport:k.dport ~iface:k.iface

(* Specificity of a single field as an integer: larger = more
   specific.  Ports use the negated width so narrower ranges win. *)
let num_spec = function Any_num -> 0 | Num _ -> 1
let port_spec pm = -port_match_width pm

let compare_specificity f g =
  let cmp =
    [
      Int.compare f.src.Prefix.len g.src.Prefix.len;
      Int.compare f.dst.Prefix.len g.dst.Prefix.len;
      Int.compare (num_spec f.proto) (num_spec g.proto);
      Int.compare (port_spec f.sport) (port_spec g.sport);
      Int.compare (port_spec f.dport) (port_spec g.dport);
      Int.compare (num_spec f.iface) (num_spec g.iface);
      Int.compare f.priority g.priority;
    ]
  in
  match List.find_opt (fun c -> c <> 0) cmp with
  | Some c -> c
  | None -> Stdlib.compare f g

let compare = Stdlib.compare
let equal f g = compare f g = 0

let hash f =
  let port_h = function
    | Any_port -> 17
    | Port p -> p lxor 0x1000
    | Port_range (lo, hi) -> (lo * 131) lxor hi lxor 0x2000
  in
  let num_h = function Any_num -> 19 | Num n -> n lxor 0x4000 in
  Rp_pkt.Prefix.hash f.src
  lxor (Rp_pkt.Prefix.hash f.dst * 3)
  lxor (num_h f.proto * 5)
  lxor (port_h f.sport * 7)
  lxor (port_h f.dport * 11)
  lxor (num_h f.iface * 13)
  lxor (f.priority * 31)

let port_match_to_string = function
  | Any_port -> "*"
  | Port p -> string_of_int p
  | Port_range (lo, hi) -> Printf.sprintf "%d-%d" lo hi

let num_to_string to_name = function
  | Any_num -> "*"
  | Num n -> to_name n

let prefix_to_string p =
  if Prefix.is_wildcard p then "*" else Prefix.to_string p

let to_string f =
  Printf.sprintf "<%s, %s, %s, %s, %s, %s>%s"
    (prefix_to_string f.src) (prefix_to_string f.dst)
    (num_to_string Proto.name f.proto)
    (port_match_to_string f.sport)
    (port_match_to_string f.dport)
    (num_to_string (Printf.sprintf "if%d") f.iface)
    (if f.priority = 0 then "" else Printf.sprintf " prio=%d" f.priority)

let pp ppf f = Format.pp_print_string ppf (to_string f)

(* --- parsing ------------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

(* "129.*.*.*" -> 129.0.0.0/8; plain addresses and CIDR also accepted. *)
let parse_addr_field ~family s =
  let s = String.trim s in
  if s = "*" then
    Ok (match family with `V4 -> Prefix.any_v4 | `V6 -> Prefix.any_v6)
  else if String.contains s '*' then begin
    match String.split_on_char '.' s with
    | octets when List.length octets = 4 ->
      let rec count_concrete acc = function
        | [] -> Ok acc
        | "*" :: rest ->
          if List.for_all (fun o -> o = "*") rest then Ok acc
          else Error "wildcard octets must be trailing"
        | o :: rest ->
          (match int_of_string_opt o with
           | Some v when v >= 0 && v <= 255 -> count_concrete (acc @ [ v ]) rest
           | Some _ | None -> Error ("bad octet " ^ o))
      in
      let* concrete = count_concrete [] octets in
      let len = 8 * List.length concrete in
      let padded = concrete @ List.init (4 - List.length concrete) (fun _ -> 0) in
      (match padded with
       | [ a; b; c; d ] -> Ok (Prefix.make (Ipaddr.v4 a b c d) len)
       | _ -> Error "bad address")
    | _ -> Error ("bad address " ^ s)
  end
  else
    match Prefix.of_string_opt s with
    | Some p -> Ok p
    | None -> Error ("bad address " ^ s)

let parse_proto_field s =
  let s = String.trim s in
  if s = "*" then Ok None
  else
    match String.uppercase_ascii s with
    | "TCP" -> Ok (Some Proto.tcp)
    | "UDP" -> Ok (Some Proto.udp)
    | "ICMP" -> Ok (Some Proto.icmp)
    | "ESP" -> Ok (Some Proto.esp)
    | "AH" -> Ok (Some Proto.ah)
    | "SSP" -> Ok (Some Proto.ssp)
    | _ ->
      (match int_of_string_opt s with
       | Some v when v >= 0 && v <= 255 -> Ok (Some v)
       | Some _ | None -> Error ("bad protocol " ^ s))

let parse_port_field s =
  let s = String.trim s in
  if s = "*" then Ok Any_port
  else
    match String.index_opt s '-' with
    | Some i ->
      let lo = String.sub s 0 i and hi = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt lo, int_of_string_opt hi with
       | Some lo, Some hi when 0 <= lo && lo <= hi && hi <= 65535 ->
         Ok (Port_range (lo, hi))
       | _, _ -> Error ("bad port range " ^ s))
    | None ->
      (match int_of_string_opt s with
       | Some p when p >= 0 && p <= 65535 -> Ok (Port p)
       | Some _ | None -> Error ("bad port " ^ s))

let parse_iface_field s =
  let s = String.trim s in
  if s = "*" then Ok None
  else
    let s =
      if String.length s > 2 && String.sub s 0 2 = "if" then
        String.sub s 2 (String.length s - 2)
      else s
    in
    match int_of_string_opt s with
    | Some i when i >= 0 -> Ok (Some i)
    | Some _ | None -> Error ("bad interface " ^ s)

let of_string input =
  let s = String.trim input in
  (* Optional trailing "prio=N". *)
  let s, priority =
    match String.index_opt s '>' with
    | Some i when i < String.length s - 1 ->
      let rest = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      let body = String.sub s 0 (i + 1) in
      (match String.split_on_char '=' rest with
       | [ "prio"; n ] ->
         (match int_of_string_opt n with
          | Some p -> body, p
          | None -> body, 0)
       | _ -> body, 0)
    | Some _ | None -> s, 0
  in
  let s = String.trim s in
  let* s =
    let n = String.length s in
    if n >= 2 && s.[0] = '<' && s.[n - 1] = '>' then Ok (String.sub s 1 (n - 2))
    else Error "filter must be <src, dst, proto, sport, dport, iface>"
  in
  match String.split_on_char ',' s with
  | [ src_s; dst_s; proto_s; sport_s; dport_s; iface_s ] ->
    let family =
      if String.contains src_s ':' || String.contains dst_s ':' then `V6
      else `V4
    in
    let* src = parse_addr_field ~family src_s in
    let* dst = parse_addr_field ~family dst_s in
    let* proto = parse_proto_field proto_s in
    let* sport = parse_port_field sport_s in
    let* dport = parse_port_field dport_s in
    let* iface = parse_iface_field iface_s in
    (try Ok (make ~family ~src ~dst ?proto ~sport ~dport ?iface ~priority ())
     with Invalid_argument msg -> Error msg)
  | _ -> Error "filter must have six comma-separated fields"

(* --- field projections by classifier level --------------------------- *)

let addr_label f level = if level = 0 then f.src else f.dst

let addr_value (k : Flow_key.t) level =
  if level = 0 then k.Flow_key.src else k.Flow_key.dst

let port_label f level = if level = 3 then f.sport else f.dport

let port_value (k : Flow_key.t) level =
  if level = 3 then k.Flow_key.sport else k.Flow_key.dport

let exact_label f level = if level = 2 then f.proto else f.iface

let exact_value (k : Flow_key.t) level =
  if level = 2 then k.Flow_key.proto else k.Flow_key.iface
