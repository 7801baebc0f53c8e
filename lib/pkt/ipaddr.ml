type t =
  | V4 of int32
  | V6 of int64 * int64

let compare a b =
  match a, b with
  | V4 x, V4 y -> Int32.unsigned_compare x y
  | V6 (h1, l1), V6 (h2, l2) ->
    let c = Int64.unsigned_compare h1 h2 in
    if c <> 0 then c else Int64.unsigned_compare l1 l2
  | V4 _, V6 _ -> -1
  | V6 _, V4 _ -> 1

(* Direct per-constructor equality: [compare] goes through
   [Int32.unsigned_compare], whose bias subtraction boxes two
   intermediate int32s per call — too hot for the flow table's probe
   loop, which must stay allocation-free. *)
let equal a b =
  match a, b with
  | V4 x, V4 y -> Int32.equal x y
  | V6 (h1, l1), V6 (h2, l2) -> Int64.equal h1 h2 && Int64.equal l1 l2
  | V4 _, V6 _ | V6 _, V4 _ -> false

(* Fibonacci-style mixing: prefix-masked addresses have long runs of
   zero low bits, so the raw value must not be used as a hash.  The
   mix runs in the native [int] domain — int64 arithmetic would box an
   intermediate per operation, and this sits on the flow table's
   per-packet path which is required to allocate nothing.  Constants
   are 62-bit odd multipliers (OCaml int literals cap at 63 bits). *)
let mix x =
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1B873593A56F3C5 in
  (x lxor (x lsr 32)) land max_int

let hash = function
  | V4 x -> mix (Int32.to_int x land 0xFFFFFFFF)
  | V6 (h, l) -> mix (Int64.to_int h lxor ((Int64.to_int l * 3) + 0x1234567))

let width = function
  | V4 _ -> 32
  | V6 _ -> 128

let bit a i =
  match a with
  | V4 x ->
    if i < 0 || i > 31 then invalid_arg "Ipaddr.bit: v4 index";
    Int32.logand (Int32.shift_right_logical x (31 - i)) 1l = 1l
  | V6 (h, l) ->
    if i < 0 || i > 127 then invalid_arg "Ipaddr.bit: v6 index";
    let word, j = if i < 64 then h, i else l, i - 64 in
    Int64.logand (Int64.shift_right_logical word (63 - j)) 1L = 1L

(* Mask keeping the first [n] bits of a 32-bit word. *)
let mask32 n =
  if n <= 0 then 0l
  else if n >= 32 then 0xFFFFFFFFl
  else Int32.shift_left 0xFFFFFFFFl (32 - n)

let mask64 n =
  if n <= 0 then 0L
  else if n >= 64 then 0xFFFFFFFFFFFFFFFFL
  else Int64.shift_left 0xFFFFFFFFFFFFFFFFL (64 - n)

let prefix_bits a n =
  match a with
  | V4 x ->
    if n < 0 || n > 32 then invalid_arg "Ipaddr.prefix_bits: v4 length";
    V4 (Int32.logand x (mask32 n))
  | V6 (h, l) ->
    if n < 0 || n > 128 then invalid_arg "Ipaddr.prefix_bits: v6 length";
    V6 (Int64.logand h (mask64 n), Int64.logand l (mask64 (n - 64)))

let clz32 x =
  if x = 0l then 32
  else
    let rec loop i = if Int32.logand (Int32.shift_right_logical x (31 - i)) 1l = 1l then i else loop (i + 1) in
    loop 0

let clz64 x =
  if x = 0L then 64
  else
    let rec loop i = if Int64.logand (Int64.shift_right_logical x (63 - i)) 1L = 1L then i else loop (i + 1) in
    loop 0

let common_prefix_len a b =
  match a, b with
  | V4 x, V4 y -> min 32 (clz32 (Int32.logxor x y))
  | V6 (h1, l1), V6 (h2, l2) ->
    let ch = clz64 (Int64.logxor h1 h2) in
    if ch < 64 then ch else min 128 (64 + clz64 (Int64.logxor l1 l2))
  | V4 _, V6 _ | V6 _, V4 _ ->
    invalid_arg "Ipaddr.common_prefix_len: mixed families"

let v4 a b c d =
  let check x = if x < 0 || x > 255 then invalid_arg "Ipaddr.v4: octet" in
  check a; check b; check c; check d;
  V4
    (Int32.logor
       (Int32.shift_left (Int32.of_int a) 24)
       (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d)))

let v6 w0 w1 w2 w3 =
  let u32 x = Int64.logand (Int64.of_int32 x) 0xFFFFFFFFL in
  V6
    ( Int64.logor (Int64.shift_left (u32 w0) 32) (u32 w1),
      Int64.logor (Int64.shift_left (u32 w2) 32) (u32 w3) )

let v4_of_int32 x = V4 x

(* The 32-bit words are native ints: reading an int32/int64 field
   into one boxes nothing, so a caller can split an address without
   allocating. *)
let word a j =
  match a with
  | V4 x -> if j = 0 then Int32.to_int x land 0xFFFF_FFFF else 0
  | V6 (h, l) ->
    let w = if j < 2 then h else l in
    if j land 1 = 0 then Int64.to_int (Int64.shift_right_logical w 32)
    else Int64.to_int w land 0xFFFF_FFFF

let of_words ~v6 w0 w1 w2 w3 =
  if not v6 then V4 (Int32.of_int w0)
  else
    let half hi lo =
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
    in
    V6 (half w0 w1, half w2 w3)

let is_v4 = function V4 _ -> true | V6 _ -> false
let is_v6 = function V6 _ -> true | V4 _ -> false

let zero_v4 = V4 0l
let zero_v6 = V6 (0L, 0L)

let v6_groups (h, l) =
  let g word shift = Int64.to_int (Int64.logand (Int64.shift_right_logical word shift) 0xFFFFL) in
  [| g h 48; g h 32; g h 16; g h 0; g l 48; g l 32; g l 16; g l 0 |]

let to_string = function
  | V4 x ->
    let b i = Int32.to_int (Int32.logand (Int32.shift_right_logical x i) 0xFFl) in
    Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)
  | V6 (h, l) ->
    let groups = v6_groups (h, l) in
    (* Find the longest run of zero groups (length >= 2) to compress. *)
    let best_start = ref (-1) and best_len = ref 0 in
    let cur_start = ref (-1) and cur_len = ref 0 in
    for i = 0 to 7 do
      if groups.(i) = 0 then begin
        if !cur_start < 0 then cur_start := i;
        incr cur_len;
        if !cur_len > !best_len then begin
          best_len := !cur_len;
          best_start := !cur_start
        end
      end
      else begin
        cur_start := -1;
        cur_len := 0
      end
    done;
    if !best_len < 2 then
      String.concat ":" (Array.to_list (Array.map (Printf.sprintf "%x") groups))
    else begin
      let buf = Buffer.create 40 in
      let s = !best_start and e = !best_start + !best_len in
      for i = 0 to s - 1 do
        if i > 0 then Buffer.add_char buf ':';
        Buffer.add_string buf (Printf.sprintf "%x" groups.(i))
      done;
      Buffer.add_string buf "::";
      for i = e to 7 do
        if i > e then Buffer.add_char buf ':';
        Buffer.add_string buf (Printf.sprintf "%x" groups.(i))
      done;
      Buffer.contents buf
    end

let of_string_v4 s =
  match String.split_on_char '.' s with
  | [a; b; c; d] ->
    let octet x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 && x <> "" -> Some v
      | Some _ | None -> None
    in
    (match octet a, octet b, octet c, octet d with
     | Some a, Some b, Some c, Some d -> Some (v4 a b c d)
     | _, _, _, _ -> None)
  | _ -> None

let of_string_v6 s =
  let parse_groups part =
    if part = "" then Some []
    else
      let pieces = String.split_on_char ':' part in
      let group g =
        if g = "" || String.length g > 4 then None
        else
          match int_of_string_opt ("0x" ^ g) with
          | Some v when v >= 0 && v <= 0xFFFF -> Some v
          | Some _ | None -> None
      in
      let rec conv acc = function
        | [] -> Some (List.rev acc)
        | g :: rest ->
          (match group g with Some v -> conv (v :: acc) rest | None -> None)
      in
      conv [] pieces
  in
  let groups =
    match String.index_opt s ':' with
    | None -> None
    | Some _ ->
      let double = ref None in
      (* Locate "::" if present. *)
      let n = String.length s in
      let i = ref 0 in
      while !i < n - 1 do
        if s.[!i] = ':' && s.[!i + 1] = ':' then begin
          double := Some !i;
          i := n
        end
        else incr i
      done;
      (match !double with
       | None ->
         (match parse_groups s with
          | Some gs when List.length gs = 8 -> Some gs
          | Some _ | None -> None)
       | Some pos ->
         let left = String.sub s 0 pos in
         let right = String.sub s (pos + 2) (n - pos - 2) in
         (match parse_groups left, parse_groups right with
          | Some lg, Some rg ->
            let fill = 8 - List.length lg - List.length rg in
            if fill < 1 then None
            else Some (lg @ List.init fill (fun _ -> 0) @ rg)
          | _, _ -> None))
  in
  match groups with
  | Some [g0; g1; g2; g3; g4; g5; g6; g7] ->
    let w a b = Int32.logor (Int32.shift_left (Int32.of_int a) 16) (Int32.of_int b) in
    Some (v6 (w g0 g1) (w g2 g3) (w g4 g5) (w g6 g7))
  | Some _ | None -> None

let of_string_opt s =
  if String.contains s ':' then of_string_v6 s else of_string_v4 s

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipaddr.of_string: %S" s)

let pp ppf a = Format.pp_print_string ppf (to_string a)

let write a buf off =
  match a with
  | V4 x -> Bytes.set_int32_be buf off x
  | V6 (h, l) ->
    Bytes.set_int64_be buf off h;
    Bytes.set_int64_be buf (off + 8) l

let to_bytes a =
  let buf = Bytes.create (width a / 8) in
  write a buf 0;
  buf

let read_v4 buf off = V4 (Bytes.get_int32_be buf off)
let read_v6 buf off = V6 (Bytes.get_int64_be buf off, Bytes.get_int64_be buf (off + 8))
