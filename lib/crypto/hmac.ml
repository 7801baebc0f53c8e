let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Md5.digest_string key else key in
  key ^ String.make (block_size - String.length key) '\000'

let xor_pad key byte =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor byte))

let md5_bytes ~key buf off len =
  let key = normalize_key key in
  let inner = Md5.init () in
  Md5.update_string inner (xor_pad key 0x36);
  Md5.update inner buf off len;
  let inner_digest = Md5.final inner in
  let outer = Md5.init () in
  Md5.update_string outer (xor_pad key 0x5C);
  Md5.update_string outer inner_digest;
  Md5.final outer

let md5 ~key data = md5_bytes ~key (Bytes.unsafe_of_string data) 0 (String.length data)

let verify ~expected mac =
  String.length expected = String.length mac
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code mac.[i])) expected;
  !diff = 0
