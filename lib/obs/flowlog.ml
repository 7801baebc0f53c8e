(* NetFlow-style flow records and their JSON-lines rendering.

   The export ring itself lives in [Rp_core.Flow_export], which stores
   an evicted flow as a row of ints and builds one of these records
   only when the row is drained or peeked.  Addresses are rendered
   strings here: obs cannot depend on lib/pkt, and records are
   export-bound anyway. *)

(* Post-rewrite tuple of a NAT'd session; absent for flows the session
   layer never translated, so the export schema is unchanged for
   them. *)
type xlate = {
  xsrc : string;
  xdst : string;
  xsport : int;
  xdport : int;
}

type record = {
  src : string;
  dst : string;
  proto : int;
  sport : int;
  dport : int;
  iface : int;
  packets : int;
  bytes : int;
  forwarded : int;
  dropped : int;
  absorbed : int;
  created_ns : int64;
  last_ns : int64;
  bindings : (string * int) list;
  reason : string;
  translated : xlate option;
}

let duration_ns r = Int64.max 0L (Int64.sub r.last_ns r.created_ns)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSON object per line (JSON-lines), so flow logs append and
   stream without a closing bracket. *)
let to_json_line r =
  let bindings =
    String.concat ","
      (List.map
         (fun (gate, inst) ->
           Printf.sprintf "{\"gate\":\"%s\",\"instance\":%d}"
             (json_escape gate) inst)
         r.bindings)
  in
  let translated =
    match r.translated with
    | None -> ""
    | Some x ->
      Printf.sprintf
        ",\"translated\":{\"src\":\"%s\",\"dst\":\"%s\",\"sport\":%d,\
         \"dport\":%d}"
        (json_escape x.xsrc) (json_escape x.xdst) x.xsport x.xdport
  in
  Printf.sprintf
    "{\"src\":\"%s\",\"dst\":\"%s\",\"proto\":%d,\"sport\":%d,\"dport\":%d,\
     \"iface\":%d,\"packets\":%d,\"bytes\":%d,\"forwarded\":%d,\"dropped\":%d,\
     \"absorbed\":%d,\"duration_ns\":%Ld,\"bindings\":[%s],\"reason\":\"%s\"%s}"
    (json_escape r.src) (json_escape r.dst) r.proto r.sport r.dport r.iface
    r.packets r.bytes r.forwarded r.dropped r.absorbed (duration_ns r)
    bindings (json_escape r.reason) translated

let key_string r =
  Printf.sprintf "%s:%d -> %s:%d proto=%d if=%d" r.src r.sport r.dst r.dport
    r.proto r.iface
