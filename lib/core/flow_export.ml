(* NetFlow-style flow-record export.

   Installed on every AIU that carries live traffic — the router's own
   (inline path) and each shard's domain-private one — so a record
   leaving any flow table for any reason (recycled, expired, replaced,
   removed, flushed, invalidated) becomes one export record.  Flows
   that never carried an accounted packet (e.g. control-plane test
   classifications) are skipped.  Session reaping exports through the
   same ring.

   An insert into a full table recycles a flow, so export runs on the
   data path.  It therefore only copies ints: the ring is a fixed block
   of rows of immediates (addresses as the 32-bit words
   [Ipaddr.word] splits them into, the 5-tuple, counters, timestamps,
   one plugin instance id per gate, an interned reason), and writing a
   row allocates nothing.  The strings, the bindings list and the
   [record] are built only when a consumer peeks or drains. *)

open Rp_pkt
module Ft = Rp_classifier.Flow_table

type xlate = { xsrc : Ipaddr.t; xdst : Ipaddr.t; xsport : int; xdport : int }

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
   stream without a closing bracket.  The translated tuple, when a
   flow has one, is one extra object; untranslated flows keep the
   schema as it was. *)
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
        (Ipaddr.to_string x.xsrc) (Ipaddr.to_string x.xdst) x.xsport x.xdport
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

(* The session layer (lib/session) knows whether a flow record's soft
   state points at a NAT'd session; this module cannot depend on it,
   so the translated-tuple extraction is a registered hook.  Absent
   (the default), every record exports untranslated. *)
let translated_of : (Plugin.t Ft.record -> xlate option) ref =
  ref (fun _ -> None)

let set_translated_of f = translated_of := f

(* Export-side reconciliation counters: every packet/byte attributed
   to a flow record eventually leaves the table inside exactly one
   export record, so after a flush these match the
   [flow_table.accounted_*] counters exactly. *)
let m_packets = Rp_obs.Registry.counter "flow_export.packets"
let m_bytes = Rp_obs.Registry.counter "flow_export.bytes"
let m_records = Rp_obs.Registry.counter "telemetry.flow.records"
let m_overwritten = Rp_obs.Registry.counter "telemetry.flow.ring_overwrites"

(* --- rows -------------------------------------------------------------

   A row is [stride] ints at [row * stride + field].  Each address
   takes four words; [c_flags] says which are IPv6 and whether the
   translated tuple is present. *)

let c_flags = 0
let c_src = 1
let c_dst = 5
let c_xsrc = 9
let c_xdst = 13
let c_xsport = 17
let c_xdport = 18
let c_proto = 19
let c_sport = 20
let c_dport = 21
let c_iface = 22
let c_packets = 23
let c_bytes = 24
let c_fwd = 25
let c_dropped = 26
let c_absorbed = 27
let c_created = 28
let c_last = 29
let c_reason = 30
let c_session = 31 (* session id, or [none] for a flow-table row *)
let c_inst = 32 (* [Gate.count] instance ids, or [none] where unbound *)
let stride = c_inst + Gate.count
let none = min_int
let f_src_v6 = 1
let f_dst_v6 = 2
let f_xlate = 4
let f_xsrc_v6 = 8
let f_xdst_v6 = 16

(* Reasons are interned: a row holds an index into [reasons].  The
   tables' and the session layer's reasons are listed up front, so
   only a caller's own new reason ever grows the table.  Guarded by
   [lock]. *)
let reasons =
  ref
    [|
      "recycled"; "expired"; "invalidated"; "replaced"; "removed"; "flushed";
      "evicted"; "session-expired"; "session-flushed"; "live";
    |]

let rec find_reason rs reason i =
  if i = Array.length rs then -1
  else if String.equal (Array.unsafe_get rs i) reason then i
  else find_reason rs reason (i + 1)

(* A pass exports many rows with one reason string: the last one's
   code is kept, found by physical equality. *)
let last_reason = ref "" and last_code = ref 0

let reason_code reason =
  if reason == !last_reason then !last_code
  else begin
    let rs = !reasons in
    let i = find_reason rs reason 0 in
    let i =
      if i >= 0 then i
      else begin
        reasons := Array.append rs [| reason |];
        Array.length rs
      end
    in
    last_reason := reason;
    last_code := i;
    i
  end

let put_addr a o x =
  a.(o) <- Ipaddr.word x 0;
  a.(o + 1) <- Ipaddr.word x 1;
  a.(o + 2) <- Ipaddr.word x 2;
  a.(o + 3) <- Ipaddr.word x 3

let v6_flag x flag = if Ipaddr.is_v6 x then flag else 0

(* Everything but the addresses, the flags and the per-gate instance
   ids. *)
let put_scalars a o ~reason ~proto ~sport ~dport ~iface ~packets ~bytes
    ~forwarded ~dropped ~absorbed ~created ~last ~session =
  a.(o + c_proto) <- proto;
  a.(o + c_sport) <- sport;
  a.(o + c_dport) <- dport;
  a.(o + c_iface) <- iface;
  a.(o + c_packets) <- packets;
  a.(o + c_bytes) <- bytes;
  a.(o + c_fwd) <- forwarded;
  a.(o + c_dropped) <- dropped;
  a.(o + c_absorbed) <- absorbed;
  a.(o + c_created) <- created;
  a.(o + c_last) <- last;
  a.(o + c_reason) <- reason_code reason;
  a.(o + c_session) <- session

let rec put_bindings a o r g =
  if g < Gate.count then begin
    a.(o + c_inst + g) <-
      (match Ft.binding r ~gate:g with
       | Some b -> b.Ft.instance.Plugin.instance_id
       | None -> none);
    put_bindings a o r (g + 1)
  end

(* The record's words go straight into the row: no key is rebuilt. *)
let put_flow a o ~reason r xlate =
  for j = 0 to 3 do
    a.(o + c_src + j) <- Ft.src_word r j;
    a.(o + c_dst + j) <- Ft.dst_word r j
  done;
  let flags =
    (if Ft.src_v6 r then f_src_v6 else 0) lor if Ft.dst_v6 r then f_dst_v6 else 0
  in
  a.(o + c_flags) <-
    (match xlate with
     | None -> flags
     | Some x ->
       put_addr a (o + c_xsrc) x.xsrc;
       put_addr a (o + c_xdst) x.xdst;
       a.(o + c_xsport) <- x.xsport;
       a.(o + c_xdport) <- x.xdport;
       flags lor f_xlate lor v6_flag x.xsrc f_xsrc_v6
       lor v6_flag x.xdst f_xdst_v6);
  put_scalars a o ~reason ~proto:(Ft.proto r) ~sport:(Ft.sport r)
    ~dport:(Ft.dport r) ~iface:(Ft.iface r) ~packets:(Ft.packets r)
    ~bytes:(Ft.bytes r) ~forwarded:(Ft.fwd r) ~dropped:(Ft.dropped r)
    ~absorbed:(Ft.absorbed r) ~created:(Ft.created_ns r)
    ~last:(Ft.last_use_ns r) ~session:none;
  put_bindings a o r 0

(* The one place a row becomes a [record]. *)
let decode reasons a o =
  let flags = a.(o + c_flags) in
  let addr c flag =
    Ipaddr.of_words ~v6:(flags land flag <> 0) a.(o + c) a.(o + c + 1)
      a.(o + c + 2) a.(o + c + 3)
  in
  let bindings =
    if a.(o + c_session) <> none then [ ("session", a.(o + c_session)) ]
    else
      List.filter_map
        (fun g ->
          let inst = a.(o + c_inst + g) in
          match Gate.of_int g with
          | Some gate when inst <> none -> Some (Gate.name gate, inst)
          | Some _ | None -> None)
        (List.init Gate.count Fun.id)
  in
  {
    src = Ipaddr.to_string (addr c_src f_src_v6);
    dst = Ipaddr.to_string (addr c_dst f_dst_v6);
    proto = a.(o + c_proto);
    sport = a.(o + c_sport);
    dport = a.(o + c_dport);
    iface = a.(o + c_iface);
    packets = a.(o + c_packets);
    bytes = a.(o + c_bytes);
    forwarded = a.(o + c_fwd);
    dropped = a.(o + c_dropped);
    absorbed = a.(o + c_absorbed);
    created_ns = Int64.of_int a.(o + c_created);
    last_ns = Int64.of_int a.(o + c_last);
    bindings;
    reason = reasons.(a.(o + c_reason));
    translated =
      (if flags land f_xlate = 0 then None
       else
         Some
           {
             xsrc = addr c_xsrc f_xsrc_v6;
             xdst = addr c_xdst f_xdst_v6;
             xsport = a.(o + c_xsport);
             xdport = a.(o + c_xdport);
           });
  }

(* --- the ring --------------------------------------------------------

   [capacity] rows, overwrite-oldest.  The block is allocated by the
   first emit after start-up or a drain, so a process that exports
   nothing never carries it.  Emitters on several domains (sharded
   workers own private flow tables) take [lock] around the row write,
   which cannot raise. *)

let capacity = 4096
let lock = Mutex.create ()
let ring = ref [||]
let head = ref 0 (* rows written since the last drain *)

(* Offset of the next row; call with [lock] held. *)
let claim () =
  if Array.length !ring = 0 then ring := Array.make (capacity * stride) 0;
  if !head >= capacity then Rp_obs.Counter.inc m_overwritten;
  let row = !head mod capacity in
  incr head;
  Rp_obs.Counter.inc m_records;
  row * stride

let export_flow ~reason r =
  if Ft.packets r > 0 then begin
    Rp_obs.Counter.add m_packets (Ft.packets r);
    Rp_obs.Counter.add m_bytes (Ft.bytes r);
    let xlate = !translated_of r in
    Mutex.lock lock;
    let o = claim () in
    put_flow !ring o ~reason r xlate;
    Mutex.unlock lock
  end

let install (aiu : Plugin.t Rp_classifier.Aiu.t) =
  if Rp_classifier.Aiu.gates aiu > Gate.count then
    invalid_arg "Flow_export.install: more gates than Gate.count";
  Ft.set_exporter (Rp_classifier.Aiu.flow_table aiu) export_flow

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let v6_bit v6 b flag = if v6 land b <> 0 then flag else 0

(* The row's four address columns are one run of 16 words in the
   order the session layer keeps them, so a session's addresses copy
   straight across: no boxed address is read. *)
let emit_session ~reason ~id ~words ~off ~v6 ~xlate ~proto ~sport ~dport
    ~xsport ~xdport ~iface ~packets ~bytes ~forwarded ~dropped ~created_ns
    ~last_ns =
  Mutex.lock lock;
  let o = claim () in
  let a = !ring in
  for j = 0 to 15 do
    a.(o + c_src + j) <- Bigarray.Array1.get words (off + j)
  done;
  a.(o + c_flags) <-
    v6_bit v6 1 f_src_v6 lor v6_bit v6 2 f_dst_v6
    lor
    if xlate then f_xlate lor v6_bit v6 4 f_xsrc_v6 lor v6_bit v6 8 f_xdst_v6
    else 0;
  a.(o + c_xsport) <- xsport;
  a.(o + c_xdport) <- xdport;
  put_scalars a o ~reason ~proto ~sport ~dport ~iface ~packets ~bytes
    ~forwarded ~dropped ~absorbed:0 ~created:created_ns ~last:last_ns
    ~session:id;
  Array.fill a (o + c_inst) Gate.count none;
  Mutex.unlock lock

let record_of ~reason r =
  let a = Array.make stride 0 in
  let xlate = !translated_of r in
  Mutex.lock lock;
  put_flow a 0 ~reason r xlate;
  let rs = !reasons in
  Mutex.unlock lock;
  decode rs a 0

(* The retained rows of [a] oldest-first, [n] rows having been
   written. *)
let render rs a n =
  let kept = min n capacity in
  List.init kept (fun k -> decode rs a (((n - kept + k) mod capacity) * stride))

let peek () =
  Mutex.lock lock;
  let a = Array.copy !ring and n = !head and rs = !reasons in
  Mutex.unlock lock;
  render rs a n

(* Detach the ring; the next export allocates a fresh one. *)
let take () =
  Mutex.lock lock;
  let a = !ring and n = !head and rs = !reasons in
  ring := [||];
  head := 0;
  Mutex.unlock lock;
  (rs, a, n)

let drain () =
  let rs, a, n = take () in
  render rs a n

let clear () = ignore (take ())
