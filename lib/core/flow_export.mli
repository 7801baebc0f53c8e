(** NetFlow-style flow-record export.

    {!install} hooks an AIU's flow table: every in-use record leaving
    the table (recycled / expired / replaced / removed / flushed /
    invalidated) that carried at least one accounted packet is copied
    into the export ring — 5-tuple, packet/byte and per-verdict
    totals, lifetime, bound plugin instance per gate, eviction reason,
    translated tuple.  A row is ints only, so exporting allocates
    nothing; a row becomes a {!record} only when the ring is drained or
    peeked, to write a flow log ([rp_router --flow-log]) or render a
    [pmgr flows top] view.  {!Router.create} installs the exporter
    on the inline path's AIU; each engine shard installs it on its
    domain-private AIU.  The session layer exports reaped sessions
    through {!emit_session}.

    The ring keeps the newest {!capacity} rows, overwriting the oldest
    (counted in [telemetry.flow.ring_overwrites]; every row written
    counts in [telemetry.flow.records]).  Its rows are allocated by
    the first export.  Any domain may export, drain or peek. *)

(** A NAT'd flow's post-rewrite tuple. *)
type xlate = {
  xsrc : Rp_pkt.Ipaddr.t;
  xdst : Rp_pkt.Ipaddr.t;
  xsport : int;
  xdport : int;
}

(** One NetFlow-style flow record.  Addresses are rendered strings. *)
type record = {
  src : string;
  dst : string;
  proto : int;
  sport : int;
  dport : int;
  iface : int;
  packets : int;
  bytes : int;
  forwarded : int;  (** packets that left on an egress interface *)
  dropped : int;
  absorbed : int;  (** delivered locally or absorbed by a plugin *)
  created_ns : int64;
  last_ns : int64;
  bindings : (string * int) list;  (** (gate name, plugin instance id) *)
  reason : string;  (** why the entry left the table *)
  translated : xlate option;
      (** the post-NAT tuple; [None] leaves the JSON schema as it is
          for untranslated flows, [Some] adds one ["translated"]
          object *)
}

val duration_ns : record -> int64

(** One JSON object (single line, JSON-lines framing) per record. *)
val to_json_line : record -> string

(** ["src:sport -> dst:dport proto=p if=i"] display key. *)
val key_string : record -> string

(** Install the exporter (replaces any previous one on this table).
    Raises [Invalid_argument] if the AIU has more gates than
    {!Gate.count}. *)
val install : Plugin.t Rp_classifier.Aiu.t -> unit

(** Flat int storage a session's addresses are read from. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [emit_session ~reason ~id ~words ~off ...] exports one reaped
    session: its bindings render as [("session", id)] and its absorbed
    count is 0.  Its four addresses are the 16 words of [words] from
    [off] on — source, destination, translated source, translated
    destination, each as the four {!Rp_pkt.Ipaddr.word}s — with bit
    0-3 of [v6] set for each IPv6 one; [xlate] marks it NAT'd (the
    translated tuple is exported).  Timestamps are in ns.  Allocates
    nothing. *)
val emit_session :
  reason:string ->
  id:int ->
  words:words ->
  off:int ->
  v6:int ->
  xlate:bool ->
  proto:int ->
  sport:int ->
  dport:int ->
  xsport:int ->
  xdport:int ->
  iface:int ->
  packets:int ->
  bytes:int ->
  forwarded:int ->
  dropped:int ->
  created_ns:int ->
  last_ns:int ->
  unit

(** The record a flow would export now with [reason] (pmgr's live
    rows); it goes through the same row and rendering as an export. *)
val record_of :
  reason:string ->
  Plugin.t Rp_classifier.Flow_table.record ->
  record

(** Register the translated-tuple extractor, called once per exported
    flow; [Some] marks the flow as NAT'd.  It must return a tuple it
    already holds, so export stays allocation-free.  Installed by the
    session layer (which owns the NAT state); defaults to
    [fun _ -> None]. *)
val set_translated_of :
  (Plugin.t Rp_classifier.Flow_table.record -> xlate option) -> unit

(** Rows the ring holds: 4096. *)
val capacity : int

(** Retained records oldest-first, leaving them buffered. *)
val peek : unit -> record list

(** Retained records oldest-first, emptying the ring. *)
val drain : unit -> record list

(** Empty the ring without rendering it. *)
val clear : unit -> unit
