(** NetFlow-style flow records.

    [Rp_core.Flow_export] keeps the export ring: a flow leaving a
    table is stored there as a row of ints, and becomes a {!record}
    only when a consumer drains or peeks the ring, to write a flow log
    ([rp_router --flow-log]) or render a [pmgr flows top] view.
    Addresses are rendered strings so obs stays free of lib/pkt
    dependencies. *)

(** Post-rewrite (NAT'd) tuple of a translated session.  [None]
    leaves the export schema as it is for untranslated flows; [Some]
    adds one ["translated"] object to the JSON line. *)
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
  forwarded : int;  (** packets that left on an egress interface *)
  dropped : int;
  absorbed : int;  (** delivered locally or absorbed by a plugin *)
  created_ns : int64;
  last_ns : int64;
  bindings : (string * int) list;  (** (gate name, plugin instance id) *)
  reason : string;  (** why the entry left the table *)
  translated : xlate option;  (** post-NAT tuple, when one exists *)
}

val duration_ns : record -> int64

(** One JSON object (single line, JSON-lines framing) per record. *)
val to_json_line : record -> string

(** ["src:sport -> dst:dport proto=p if=i"] display key. *)
val key_string : record -> string
