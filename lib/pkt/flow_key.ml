type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  proto : int;
  sport : int;
  dport : int;
  iface : int;
}

let make ~src ~dst ~proto ~sport ~dport ~iface =
  { src; dst; proto; sport; dport; iface }

let equal a b =
  a.proto = b.proto && a.sport = b.sport && a.dport = b.dport
  && a.iface = b.iface
  && Ipaddr.equal a.src b.src
  && Ipaddr.equal a.dst b.dst

let compare a b =
  let c = Ipaddr.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Ipaddr.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Int.compare a.proto b.proto in
      if c <> 0 then c
      else
        let c = Int.compare a.sport b.sport in
        if c <> 0 then c
        else
          let c = Int.compare a.dport b.dport in
          if c <> 0 then c else Int.compare a.iface b.iface

(* Fold-and-xor over all six tuple fields (the paper classifies on the
   6-tuple, incoming interface included): a handful of ALU operations,
   mirroring the paper's 17-cycle hash.  [iface] must participate —
   [equal] distinguishes interfaces, so flows differing only by
   interface would otherwise systematically share a bucket. *)
let hash k =
  let a = Ipaddr.hash k.src in
  let b = Ipaddr.hash k.dst in
  let h =
    a lxor (b lsl 1) lxor (k.proto lsl 16) lxor (k.sport lsl 8) lxor k.dport
    lxor (k.iface lsl 5) lxor k.iface
  in
  h land max_int

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

type direction = Fwd | Rev

let reverse ?iface k =
  let iface = match iface with Some i -> i | None -> k.iface in
  { src = k.dst; dst = k.src; proto = k.proto; sport = k.dport;
    dport = k.sport; iface }

(* Direction normalization: order the two endpoints (address first,
   port as tie-break) and zero the interface — the two directions of
   one conversation arrive on different interfaces, so a
   direction-independent key cannot keep it.  Both directions of a
   flow therefore canonicalize to the same key, with the direction bit
   recording which side this particular tuple was. *)
let canonical k =
  let swapped =
    let c = Ipaddr.compare k.src k.dst in
    if c < 0 then false else if c > 0 then true else k.sport > k.dport
  in
  if swapped then (reverse ~iface:0 k, Rev) else ({ k with iface = 0 }, Fwd)

let canonical_hash k = hash (fst (canonical k))

let to_string k =
  Printf.sprintf "<%s, %s, %s, %d, %d, if%d>"
    (Ipaddr.to_string k.src) (Ipaddr.to_string k.dst) (Proto.name k.proto)
    k.sport k.dport k.iface

let pp ppf k = Format.pp_print_string ppf (to_string k)
