(** PATRICIA-style path-compressed binary trie.

    This is the "slower but freely available" BMP plugin of the paper
    (section 5.1.1).  Each node stores the full prefix accumulated from
    the root, so descending a compressed path costs a single comparison
    (and is charged as a single memory access).

    Invariants: a node's prefix subsumes the prefixes of all its
    descendants, and every node with two absent children carries a
    value (spliced out otherwise). *)

open Rp_pkt

type 'a node = {
  mutable prefix : Prefix.t;
  mutable value : 'a option;
  mutable left : 'a node option;
  mutable right : 'a node option;
}

type 'a t = {
  mutable v4_root : 'a node option;
  mutable v6_root : 'a node option;
  mutable size : int;
}

let name = "patricia"

let create () = { v4_root = None; v6_root = None; size = 0 }

let leaf prefix value = { prefix; value = Some value; left = None; right = None }

let child_for node bit = if bit then node.right else node.left

let set_child node bit c =
  if bit then node.right <- Some c else node.left <- Some c

(* Longest common prefix length of two (normalized) prefixes. *)
let common_len p q =
  min
    (Ipaddr.common_prefix_len p.Prefix.addr q.Prefix.addr)
    (min p.Prefix.len q.Prefix.len)

let rec insert_node t node p v =
  if node.prefix.Prefix.len = p.Prefix.len && Prefix.equal node.prefix p then begin
    if node.value = None then t.size <- t.size + 1;
    node.value <- Some v
  end
  else begin
    (* Invariant: node.prefix subsumes p here. *)
    let bit = Ipaddr.bit p.Prefix.addr node.prefix.Prefix.len in
    match child_for node bit with
    | None ->
      set_child node bit (leaf p v);
      t.size <- t.size + 1
    | Some c ->
      let common = common_len c.prefix p in
      if common = c.prefix.Prefix.len then insert_node t c p v
      else if common = p.Prefix.len then begin
        (* p sits on the path to c: make p an ancestor of c. *)
        let n = leaf p v in
        set_child n (Ipaddr.bit c.prefix.Prefix.addr p.Prefix.len) c;
        set_child node bit n;
        t.size <- t.size + 1
      end
      else begin
        (* Paths diverge below [common]: split with an internal node. *)
        let split =
          {
            prefix = Prefix.make p.Prefix.addr common;
            value = None;
            left = None;
            right = None;
          }
        in
        set_child split (Ipaddr.bit c.prefix.Prefix.addr common) c;
        set_child split (Ipaddr.bit p.Prefix.addr common) (leaf p v);
        set_child node bit split;
        t.size <- t.size + 1
      end
  end

let root_for t a =
  if Ipaddr.width a = 32 then t.v4_root else t.v6_root

let ensure_root t p =
  let wildcard =
    if Ipaddr.width p.Prefix.addr = 32 then Prefix.any_v4 else Prefix.any_v6
  in
  match root_for t p.Prefix.addr with
  | Some r -> r
  | None ->
    let r = { prefix = wildcard; value = None; left = None; right = None } in
    if Ipaddr.width p.Prefix.addr = 32 then t.v4_root <- Some r
    else t.v6_root <- Some r;
    r

let insert t p v = insert_node t (ensure_root t p) p v

(* --- lookup ------------------------------------------------------------

   The walk allocates nothing but its result.  The address is split
   once into 32-bit words held as native ints (an IPv4 address is word
   0), and each node's prefix is compared word by word under its mask
   — reading an int32/int64 field into a native int boxes nothing,
   where [Prefix.matches] builds a masked [Ipaddr.t] per node.  The
   best match so far is the child option the walk arrived through,
   already on the heap.  The walk is a top-level function taking its
   state as arguments: a local closure would be allocated per call. *)

let ones32 = 0xFFFF_FFFF
let word = Ipaddr.word

(* Do words [p] and [a] agree on their first [r] bits? *)
let agree p a r =
  r <= 0
  ||
  let mask = if r >= 32 then ones32 else (ones32 lsl (32 - r)) land ones32 in
  (p lxor a) land mask = 0

let matches (p : Prefix.t) a0 a1 a2 a3 =
  let len = p.Prefix.len and pa = p.Prefix.addr in
  agree (word pa 0) a0 len
  && (len <= 32
     || agree (word pa 1) a1 (len - 32)
        && (len <= 64
           || agree (word pa 2) a2 (len - 64)
              && (len <= 96 || agree (word pa 3) a3 (len - 96))))

let bit_at a0 a1 a2 a3 i =
  let w = match i lsr 5 with 0 -> a0 | 1 -> a1 | 2 -> a2 | _ -> a3 in
  (w lsr (31 - (i land 31))) land 1 = 1

let rec walk cap width a0 a1 a2 a3 best = function
  | None -> best
  | Some n as here ->
    Access.charge 1;
    let len = n.prefix.Prefix.len in
    if len > cap || not (matches n.prefix a0 a1 a2 a3) then best
    else
      let best = match n.value with Some _ -> here | None -> best in
      if len >= width then best
      else
        walk cap width a0 a1 a2 a3 best (child_for n (bit_at a0 a1 a2 a3 len))

(* Longest matching prefix of length at most [cap]; the BSPL engine
   precomputes marker BMPs with it. *)
let lookup_upto t a cap =
  match
    walk cap (Ipaddr.width a) (word a 0) (word a 1) (word a 2) (word a 3) None
      (root_for t a)
  with
  | Some { prefix; value = Some v; _ } -> Some (prefix, v)
  | Some _ | None -> None

let lookup t a = lookup_upto t a max_int

(* Structural queries used by the set-pruning DAG (not part of the
   generic LPM signature). *)

(* Every entry whose prefix is subsumed by [p] (including [p] itself),
   in O(path + subtree). *)
let iter_subtree t p f =
  let rec descend n =
    (match n.value with
     | Some v -> if Prefix.subsumes p n.prefix then f n.prefix v
     | None -> ());
    let visit = function
      | Some c ->
        (* Prune: only descend where the subtree can intersect p. *)
        if c.prefix.Prefix.len <= p.Prefix.len then begin
          if Prefix.subsumes c.prefix p then descend c
        end
        else if Prefix.subsumes p c.prefix then descend c
      | None -> ()
    in
    visit n.left;
    visit n.right
  in
  match root_for t p.Prefix.addr with
  | Some r ->
    if Prefix.subsumes r.prefix p || Prefix.subsumes p r.prefix then descend r
  | None -> ()

(* Every entry whose prefix subsumes [p] (including [p] itself), in
   O(path). *)
let fold_ancestors t p f acc =
  let rec walk acc = function
    | None -> acc
    | Some n ->
      if not (Prefix.subsumes n.prefix p) then acc
      else
        let acc =
          match n.value with
          | Some v -> f n.prefix v acc
          | None -> acc
        in
        if n.prefix.Prefix.len >= p.Prefix.len then acc
        else walk acc (child_for n (Ipaddr.bit p.Prefix.addr n.prefix.Prefix.len))
  in
  walk acc (root_for t p.Prefix.addr)

let find_exact t p =
  let rec walk = function
    | None -> None
    | Some n ->
      if Prefix.equal n.prefix p then n.value
      else if
        n.prefix.Prefix.len >= p.Prefix.len || not (Prefix.subsumes n.prefix p)
      then None
      else walk (child_for n (Ipaddr.bit p.Prefix.addr n.prefix.Prefix.len))
  in
  walk (root_for t p.Prefix.addr)

(* Splice out valueless nodes with at most one child (the root is kept
   as an anchor). *)
let rec remove_node t node p =
  if Prefix.equal node.prefix p then begin
    if node.value <> None then t.size <- t.size - 1;
    node.value <- None
  end
  else if node.prefix.Prefix.len < p.Prefix.len && Prefix.subsumes node.prefix p
  then begin
    let bit = Ipaddr.bit p.Prefix.addr node.prefix.Prefix.len in
    (match child_for node bit with
     | None -> ()
     | Some c ->
       remove_node t c p;
       if c.value = None then begin
         match c.left, c.right with
         | None, None -> if bit then node.right <- None else node.left <- None
         | Some only, None | None, Some only -> set_child node bit only
         | Some _, Some _ -> ()
       end)
  end

let remove t p =
  match root_for t p.Prefix.addr with
  | None -> ()
  | Some r -> remove_node t r p

let iter f t =
  let rec walk = function
    | None -> ()
    | Some n ->
      (match n.value with Some v -> f n.prefix v | None -> ());
      walk n.left;
      walk n.right
  in
  walk t.v4_root;
  walk t.v6_root

let length t = t.size
