(* PATRICIA-style path-compressed binary trie in flat int arrays.

   Each address family keeps its nodes in [int array] chunks of 512
   slots, a node to a slot of [stride] ints: 2 for IPv4 (16 bytes), 5
   for IPv6 (40 bytes).

     0      the prefix's first 32-bit address word lsl 9, lor its
            length lsl 1, lor 1 when the node holds a value
     1      its children's slots: the 0-bit child, lor the 1-bit
            child lsl 31
     2..4   IPv6 only: the prefix's other three address words

   Slot 0 is the family's root, the wildcard prefix.  The root is
   never a child, so a child link of 0 means "none".  A node still
   holds the full prefix accumulated from the root, so descending a
   compressed path costs a single comparison, charged as a single
   memory access, and it reads one slot.

   A valued slot's result, [Some (prefix, v)], is built once, when the
   value is set, and kept in a side array by slot.  [lookup] returns
   that block, so a walk allocates nothing.

   The first chunk starts at 2 slots and grows by half until it is
   full; later slots come in whole new chunks.  A large table so never
   copies itself, and the outgrown arrays it leaves behind are small
   ones.

   Invariants: a node's prefix subsumes the prefixes of all its
   descendants, and every node but the root that holds no value has
   two children (removal splices out the rest).  Spliced slots go on a
   free list, chained through int 0, and are reused first, so a family
   of n entries holds at most 2n + 1 live slots. *)

open Rp_pkt

type 'a family = {
  stride : int;
  mutable nodes : int array array;  (* by chunk *)
  mutable results : (Prefix.t * 'a) option array array;  (* by chunk *)
  mutable slots : int;
  mutable free : int;  (* head of the free list; -1 when empty *)
}

type 'a t = {
  mutable v4 : 'a family option;
  mutable v6 : 'a family option;
  mutable size : int;
}

let name = "patricia"

let create () = { v4 = None; v6 = None; size = 0 }

(* --- slots ------------------------------------------------------------- *)

let chunk_bits = 9
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1

(* Slot numbers come from the trie's own links and free list, so reads
   skip the bounds checks. *)
let get f s i =
  Array.unsafe_get
    (Array.unsafe_get f.nodes (s lsr chunk_bits))
    (((s land chunk_mask) * f.stride) + i)

let set f s i x =
  f.nodes.(s lsr chunk_bits).(((s land chunk_mask) * f.stride) + i) <- x

let result f s =
  Array.unsafe_get (Array.unsafe_get f.results (s lsr chunk_bits)) (s land chunk_mask)

let set_result f s r = f.results.(s lsr chunk_bits).(s land chunk_mask) <- r

let len f s = (get f s 0 lsr 1) land 0xFF
let valued f s = get f s 0 land 1 = 1

(* Address word [i] (0 to 3) of slot [s]'s prefix. *)
let word f s i = if i = 0 then get f s 0 lsr 9 else get f s (i + 1)

let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1

(* [b] is 0 for the 0-bit child, 1 for the 1-bit one. *)
let child f s b = (get f s 1 lsr (b * slot_bits)) land slot_mask

let set_child f s b c =
  let shift = b * slot_bits in
  set f s 1 (get f s 1 land lnot (slot_mask lsl shift) lor (c lsl shift))

(* The new slots join the free list, lowest first. *)
let grow f =
  let cap = f.slots in
  let cap' =
    if cap < chunk_slots then begin
      let cap' = min chunk_slots (max 2 (cap + (cap / 2))) in
      let nodes = Array.make (cap' * f.stride) 0 and results = Array.make cap' None in
      if cap > 0 then begin
        Array.blit f.nodes.(0) 0 nodes 0 (cap * f.stride);
        Array.blit f.results.(0) 0 results 0 cap
      end;
      f.nodes <- [| nodes |];
      f.results <- [| results |];
      cap'
    end
    else begin
      f.nodes <- Array.append f.nodes [| Array.make (chunk_slots * f.stride) 0 |];
      f.results <- Array.append f.results [| Array.make chunk_slots None |];
      cap + chunk_slots
    end
  in
  f.slots <- cap';
  for s = cap' - 1 downto cap do
    set f s 0 f.free;
    f.free <- s
  done

let ones32 = 0xFFFF_FFFF

(* The first [r] bits of a 32-bit word. *)
let mask r = if r <= 0 then 0 else if r >= 32 then ones32 else (ones32 lsl (32 - r)) land ones32

let addr_bit a i = (Ipaddr.word a (i lsr 5) lsr (31 - (i land 31))) land 1
let node_bit f s i = (word f s (i lsr 5) lsr (31 - (i land 31))) land 1

(* A fresh valueless, childless slot holding the first [n] bits of
   address [a]. *)
let alloc f a n =
  if f.free < 0 then grow f;
  let s = f.free in
  f.free <- get f s 0;
  set f s 0 (((Ipaddr.word a 0 land mask n) lsl 9) lor (n lsl 1));
  set f s 1 0;
  for i = 1 to f.stride - 2 do
    set f s (i + 1) (Ipaddr.word a i land mask (n - (32 * i)))
  done;
  s

let release f s =
  set_result f s None;
  set f s 0 f.free;
  f.free <- s

let set_value f s p v =
  set f s 0 (get f s 0 lor 1);
  set_result f s (Some (p, v))

let clear_value f s =
  set f s 0 (get f s 0 land lnot 1);
  set_result f s None

let leaf f (p : Prefix.t) v =
  let s = alloc f p.Prefix.addr p.Prefix.len in
  set_value f s p v;
  s

(* Leading zeros of a nonzero 32-bit word. *)
let clz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF_0000 = 0 then begin n := 16; x := !x lsl 16 end;
  if !x land 0xFF00_0000 = 0 then begin n := !n + 8; x := !x lsl 8 end;
  if !x land 0xF000_0000 = 0 then begin n := !n + 4; x := !x lsl 4 end;
  if !x land 0xC000_0000 = 0 then begin n := !n + 2; x := !x lsl 2 end;
  if !x land 0x8000_0000 = 0 then !n + 1 else !n

let rec common_from f s a n i =
  if 32 * i >= n then n
  else
    let x = word f s i lxor Ipaddr.word a i in
    if x <> 0 then min n ((32 * i) + clz32 x) else common_from f s a n (i + 1)

(* Length of the longest common prefix of slot [s] and [p]. *)
let common f s (p : Prefix.t) = common_from f s p.Prefix.addr (min (len f s) p.Prefix.len) 0

(* Do slot [s] and address [a] agree on their first [n] bits? *)
let rec agree_from f s a n i =
  32 * i >= n
  || (word f s i lxor Ipaddr.word a i) land mask (n - (32 * i)) = 0
     && agree_from f s a n (i + 1)

(* Does slot [s]'s prefix subsume [p]? *)
let subsumes f s (p : Prefix.t) =
  let l = len f s in
  l <= p.Prefix.len && agree_from f s p.Prefix.addr l 0

(* Does [p] subsume slot [s]'s prefix? *)
let covers f s (p : Prefix.t) =
  p.Prefix.len <= len f s && agree_from f s p.Prefix.addr p.Prefix.len 0

let equal f s (p : Prefix.t) =
  len f s = p.Prefix.len && agree_from f s p.Prefix.addr p.Prefix.len 0

let family_for t a = if Ipaddr.width a = 32 then t.v4 else t.v6

let ensure_family t a =
  match family_for t a with
  | Some f -> f
  | None ->
    let v6 = Ipaddr.width a = 128 in
    let f =
      { stride = (if v6 then 5 else 2); nodes = [||]; results = [||]; slots = 0; free = -1 }
    in
    ignore (alloc f a 0);
    if v6 then t.v6 <- Some f else t.v4 <- Some f;
    f

(* --- insert and remove --------------------------------------------------- *)

let rec insert_node t f s (p : Prefix.t) v =
  if equal f s p then begin
    if not (valued f s) then t.size <- t.size + 1;
    set_value f s p v
  end
  else begin
    (* Invariant: slot [s] subsumes p here. *)
    let b = addr_bit p.Prefix.addr (len f s) in
    let c = child f s b in
    if c = 0 then begin
      set_child f s b (leaf f p v);
      t.size <- t.size + 1
    end
    else
      let common = common f c p in
      if common = len f c then insert_node t f c p v
      else if common = p.Prefix.len then begin
        (* p sits on the path to c: make p an ancestor of c. *)
        let n = leaf f p v in
        set_child f n (node_bit f c common) c;
        set_child f s b n;
        t.size <- t.size + 1
      end
      else begin
        (* Paths diverge below [common]: split with an internal node. *)
        let split = alloc f p.Prefix.addr common in
        set_child f split (node_bit f c common) c;
        let l = leaf f p v in
        set_child f split (addr_bit p.Prefix.addr common) l;
        set_child f s b split;
        t.size <- t.size + 1
      end
  end

let insert t p v = insert_node t (ensure_family t p.Prefix.addr) 0 p v

(* Splice out valueless nodes with at most one child (the root is kept
   as an anchor). *)
let rec remove_node t f s (p : Prefix.t) =
  if equal f s p then begin
    if valued f s then t.size <- t.size - 1;
    clear_value f s
  end
  else if len f s < p.Prefix.len && subsumes f s p then begin
    let b = addr_bit p.Prefix.addr (len f s) in
    let c = child f s b in
    if c <> 0 then begin
      remove_node t f c p;
      if not (valued f c) then
        match child f c 0, child f c 1 with
        | 0, only | only, 0 ->
          set_child f s b only;
          release f c
        | _ -> ()
    end
  end

let remove t p =
  match family_for t p.Prefix.addr with
  | None -> ()
  | Some f -> remove_node t f 0 p

(* --- lookup ---------------------------------------------------------------

   The address is split once into 32-bit words held as native ints (an
   IPv4 address is word 0), and each visited slot's words are compared
   with it under the slot's length mask.  The walk keeps the best
   valued slot seen and returns that slot's prebuilt result, so it
   allocates nothing; it charges one access per visited slot, in one
   [Access.charge] once it stops.  Links come from the trie itself, so
   the slot reads skip the bounds check. *)

(* Do words [p] and [a] agree on their first [r] bits? *)
let[@inline] agree p a r = r <= 0 || (p lxor a) land mask r = 0

let[@inline] matches nodes base m len a0 a1 a2 a3 =
  agree (m lsr 9) a0 len
  && (len <= 32
     || agree (Array.unsafe_get nodes (base + 2)) a1 (len - 32)
        && (len <= 64
           || agree (Array.unsafe_get nodes (base + 3)) a2 (len - 64)
              && (len <= 96 || agree (Array.unsafe_get nodes (base + 4)) a3 (len - 96))))

let[@inline] bit_at a0 a1 a2 a3 i =
  let w = match i lsr 5 with 0 -> a0 | 1 -> a1 | 2 -> a2 | _ -> a3 in
  (w lsr (31 - (i land 31))) land 1

let walk f cap a0 a1 a2 a3 =
  let chunks = f.nodes and stride = f.stride in
  let width = 32 * (stride - 1) in
  let best = ref (-1) and s = ref 0 and visited = ref 0 and go = ref true in
  while !go do
    incr visited;
    let nodes = Array.unsafe_get chunks (!s lsr chunk_bits) in
    let base = (!s land chunk_mask) * stride in
    let m = Array.unsafe_get nodes base in
    let len = (m lsr 1) land 0xFF in
    if len > cap || not (matches nodes base m len a0 a1 a2 a3) then go := false
    else begin
      if m land 1 = 1 then best := !s;
      if len >= width then go := false
      else begin
        let links = Array.unsafe_get nodes (base + 1) in
        s := (links lsr (bit_at a0 a1 a2 a3 len * slot_bits)) land slot_mask;
        if !s = 0 then go := false
      end
    end
  done;
  Access.charge !visited;
  let b = !best in
  if b < 0 then None
  else Array.unsafe_get (Array.unsafe_get f.results (b lsr chunk_bits)) (b land chunk_mask)

(* Longest matching prefix of length at most [cap]; the BSPL engine
   precomputes marker BMPs with it. *)
let lookup_upto t a cap =
  match family_for t a with
  | None -> None
  | Some f ->
    walk f cap (Ipaddr.word a 0) (Ipaddr.word a 1) (Ipaddr.word a 2) (Ipaddr.word a 3)

let lookup t a = lookup_upto t a max_int

(* --- structural queries ---------------------------------------------------

   Used by the set-pruning DAG; not part of the generic LPM signature. *)

(* Every entry whose prefix is subsumed by [p] (including [p] itself),
   in O(path + subtree). *)
let iter_subtree t (p : Prefix.t) fn =
  match family_for t p.Prefix.addr with
  | None -> ()
  | Some f ->
    let rec descend s =
      (match result f s with
       | Some (q, v) -> if covers f s p then fn q v
       | None -> ());
      visit (child f s 0);
      visit (child f s 1)
    and visit c =
      (* Prune: only descend where the subtree can intersect p. *)
      if c <> 0 then
        if len f c <= p.Prefix.len then begin
          if subsumes f c p then descend c
        end
        else if covers f c p then descend c
    in
    descend 0  (* the root, the wildcard, subsumes p *)

(* Every entry whose prefix subsumes [p] (including [p] itself), in
   O(path). *)
let fold_ancestors t (p : Prefix.t) fn acc =
  match family_for t p.Prefix.addr with
  | None -> acc
  | Some f ->
    let rec go acc s =
      if not (subsumes f s p) then acc
      else
        let acc = match result f s with Some (q, v) -> fn q v acc | None -> acc in
        let l = len f s in
        if l >= p.Prefix.len then acc
        else
          let c = child f s (addr_bit p.Prefix.addr l) in
          if c = 0 then acc else go acc c
    in
    go acc 0

let find_exact t (p : Prefix.t) =
  match family_for t p.Prefix.addr with
  | None -> None
  | Some f ->
    let rec go s =
      let l = len f s in
      if l > p.Prefix.len || not (agree_from f s p.Prefix.addr l 0) then None
      else if l = p.Prefix.len then
        match result f s with Some (_, v) -> Some v | None -> None
      else
        let c = child f s (addr_bit p.Prefix.addr l) in
        if c = 0 then None else go c
    in
    go 0

let iter fn t =
  let each f =
    let rec go s =
      (match result f s with Some (q, v) -> fn q v | None -> ());
      let l = child f s 0 in
      if l <> 0 then go l;
      let r = child f s 1 in
      if r <> 0 then go r
    in
    go 0
  in
  Option.iter each t.v4;
  Option.iter each t.v6

let length t = t.size

let live_slots t ~v6 =
  match if v6 then t.v6 else t.v4 with
  | None -> 0
  | Some f ->
    let rec free n s = if s < 0 then n else free (n + 1) (get f s 0) in
    f.slots - free 0 f.free
