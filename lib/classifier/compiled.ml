open Rp_pkt

(* One (gate, filter, value) binding of the union.  [uid] is the
   hash-consing identity: subtree construction is memoized on the
   (level, residual uid set) pair, so equal residual sets — which is
   where cross-gate sharing happens, wildcard-heavy filters surviving
   down many paths — build one shared node.  Uids are never reused and
   entries never change, so a key names the same subtree in every
   build: the memo carries over from one build to the next. *)
type 'a entry = {
  uid : int;
  gate : int;
  filter : Filter.t;
  inst : 'a;
}

type 'a winners = (Filter.t * 'a) option array

(* Decision nodes, one constructor per DAG level kind.  Levels where
   every residual filter is wildcarded are elided entirely (the FDD
   analogue of the DAG's wildcard-chain collapsing), except the source
   level: a lone v4 wildcard edge must still reject v6 keys, and the
   address matcher is what discriminates families. *)
type 'a node =
  | Leaf of { found : 'a winners option }  (* [Some w], built once *)
  | Addr of { a_level : int; a_matcher : 'a node Rp_lpm.Engines.matcher }
  | Ports of {
      p_level : int;
      intervals : (int * int * 'a node) array;  (* disjoint, sorted *)
      pwild : 'a node option;
    }
  | Exact of {
      x_level : int;
      table : (int, 'a node) Hashtbl.t;
      xwild : 'a node option;
    }

(* The installed bindings, indexed by (gate, filter): a gate holds at
   most one structurally equal filter, so bind and unbind are one
   table operation each. *)
module Binding_tbl = Hashtbl.Make (struct
  type t = int * Filter.t

  let equal (g, f) (h, f') = g = h && Filter.equal f f'
  let hash (g, f) = Filter.hash f + (g * 0x9E3779B1)
end)

type 'a t = {
  new_matcher : unit -> 'a node Rp_lpm.Engines.matcher;
  n_gates : int;
  entries : 'a entry Binding_tbl.t;
  mutable next_uid : int;
  mutable root : 'a node;
  mutable dirty : bool;
  mutable memo : (string, 'a node) Hashtbl.t;
      (* the last build's nodes, by (level, residual uid set) key *)
  mutable nodes : int;  (* nodes the last build constructed *)
}

let n_levels = 6

let m_lookups = Rp_obs.Registry.counter "compiled.lookups"
let m_matches = Rp_obs.Registry.counter "compiled.matches"
let m_rebuilds = Rp_obs.Registry.counter "compiled.rebuilds"

let create ?(engine = Rp_lpm.Engines.patricia) ~gates () =
  if gates <= 0 then invalid_arg "Compiled.create: gates";
  {
    new_matcher = Rp_lpm.Engines.matcher engine;
    n_gates = gates;
    entries = Binding_tbl.create 64;
    next_uid = 0;
    (* Placeholder; [dirty] forces the canonical (empty) build on
       first use, so an empty structure uniformly misses every key. *)
    root = Leaf { found = Some (Array.make gates None) };
    dirty = true;
    memo = Hashtbl.create 1;
    nodes = 0;
  }

let gates t = t.n_gates

let wild_at level e =
  match level with
  | 0 | 1 -> Prefix.is_wildcard (Filter.addr_label e.filter level)
  | 2 | 5 -> Filter.exact_label e.filter level = Filter.Any_num
  | 3 | 4 -> Filter.port_label e.filter level = Filter.Any_port
  | _ -> assert false

(* --- control path ---------------------------------------------------- *)

let check_gate t gate =
  if gate < 0 || gate >= t.n_gates then
    invalid_arg "Compiled: gate out of range"

let bind t ~gate f v =
  check_gate t gate;
  Binding_tbl.replace t.entries (gate, f)
    { uid = t.next_uid; gate; filter = f; inst = v };
  t.next_uid <- t.next_uid + 1;
  t.dirty <- true

let unbind t ~gate f =
  check_gate t gate;
  Binding_tbl.remove t.entries (gate, f);
  t.dirty <- true

let clear t =
  Binding_tbl.reset t.entries;
  t.memo <- Hashtbl.create 1;
  t.dirty <- true

let length t = Binding_tbl.length t.entries
let node_count t = t.nodes

(* --- compilation ------------------------------------------------------ *)

let by_uid a b = Int.compare a.uid b.uid

(* Top-down set-pruning build over the residual entry set.  Every
   subset is kept uid-sorted, so equal subsets produce equal memo
   keys.  A key is looked up in this build's memo, then in the last
   build's, and only then is its node made: a bind re-makes the paths
   its filter reaches and reuses every other subtree by key.  The new
   memo keeps only the keys this build requested, so it never holds
   more than one build's nodes. *)
let rebuild_inner t =
  Rp_obs.Counter.inc m_rebuilds;
  t.nodes <- 0;
  let prev = t.memo in
  let memo : (string, 'a node) Hashtbl.t =
    Hashtbl.create (max 256 (Hashtbl.length prev))
  in
  let all =
    List.sort by_uid (Binding_tbl.fold (fun _ e acc -> e :: acc) t.entries [])
  in
  let key_of level es =
    let b = Buffer.create 64 in
    Buffer.add_string b (string_of_int level);
    List.iter
      (fun e ->
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int e.uid))
      es;
    Buffer.contents b
  in
  let rec build level es =
    if level < n_levels && level > 0 && es <> []
       && List.for_all (wild_at level) es
    then build (level + 1) es  (* elide an all-wildcard level *)
    else begin
      let k = key_of level es in
      match Hashtbl.find_opt memo k with
      | Some n -> n
      | None ->
        let n =
          match Hashtbl.find_opt prev k with
          | Some n -> n
          | None ->
            t.nodes <- t.nodes + 1;
            make level es
        in
        Hashtbl.add memo k n;
        n
    end
  and make level es =
    if level >= n_levels then begin
      (* Leaf: per-gate most specific entry.  [compare_specificity]
         is total with structural tie-break, and one gate never holds
         two structurally equal filters, so the winner is unique —
         independent of insertion order, matching the DAG's leaf. *)
      let w = Array.make t.n_gates None in
      List.iter
        (fun e ->
          match w.(e.gate) with
          | Some (g, _) when Filter.compare_specificity e.filter g <= 0 -> ()
          | Some _ | None -> w.(e.gate) <- Some (e.filter, e.inst))
        es;
      Leaf { found = Some w }
    end
    else
      match level with
      | 0 | 1 ->
        (* Edges are the distinct labels; edge [p] carries every entry
           whose label subsumes [p] (labels matching one address form
           a chain, so following the longest matching edge keeps all
           shorter matching labels reachable — set pruning).  In
           [Prefix.compare] order every label follows its ancestors
           and precedes the rest of its subtree, so one pass with a
           stack of the current label's ancestors finds each one's
           nearest labelled ancestor: its subset is that ancestor's
           subset merged with its own entries.  The stable sort keeps
           each label's own entries in uid order. *)
        let label e = Filter.addr_label e.filter level in
        let sorted =
          List.stable_sort (fun a b -> Prefix.compare (label a) (label b)) es
        in
        let am = t.new_matcher () in
        let rec own p acc = function
          | e :: rest when Prefix.equal (label e) p -> own p (e :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let rec parent p = function
          | (q, sub) :: _ as stack when Prefix.subsumes q p -> (sub, stack)
          | _ :: up -> parent p up
          | [] -> ([], [])
        in
        let rec walk stack = function
          | [] -> ()
          | e :: _ as rest ->
            let p = label e in
            let mine, rest = own p [] rest in
            let above, stack = parent p stack in
            let subset = List.merge by_uid above mine in
            am.insert p (build (level + 1) subset);
            walk ((p, subset) :: stack) rest
        in
        walk [] sorted;
        Addr { a_level = level; a_matcher = am }
      | 2 | 5 ->
        let wilds = List.filter (wild_at level) es in
        let nums =
          List.sort_uniq Int.compare
            (List.filter_map
               (fun e ->
                 match Filter.exact_label e.filter level with
                 | Filter.Num n -> Some n
                 | Filter.Any_num -> None)
               es)
        in
        let table = Hashtbl.create (max 8 (List.length nums)) in
        List.iter
          (fun n ->
            let subset =
              List.filter
                (fun e ->
                  match Filter.exact_label e.filter level with
                  | Filter.Any_num -> true
                  | Filter.Num m -> m = n)
                es
            in
            Hashtbl.replace table n (build (level + 1) subset))
          nums;
        let xwild =
          if wilds = [] then None else Some (build (level + 1) wilds)
        in
        Exact { x_level = level; table; xwild }
      | 3 | 4 ->
        (* Elementary disjoint intervals from the range endpoints; an
           interval exists only where at least one ranged entry covers
           it, so values in the gaps fall through to the wildcard
           child — the same reachability as the DAG's incremental
           splitting produces. *)
        let wilds = List.filter (wild_at level) es in
        let bounds_of e =
          match Filter.port_label e.filter level with
          | Filter.Port q -> Some (q, q)
          | Filter.Port_range (lo, hi) -> Some (lo, hi)
          | Filter.Any_port -> None
        in
        let ranged = List.filter_map bounds_of es in
        let cuts =
          List.sort_uniq Int.compare
            (List.concat_map (fun (lo, hi) -> [ lo; hi + 1 ]) ranged)
        in
        let rec elementary = function
          | a :: (b :: _ as rest) -> (a, b - 1) :: elementary rest
          | [ _ ] | [] -> []
        in
        let covered (a, b) =
          List.exists (fun (lo, hi) -> lo <= a && b <= hi) ranged
        in
        let intervals =
          List.filter covered (elementary cuts)
          |> List.map (fun (a, b) ->
                 let subset =
                   List.filter
                     (fun e ->
                       match bounds_of e with
                       | None -> true  (* wildcard: reachable everywhere *)
                       | Some (lo, hi) -> lo <= a && b <= hi)
                     es
                 in
                 (a, b, build (level + 1) subset))
          |> Array.of_list
        in
        let pwild =
          if wilds = [] then None else Some (build (level + 1) wilds)
        in
        Ports { p_level = level; intervals; pwild }
      | _ -> assert false
  in
  t.root <- build 0 all;
  t.memo <- memo

(* Compile-time accesses (engine inserts) must not leak into the data
   path's meter — cancel whatever the build charged. *)
let rebuild t =
  let (), charged = Rp_lpm.Access.measure (fun () -> rebuild_inner t) in
  if charged <> 0 then Rp_lpm.Access.charge (-charged);
  t.dirty <- false

let prepare t = if t.dirty then rebuild t

(* --- lookup ----------------------------------------------------------- *)

(* Charges mirror {!Dag.lookup} exactly — 2 up front for the BMP/hash
   function pointers, the engine's own charges plus 1 edge per address
   level, 1 probe plus 1 edge per port level, 1 edge per exact level —
   so one compiled traversal accounts like one per-gate walk.  As in
   {!Dag.walk}, the walk is top-level functions taking their state as
   arguments, an exact level uses [Hashtbl.find], and a leaf returns
   the [Some w] it was built with, so a lookup allocates nothing. *)
let rec walk key node =
  match node with
  | Leaf l ->
    Rp_obs.Counter.inc m_matches;
    l.found
  | Addr a -> (
      match a.a_matcher.lookup (Filter.addr_value key a.a_level) with
      | Some (_, child) -> edge key child
      | None -> None)
  | Ports p ->
    Rp_lpm.Access.charge 1;
    walk_ports key (Filter.port_value key p.p_level) p.intervals p.pwild 0
  | Exact e -> (
      match Hashtbl.find e.table (Filter.exact_value key e.x_level) with
      | child -> edge key child
      | exception Not_found -> walk_wild key e.xwild)

and edge key child =
  Rp_lpm.Access.charge 1;
  walk key child

(* Follow the interval holding [v], else the wildcard edge. *)
and walk_ports key v intervals pwild i =
  if i >= Array.length intervals then walk_wild key pwild
  else
    let a, b, c = intervals.(i) in
    if v < a then walk_wild key pwild
    else if v <= b then edge key c
    else walk_ports key v intervals pwild (i + 1)

and walk_wild key = function Some child -> edge key child | None -> None

let lookup t key =
  if t.dirty then rebuild t;
  Rp_obs.Counter.inc m_lookups;
  Rp_lpm.Access.charge 2;
  walk key t.root
