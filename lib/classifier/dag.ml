open Rp_pkt

module Prefix_tbl = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal
  let hash = Prefix.hash
end)

module Filter_tbl = Hashtbl.Make (struct
  type t = Filter.t

  let equal = Filter.equal
  let hash = Filter.hash
end)

type 'a node = {
  level : int;
  (* Every filter inserted into this subtree; used to seed newly
     created sibling-subsuming edges (set pruning) and to copy
     subtrees when a port interval is split. *)
  mutable filters : (Filter.t * 'a) list;
  mutable kids : 'a kids;
  (* Wildcard-chain collapsing (paper, section 5.1.2): when this node's
     only edge is the wildcard — and so on transitively — [skip] jumps
     straight to the end of the chain, costing one access instead of
     one per level.  Set by {!optimize}; cleared by inserts. *)
  mutable skip : 'a node option;
}

and 'a kids =
  | Leaf of 'a leaf
  | Addr of 'a addr
  | Ports of 'a ports
  | Exact of 'a exact

and 'a leaf = { mutable best : (Filter.t * 'a) option }

(* An address level keeps two indexes over the same edges: the
   pluggable BMP engine (charged on the lookup path) and a PATRICIA
   used for the structural queries set-pruning insertion needs
   (ancestor labels for seeding, descendant labels for replication) in
   O(path + matches) instead of O(filters). *)
and 'a addr = {
  matcher : 'a node Rp_lpm.Engines.matcher;
  structure : 'a node Rp_lpm.Patricia.t;
  label_filters : (Filter.t * 'a) list ref Prefix_tbl.t;
      (** filters inserted at this node, grouped by their label *)
}

and 'a ports = {
  (* Disjoint, sorted by lower bound. *)
  mutable intervals : (int * int * 'a node) list;
  mutable wild : 'a node option;
  mutable pwild_filters : (Filter.t * 'a) list;
      (** filters with a wildcard port label at this node *)
}

and 'a exact = {
  table : (int, 'a node) Hashtbl.t;
  mutable ewild : 'a node option;
  mutable xwild_filters : (Filter.t * 'a) list;
}

type 'a t = {
  new_matcher : unit -> 'a node Rp_lpm.Engines.matcher;
  nodes : int ref;
  mutable root : 'a node;
  mutable installed : (Filter.t * 'a) list;
  installed_tbl : 'a Filter_tbl.t;  (** same contents, O(1) membership *)
  mutable pristine : bool;  (** no filter since [create] or [clear] *)
}

let n_levels = 6

(* Lookup-path meters, mirroring the Table-2 decomposition: per-level
   accesses spent inside each level's index structure, plus the edge
   follows between levels.  These observe the same [Access] meter the
   cost model reads; they never charge it. *)
let level_names = [| "src"; "dst"; "proto"; "sport"; "dport"; "iface" |]

let m_level_accesses =
  Array.init n_levels (fun i ->
      Rp_obs.Registry.counter ("dag.level." ^ level_names.(i) ^ ".accesses"))

let m_lookups = Rp_obs.Registry.counter "dag.lookups"
let m_matches = Rp_obs.Registry.counter "dag.matches"
let m_edges = Rp_obs.Registry.counter "dag.edge_accesses"
let m_skips = Rp_obs.Registry.counter "dag.skip_jumps"

let mk_node new_matcher nodes level =
  incr nodes;
  let kids =
    if level >= n_levels then Leaf { best = None }
    else
      match level with
      | 0 | 1 ->
        Addr
          {
            matcher = new_matcher ();
            structure = Rp_lpm.Patricia.create ();
            label_filters = Prefix_tbl.create 8;
          }
      | 2 | 5 -> Exact { table = Hashtbl.create 8; ewild = None; xwild_filters = [] }
      | 3 | 4 -> Ports { intervals = []; wild = None; pwild_filters = [] }
      | _ -> assert false
  in
  { level; filters = []; kids; skip = None }

let new_node t level = mk_node t.new_matcher t.nodes level

let create ?(engine = Rp_lpm.Engines.patricia) () =
  let nodes = ref 0 in
  let new_matcher = Rp_lpm.Engines.matcher engine in
  {
    new_matcher;
    nodes;
    root = mk_node new_matcher nodes 0;
    installed = [];
    installed_tbl = Filter_tbl.create 64;
    pristine = true;
  }

(* --- insertion (set pruning) --------------------------------------- *)

let more_specific (f : Filter.t) (g : Filter.t) = Filter.compare_specificity f g > 0

let rec insert_into t node ((f, _v) as fv) =
  node.filters <- fv :: node.filters;
  node.skip <- None;
  match node.kids with
  | Leaf l ->
    (match l.best with
     | Some (g, _) when not (more_specific f g) -> ()
     | Some _ | None -> l.best <- Some fv)
  | Addr a -> insert_addr t a node.level fv
  | Ports p -> insert_ports t p node.level fv
  | Exact e -> insert_exact t e node.level fv

and make_child t level seeds =
  let child = new_node t level in
  List.iter (fun gv -> insert_into t child gv) seeds;
  child

and insert_addr t a level ((f, _) as fv) =
  let lab = Filter.addr_label f level in
  let child =
    match a.matcher.find lab with
    | Some c -> c
    | None ->
      (* Seed the new edge with every filter whose label subsumes it:
         those filters must remain reachable when a lookup follows
         this more specific edge.  Candidate labels are exactly the
         ancestors of [lab] among existing edge labels. *)
      let seeds =
        Rp_lpm.Patricia.fold_ancestors a.structure lab
          (fun p _child acc ->
            match Prefix_tbl.find_opt a.label_filters p with
            | Some l -> List.rev_append !l acc
            | None -> acc)
          []
      in
      let c = make_child t (level + 1) seeds in
      a.matcher.insert lab c;
      Rp_lpm.Patricia.insert a.structure lab c;
      c
  in
  (match Prefix_tbl.find_opt a.label_filters lab with
   | Some l -> l := fv :: !l
   | None -> Prefix_tbl.add a.label_filters lab (ref [ fv ]));
  insert_into t child fv;
  (* Replicate into every strictly more specific existing edge
     (descendant labels of [lab]). *)
  Rp_lpm.Patricia.iter_subtree a.structure lab (fun p c ->
      if not (Prefix.equal p lab) then insert_into t c fv)

and insert_exact t e level ((f, _) as fv) =
  match Filter.exact_label f level with
  | Filter.Any_num ->
    let child =
      match e.ewild with
      | Some c -> c
      | None ->
        let c = make_child t (level + 1) (List.rev e.xwild_filters) in
        e.ewild <- Some c;
        c
    in
    e.xwild_filters <- fv :: e.xwild_filters;
    insert_into t child fv;
    Hashtbl.iter (fun _ c -> insert_into t c fv) e.table
  | Filter.Num n ->
    let child =
      match Hashtbl.find_opt e.table n with
      | Some c -> c
      | None ->
        (* Only wildcard labels subsume an exact label. *)
        let c = make_child t (level + 1) (List.rev e.xwild_filters) in
        Hashtbl.add e.table n c;
        c
    in
    insert_into t child fv

and insert_ports t p level ((f, _) as fv) =
  match Filter.port_label f level with
  | Filter.Any_port ->
    let child =
      match p.wild with
      | Some c -> c
      | None ->
        let c = make_child t (level + 1) (List.rev p.pwild_filters) in
        p.wild <- Some c;
        c
    in
    p.pwild_filters <- fv :: p.pwild_filters;
    insert_into t child fv;
    List.iter (fun (_, _, c) -> insert_into t c fv) p.intervals
  | Filter.Port q -> insert_port_range t p level fv q q
  | Filter.Port_range (lo, hi) -> insert_port_range t p level fv lo hi

(* Maintain the disjoint-interval decomposition: split any existing
   interval that partially overlaps [lo, hi] (copying its subtree into
   each piece), create elementary edges for the uncovered gaps (seeded
   from wildcard-port filters), then insert the filter into every
   interval inside [lo, hi]. *)
and insert_port_range t p level fv lo hi =
  (* Rebuild a subtree identical to [c] at the same level. *)
  let copy_subtree c =
    let fresh = new_node t c.level in
    List.iter (fun gv -> insert_into t fresh gv) (List.rev c.filters);
    fresh
  in
  let split =
    List.concat_map
      (fun (a, b, c) ->
        if b < lo || a > hi then [ (a, b, c) ]
        else begin
          (* Pieces strictly before, inside, and after [lo, hi]. *)
          let pieces = ref [] in
          if a < lo then pieces := (a, lo - 1) :: !pieces;
          pieces := (max a lo, min b hi) :: !pieces;
          if b > hi then pieces := (hi + 1, b) :: !pieces;
          match List.rev !pieces with
          | [ _ ] -> [ (a, b, c) ]  (* fully inside: no split needed *)
          | first :: rest ->
            (fst first, snd first, c)
            :: List.map (fun (x, y) -> (x, y, copy_subtree c)) rest
          | [] -> assert false
        end)
      p.intervals
  in
  let split = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) split in
  (* Gaps of [lo, hi] not covered by existing intervals; only
     wildcard-port filters can subsume a fresh elementary interval
     (previously inserted ranges are unions of existing intervals). *)
  let wild_seeds () = List.rev p.pwild_filters in
  let gaps = ref [] in
  let cursor = ref lo in
  List.iter
    (fun (a, b, _) ->
      if a > hi || b < lo then ()
      else begin
        if a > !cursor then gaps := (!cursor, a - 1) :: !gaps;
        cursor := max !cursor (b + 1)
      end)
    split;
  if !cursor <= hi then gaps := (!cursor, hi) :: !gaps;
  let new_edges =
    List.map (fun (a, b) -> (a, b, make_child t (level + 1) (wild_seeds ()))) !gaps
  in
  let intervals =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (split @ new_edges)
  in
  p.intervals <- intervals;
  List.iter
    (fun (a, b, c) -> if a >= lo && b <= hi then insert_into t c fv)
    intervals

let insert t f v =
  t.pristine <- false;
  let already = Filter_tbl.mem t.installed_tbl f in
  Filter_tbl.replace t.installed_tbl f v;
  if already then begin
    (* Replacing a binding: rebuild from scratch (rare control-path
       operation). *)
    t.installed <-
      (f, v) :: List.filter (fun (g, _) -> not (Filter.equal f g)) t.installed;
    t.nodes := 0;
    t.root <- new_node t 0;
    List.iter (fun fv -> insert_into t t.root fv) (List.rev t.installed)
  end
  else begin
    t.installed <- (f, v) :: t.installed;
    insert_into t t.root (f, v)
  end

(* --- removal (incremental) ------------------------------------------ *)

(* Size of a detached subtree, so pruning keeps [node_count] honest. *)
let rec subtree_nodes node =
  1
  + (match node.kids with
     | Leaf _ -> 0
     | Addr a ->
       let n = ref 0 in
       a.matcher.iter (fun _ c -> n := !n + subtree_nodes c);
       !n
     | Ports p ->
       List.fold_left
         (fun acc (_, _, c) -> acc + subtree_nodes c)
         (match p.wild with Some c -> subtree_nodes c | None -> 0)
         p.intervals
     | Exact e ->
       Hashtbl.fold
         (fun _ c acc -> acc + subtree_nodes c)
         e.table
         (match e.ewild with Some c -> subtree_nodes c | None -> 0))

let prune t node = t.nodes := !(t.nodes) - subtree_nodes node
let node_empty node = node.filters = []
let drop_filter f l = List.filter (fun (g, _) -> not (Filter.equal f g)) l

(* Remove [f] everywhere it was inserted or seeded under [node],
   restoring the structure a fresh build without [f] would produce:
   the filter leaves every per-node list ([filters], the leaf [best],
   the [label_filters]/[xwild_filters]/[pwild_filters] seed lists so it
   cannot resurrect in children created by later inserts), emptied
   port intervals and exact edges are pruned (an empty interval would
   shadow the port wildcard), and memoized [skip] chains along the
   path are cleared because they may point into a pruned subtree. *)
let rec remove_from t node f =
  node.filters <- drop_filter f node.filters;
  node.skip <- None;
  match node.kids with
  | Leaf l ->
    (* Replay the insert-time best-so-far fold over the survivors in
       arrival order. *)
    l.best <-
      List.fold_left
        (fun acc ((g, _) as gv) ->
          match acc with
          | Some (h, _) when not (more_specific g h) -> acc
          | Some _ | None -> Some gv)
        None
        (List.rev node.filters)
  | Addr a -> remove_addr t a node.level f
  | Ports p -> remove_ports t p node.level f
  | Exact e -> remove_exact t e node.level f

and remove_addr t a level f =
  let lab = Filter.addr_label f level in
  (match Prefix_tbl.find_opt a.label_filters lab with
   | Some l ->
     l := drop_filter f !l;
     if !l = [] then Prefix_tbl.remove a.label_filters lab
   | None -> ());
  (* [f] lives in the edge labelled [lab] and in every strictly more
     specific edge it was replicated into — exactly subtree(lab).
     Address edges themselves are not pruned (BMP engines have no
     delete); an emptied edge is behaviourally equivalent to an absent
     one because any shorter matching edge's filters were replicated
     into it, so both resolve to the same (empty) answer. *)
  Rp_lpm.Patricia.iter_subtree a.structure lab (fun _ c -> remove_from t c f)

and remove_exact t e level f =
  match Filter.exact_label f level with
  | Filter.Any_num ->
    e.xwild_filters <- drop_filter f e.xwild_filters;
    (match e.ewild with
     | Some c ->
       remove_from t c f;
       if node_empty c then begin
         e.ewild <- None;
         prune t c
       end
     | None -> ());
    let dead = ref [] in
    Hashtbl.iter
      (fun n c ->
        remove_from t c f;
        if node_empty c then dead := (n, c) :: !dead)
      e.table;
    List.iter
      (fun (n, c) ->
        Hashtbl.remove e.table n;
        prune t c)
      !dead
  | Filter.Num n ->
    (match Hashtbl.find_opt e.table n with
     | Some c ->
       remove_from t c f;
       if node_empty c then begin
         Hashtbl.remove e.table n;
         prune t c
       end
     | None -> ())

and remove_ports t p level f =
  (* Visit the intervals [sel] covers and drop the ones this removal
     empties: a surviving empty interval would shadow [p.wild]. *)
  let sweep sel =
    p.intervals <-
      List.filter
        (fun (a, b, c) ->
          if sel a b then begin
            remove_from t c f;
            if node_empty c then begin
              prune t c;
              false
            end
            else true
          end
          else true)
        p.intervals
  in
  match Filter.port_label f level with
  | Filter.Any_port ->
    p.pwild_filters <- drop_filter f p.pwild_filters;
    (match p.wild with
     | Some c ->
       remove_from t c f;
       if node_empty c then begin
         p.wild <- None;
         prune t c
       end
     | None -> ());
    sweep (fun _ _ -> true)
  | Filter.Port q -> sweep (fun a b -> a >= q && b <= q)
  | Filter.Port_range (lo, hi) ->
    (* Insertion placed [f] into every elementary interval inside
       [lo, hi]; later splits only subdivide those, never widen them. *)
    sweep (fun a b -> a >= lo && b <= hi)

let remove t f =
  if Filter_tbl.mem t.installed_tbl f then begin
    Filter_tbl.remove t.installed_tbl f;
    t.installed <- drop_filter f t.installed;
    remove_from t t.root f
  end

let clear t =
  Filter_tbl.reset t.installed_tbl;
  t.installed <- [];
  t.nodes := 0;
  t.root <- new_node t 0;
  t.pristine <- true

(* --- lookup --------------------------------------------------------- *)

(* Collapse wildcard-only chains: a Ports/Exact node whose only edge
   is the wildcard forwards every packet to the same child, so chains
   of such nodes can be jumped in one access.  (Address levels are not
   collapsed: a lone v4 wildcard edge must still reject v6 packets.) *)
let optimize t =
  let rec visit node =
    (match node.kids with
     | Leaf _ -> ()
     | Addr a -> a.matcher.iter (fun _ c -> visit c)
     | Ports p ->
       List.iter (fun (_, _, c) -> visit c) p.intervals;
       Option.iter visit p.wild
     | Exact e ->
       Hashtbl.iter (fun _ c -> visit c) e.table;
       Option.iter visit e.ewild);
    node.skip <-
      (match node.kids with
       | Ports { intervals = []; wild = Some c; _ } ->
         Some (Option.value c.skip ~default:c)
       | Exact { table; ewild = Some c; _ } when Hashtbl.length table = 0 ->
         Some (Option.value c.skip ~default:c)
       | Leaf _ | Addr _ | Ports _ | Exact _ -> None)
  in
  visit t.root

(* With PATRICIA at the address levels the walk allocates nothing:
   the engine returns the result each edge built when it was inserted,
   and a leaf returns its stored best.  Every function takes its state
   as arguments: a nested [let rec] over [key] would be a closure
   allocated per lookup, and so would [Access.measure]'s thunk and
   result pair, so an address level reads the domain's access cell
   directly.  An exact level finds its child with [Hashtbl.find]
   rather than [find_opt], whose [Some] would be one more block per
   level. *)
let rec walk key node =
  match node.skip with
  | Some target ->
    Rp_lpm.Access.charge 1;
    Rp_obs.Counter.inc m_skips;
    Rp_obs.Counter.inc m_edges;
    walk_kids key target
  | None -> walk_kids key node

(* Follow one edge to [child]. *)
and edge key child =
  Rp_lpm.Access.charge 1;
  Rp_obs.Counter.inc m_edges;
  walk key child

and walk_kids key node =
  match node.kids with
  | Leaf l ->
    (match l.best with
     | Some _ as best ->
       Rp_obs.Counter.inc m_matches;
       best
     | None -> None)
  | Addr a ->
    let accesses = Rp_lpm.Access.meter () in
    let before = !accesses in
    let result = a.matcher.lookup (Filter.addr_value key node.level) in
    Rp_obs.Counter.add m_level_accesses.(node.level) (!accesses - before);
    (match result with Some (_, child) -> edge key child | None -> None)
  | Ports p ->
    Rp_lpm.Access.charge 1;
    Rp_obs.Counter.inc m_level_accesses.(node.level);
    walk_ports key (Filter.port_value key node.level) p.wild p.intervals
  | Exact e ->
    (match Hashtbl.find e.table (Filter.exact_value key node.level) with
     | child -> edge key child
     | exception Not_found -> walk_wild key e.ewild)

(* Follow the interval holding [v], else the wildcard edge. *)
and walk_ports key v wild = function
  | [] -> walk_wild key wild
  | (a, b, c) :: rest ->
    if v < a then walk_wild key wild
    else if v <= b then edge key c
    else walk_ports key v wild rest

and walk_wild key = function Some child -> edge key child | None -> None

let lookup t key =
  Rp_obs.Counter.inc m_lookups;
  (* Function-pointer fetches for the BMP and index-hash functions
     (Table 2, rows 1-2). *)
  Rp_lpm.Access.charge 2;
  walk key t.root

let find t f = Filter_tbl.find_opt t.installed_tbl f

let length t = List.length t.installed
let iter f t = List.iter (fun (flt, v) -> f flt v) t.installed
let node_count t = !(t.nodes)
let pristine t = t.pristine
