(* Free-list packet pool: every descriptor is allocated once, up
   front; the steady-state alloc/free cycle only moves indices and
   overwrites mutable fields, so a saturated data path runs without
   minor-heap allocation (verified by the qcheck Gc.minor_words
   test). *)

exception Empty

(* Distinguishes pools so a descriptor freed into the wrong pool is
   caught instead of corrupting a free list. *)
let next_uid = ref 0

type stats = {
  capacity : int;
  free : int;
  allocs : int;
  frees : int;
  exhausted : int;
  double_frees : int;
  foreign_frees : int;
}

type t = {
  uid : int;
  mbufs : Mbuf.t array;
  free_stack : int array;  (* slot indices; [0 .. top-1] are free *)
  is_free : bool array;
  mutable top : int;
  mutable allocs : int;
  mutable frees : int;
  mutable exhausted : int;
  mutable double_frees : int;
  mutable foreign_frees : int;
}

let dummy_key =
  Flow_key.make ~src:(Ipaddr.v4 0 0 0 0) ~dst:(Ipaddr.v4 0 0 0 0) ~proto:0
    ~sport:0 ~dport:0 ~iface:0

let create ~capacity () =
  if capacity < 1 then invalid_arg "Pool.create: capacity < 1";
  incr next_uid;
  let uid = !next_uid in
  let mbufs =
    Array.init capacity (fun slot ->
        let m = Mbuf.synth ~key:dummy_key ~len:0 () in
        m.Mbuf.pool_id <- uid;
        m.Mbuf.pool_slot <- slot;
        m)
  in
  {
    uid;
    mbufs;
    free_stack = Array.init capacity (fun i -> i);
    is_free = Array.make capacity true;
    top = capacity;
    allocs = 0;
    frees = 0;
    exhausted = 0;
    double_frees = 0;
    foreign_frees = 0;
  }

let capacity t = Array.length t.mbufs
let available t = t.top

let alloc t ~key ~len =
  if t.top = 0 then begin
    t.exhausted <- t.exhausted + 1;
    Rp_obs.Drop_reason.count Rp_obs.Drop_reason.Pool_exhausted;
    raise Empty
  end;
  t.top <- t.top - 1;
  let slot = t.free_stack.(t.top) in
  t.is_free.(slot) <- false;
  t.allocs <- t.allocs + 1;
  let m = t.mbufs.(slot) in
  m.Mbuf.key <- key;
  m.Mbuf.version <-
    (if Ipaddr.is_v4 key.Flow_key.src then Mbuf.V4 else Mbuf.V6);
  m.Mbuf.len <- len;
  m.Mbuf.ttl <- 64;
  m.Mbuf.tos <- 0;
  m.Mbuf.flow_label <- 0;
  m.Mbuf.options <- [];
  m.Mbuf.raw <- None;
  m.Mbuf.fix <- Mbuf.no_fix;
  m.Mbuf.out_iface <- None;
  m.Mbuf.next_hop <- Mbuf.no_hop;
  m.Mbuf.birth_ns <- 0L;
  m.Mbuf.seq <- 0;
  m.Mbuf.tags <- [];
  m.Mbuf.ident <- 0;
  m.Mbuf.dont_fragment <- false;
  m.Mbuf.frag <- None;
  m.Mbuf.tseq <- 0;
  m.Mbuf.tcp_flags <- 0;
  (* [gate_cycles] is deliberately untouched: the attribution array is
     cached per descriptor and re-zeroed at ingress when exemplar
     capture is armed, keeping alloc allocation-free. *)
  m.Mbuf.ingress_cycles <- 0;
  m

let free t m =
  if m.Mbuf.pool_id <> t.uid then begin
    (* Not ours (or never pooled): refuse rather than poison the free
       list; the counter makes the misuse observable. *)
    t.foreign_frees <- t.foreign_frees + 1
  end
  else begin
    let slot = m.Mbuf.pool_slot in
    if t.is_free.(slot) then t.double_frees <- t.double_frees + 1
    else begin
      t.is_free.(slot) <- true;
      t.free_stack.(t.top) <- slot;
      t.top <- t.top + 1;
      t.frees <- t.frees + 1
    end
  end

let stats t =
  {
    capacity = capacity t;
    free = t.top;
    allocs = t.allocs;
    frees = t.frees;
    exhausted = t.exhausted;
    double_frees = t.double_frees;
    foreign_frees = t.foreign_frees;
  }

(* Register a free-descriptor-percentage health probe for this pool;
   replacement by name means a re-created pool just takes over. *)
let watch t name =
  Rp_obs.Health.register
    (name ^ ".free_pct")
    (fun () -> 100. *. float_of_int t.top /. float_of_int (capacity t))
