open Rp_pkt

(* Control-path mutation events, published to an optional listener so
   a snapshot publisher (the multicore engine) can log them as deltas
   instead of re-reading the whole AIU. *)
type 'a event =
  | Bound of int * Filter.t * 'a
  | Unbound of int * Filter.t
  | Flushed

type mode =
  [ `Per_gate  (** cold start walks every gate's DAG — the paper's n
                   filter-table lookups *)
  | `Compiled  (** cold start takes one {!Compiled} traversal *) ]

type 'a t = {
  n_gates : int;
  tables : 'a Dag.t array;
  compiled : 'a Compiled.t;
  flows : 'a Flow_table.t;
  mutable mode : mode;
  mutable listener : ('a event -> unit) option;
  mutable held : bool;  (* see [hold] *)
  c_fix_hits : Rp_obs.Counter.pending;
}

let m_full_walks = Rp_obs.Registry.counter "aiu.full_walks"
let m_miss_accesses = Rp_obs.Registry.counter "aiu.miss_accesses"
let m_compiled_walks = Rp_obs.Registry.counter "aiu.compiled_walks"
let m_fix_hits = Rp_obs.Registry.counter "aiu.fix_hits"
let m_fix_stale = Rp_obs.Registry.counter "aiu.fix_stale"
let m_invalidated = Rp_obs.Registry.counter "aiu.invalidated"
let m_gate_bumps = Rp_obs.Registry.counter "aiu.gate_bumps"
let m_revalidations = Rp_obs.Registry.counter "aiu.revalidations"

let create ?max_records ?on_evict ~gates () =
  if gates <= 0 then invalid_arg "Aiu.create: gates";
  {
    n_gates = gates;
    tables = Array.init gates (fun _ -> Dag.create ());
    compiled = Compiled.create ~gates ();
    flows = Flow_table.create ?max_records ?on_evict ~gates ();
    mode = `Per_gate;
    listener = None;
    held = false;
    c_fix_hits = Rp_obs.Counter.pending m_fix_hits;
  }

let gates t = t.n_gates
let mode t = t.mode

let mode_to_string = function
  | `Per_gate -> "pergate"
  | `Compiled -> "compiled"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "pergate" | "per-gate" | "per_gate" -> Ok `Per_gate
  | "compiled" -> Ok `Compiled
  | s -> Error (Printf.sprintf "unknown classifier mode %S (compiled | pergate)" s)

let set_mode t m =
  t.mode <- m;
  (* Entering compiled mode after churn: compile now, outside any
     measured data-path window. *)
  if m = `Compiled then Compiled.prepare t.compiled

let compiled t = t.compiled
let set_listener t fn = t.listener <- Some fn
let clear_listener t = t.listener <- None
let notify t ev = match t.listener with Some fn -> fn ev | None -> ()

let check_gate t gate =
  if gate < 0 || gate >= t.n_gates then invalid_arg "Aiu: gate out of range"

(* Selective invalidation: a filter change at one gate only concerns
   flows the filter could match, so instead of flushing the whole flow
   cache (which costs every unrelated flow its FIX fast path) evict
   exactly the matching records.  A filter with both addresses
   wildcarded can match almost anything — for those, bump the gate's
   generation in O(1) and let the data path revalidate cached bindings
   lazily, one DAG lookup per touched flow. *)
let addr_wild (f : Filter.t) =
  f.Filter.src.Prefix.len = 0 && f.Filter.dst.Prefix.len = 0

let invalidate_for t ~gate f =
  if addr_wild f then begin
    Flow_table.bump_gate t.flows ~gate;
    Rp_obs.Counter.inc m_gate_bumps
  end
  else
    Rp_obs.Counter.add m_invalidated (Flow_table.invalidate t.flows f)

(* Both classifier representations are maintained on every mutation:
   the per-gate DAGs stay the source of truth (revalidation, delta
   replay and introspection read them in either mode), while the
   compiled union only marks itself dirty — it recompiles lazily, so a
   burst of control-plane churn costs one compile. *)
let bind t ~gate f v =
  check_gate t gate;
  Dag.insert t.tables.(gate) f v;
  Compiled.bind t.compiled ~gate f v;
  (* Cached instance pointers for flows this filter matches may now be
     stale. *)
  invalidate_for t ~gate f;
  notify t (Bound (gate, f, v))

let unbind t ~gate f =
  check_gate t gate;
  Dag.remove t.tables.(gate) f;
  Compiled.unbind t.compiled ~gate f;
  invalidate_for t ~gate f;
  notify t (Unbound (gate, f))

let filter_table t ~gate =
  check_gate t gate;
  t.tables.(gate)

let flow_table t = t.flows

(* A data-path frame holds the AIU and with it its flow table, so the
   per-packet counters settle once per frame. *)
let hold t =
  t.held <- true;
  Flow_table.hold t.flows

let release t =
  t.held <- false;
  Rp_obs.Counter.settle t.c_fix_hits;
  Flow_table.release t.flows

(* Uncached path: resolve every gate's binding once and cache the
   results in a fresh flow record.  Per-gate mode consults each gate's
   filter table (the paper's n lookups for n gates); compiled mode
   takes one {!Compiled} traversal whose leaf carries the full
   instance vector.  [aiu.miss_accesses] meters exactly this
   resolution cost, so cold-start accesses per walk are directly
   comparable across modes. *)
let classify_miss t key ~now =
  Rp_obs.Counter.inc m_full_walks;
  let record = Flow_table.insert t.flows key ~now in
  let accesses = Rp_lpm.Access.meter () in
  let a0 = !accesses in
  (match t.mode with
   | `Compiled -> (
     Rp_obs.Counter.inc m_compiled_walks;
     match Compiled.lookup t.compiled key with
     | Some winners ->
       for g = 0 to t.n_gates - 1 do
         match winners.(g) with
         | Some (filter, v) ->
           Flow_table.set_binding t.flows record ~gate:g ~filter v
         | None -> ()
       done
     | None -> ())
   | `Per_gate ->
     for g = 0 to t.n_gates - 1 do
       let table = t.tables.(g) in
       (* A gate no filter was ever bound at: its walk's only cost is
          the 2 function-pointer accesses, charged without it. *)
       if Dag.pristine table then Rp_lpm.Access.charge 2
       else
         match Dag.lookup table key with
         | Some (filter, v) ->
           Flow_table.set_binding t.flows record ~gate:g ~filter v
         | None -> ()
     done);
  Rp_obs.Counter.add m_miss_accesses (!accesses - a0);
  record

(* Lazy revalidation after a gate-generation bump: re-resolve this
   record's binding at [gate] with one DAG lookup, then re-stamp it.
   Only runs for flows actually touched after a wildcard filter
   change; steady-state traffic never reaches it.  The lookup runs on
   [key], the packet's, when it is the record's; only a packet a
   plugin rewrote after an earlier gate classified it rebuilds the
   record's key. *)
let revalidate t record key ~gate =
  if Flow_table.gate_stale t.flows record ~gate then begin
    Flow_table.clear_binding t.flows record ~gate;
    let key = if Flow_table.has_key record key then key else Flow_table.key record in
    (match Dag.lookup t.tables.(gate) key with
     | Some (filter, v) -> Flow_table.set_binding t.flows record ~gate ~filter v
     | None -> ());
    Flow_table.revalidated t.flows record ~gate;
    Rp_obs.Counter.inc m_revalidations
  end

let find_or_insert t key ~now =
  let slot = Flow_table.find t.flows key ~now in
  if slot >= 0 then Flow_table.record_at t.flows slot else classify_miss t key ~now

let classify_key t key ~gate ~now =
  check_gate t gate;
  let record = find_or_insert t key ~now in
  revalidate t record key ~gate;
  match Flow_table.binding record ~gate with
  | Some b -> Some (b.Flow_table.instance, record)
  | None -> None

let classify t mbuf ~gate ~now =
  check_gate t gate;
  let fix = mbuf.Mbuf.fix in
  let slot = Flow_table.fix_slot t.flows fix in
  let record =
    if slot >= 0 then begin
      Rp_obs.Counter.note t.c_fix_hits 1;
      if not t.held then Rp_obs.Counter.settle t.c_fix_hits;
      Flow_table.record_at t.flows slot
    end
    else begin
      (* No FIX, or a stale one (row recycled): reclassify. *)
      if fix >= 0 then Rp_obs.Counter.inc m_fix_stale;
      let r = find_or_insert t mbuf.Mbuf.key ~now in
      mbuf.Mbuf.fix <- Flow_table.fix_of_record r;
      r
    end
  in
  revalidate t record mbuf.Mbuf.key ~gate;
  record

let flush_flows t =
  Flow_table.flush t.flows;
  notify t Flushed
let expire_flows t ~now ~idle_ns = Flow_table.expire t.flows ~now ~idle_ns
