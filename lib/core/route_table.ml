open Rp_pkt

type route = {
  prefix : Prefix.t;
  next_hop : Ipaddr.t option;
  iface : int;
  metric : int;
}

module P = Rp_lpm.Patricia

type t = {
  m : route option P.t;
      (* each prefix bound to its route's [Some r], built once by
         [add], so a lookup hands back the block the trie stored *)
  mutable stamp : int;
  mutable held : bool;  (* see [hold] *)
  c_cache_hits : Rp_obs.Counter.pending;
}

(* Stamps are unique across the process, so a flow record's cached
   route matches only the very table state it was read from — never a
   shard's rebuilt table, nor another router's.  0 is never a stamp: a
   fresh record's cache reads as empty. *)
let stamps = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add stamps 1 + 1

let m_lookups = Rp_obs.Registry.counter "route_table.lookups"
let m_misses = Rp_obs.Registry.counter "route_table.misses"
let m_cache_hits = Rp_obs.Registry.counter "route_table.cache_hits"

let create () =
  {
    m = P.create ();
    stamp = fresh_stamp ();
    held = false;
    c_cache_hits = Rp_obs.Counter.pending m_cache_hits;
  }

let hold t = t.held <- true

let release t =
  t.held <- false;
  Rp_obs.Counter.settle t.c_cache_hits

let add t route =
  match P.find_exact t.m route.prefix with
  | Some (Some existing) when existing.metric < route.metric -> ()
  | Some _ | None ->
    P.insert t.m route.prefix (Some route);
    t.stamp <- fresh_stamp ()

let remove t prefix =
  P.remove t.m prefix;
  t.stamp <- fresh_stamp ()

let lookup t dst =
  Rp_obs.Counter.inc m_lookups;
  match P.lookup t.m dst with
  | Some (_, found) -> found
  | None ->
    Rp_obs.Counter.inc m_misses;
    None

module Ft = Rp_classifier.Flow_table

(* [Some i] for the first 64 interfaces, shared by every packet and
   every cached route. *)
let some_iface = Array.init 64 Option.some
let out_iface i =
  if i >= 0 && i < Array.length some_iface then some_iface.(i) else Some i

(* A hit reuses what the flow's first walk stored, and a walk returns
   the [Some r] built at [add] and stores addresses it already holds
   (the gateway, or the packet's own destination when directly
   connected), so neither allocates. *)
let resolve t flows (m : Mbuf.t) =
  let out = Ft.cached_route flows m ~stamp:t.stamp in
  if out >= 0 then begin
    Rp_obs.Counter.note t.c_cache_hits 1;
    if not t.held then Rp_obs.Counter.settle t.c_cache_hits;
    out
  end
  else
    let dst = m.Mbuf.key.Flow_key.dst in
    match lookup t dst with
    | None -> -1
    | Some r ->
      m.Mbuf.out_iface <- out_iface r.iface;
      m.Mbuf.next_hop <- (match r.next_hop with Some nh -> nh | None -> dst);
      Ft.cache_route flows m ~stamp:t.stamp;
      r.iface

let stamp t = t.stamp
let length t = P.length t.m
let iter f t = P.iter (fun _ r -> Option.iter f r) t.m

let pp_route ppf r =
  Format.fprintf ppf "%a -> %s dev if%d metric %d" Prefix.pp r.prefix
    (match r.next_hop with None -> "direct" | Some a -> Ipaddr.to_string a)
    r.iface r.metric
