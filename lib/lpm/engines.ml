(** Registry of the available BMP engines, as first-class modules.

    The classifier's address levels select an engine by name — this is
    how the paper's "best-matching prefix plugins" are swapped without
    touching the DAG code. *)

open Rp_pkt

type t = (module Lpm_intf.S)

let linear : t = (module Linear)
let patricia : t = (module Patricia)
let bspl : t = (module Bspl)
let cpe : t = (module Cpe)

let all = [ ("linear", linear); ("patricia", patricia); ("bspl", bspl); ("cpe", cpe) ]

let find name = List.assoc_opt name all

let names = List.map fst all

(** One engine instance behind closures; each address-level node of
    the classifiers ([Dag], [Compiled]) holds one. *)
type 'a matcher = {
  insert : Prefix.t -> 'a -> unit;
  find : Prefix.t -> 'a option;
  lookup : Ipaddr.t -> (Prefix.t * 'a) option;
  iter : (Prefix.t -> 'a -> unit) -> unit;
}

(* The engine's type parameter is fixed when the closures are made, so
   a runtime-selected engine can hold values of any type.  Every lookup
   counts once in [lpm.<engine>.lookups], and the [Access] charges it
   makes go to [lpm.<engine>.accesses]; both meters are resolved once
   per engine, not per instance. *)
let matcher ((module E : Lpm_intf.S) : t) =
  let m_lookups = Rp_obs.Registry.counter ("lpm." ^ E.name ^ ".lookups") in
  let m_accesses = Rp_obs.Registry.counter ("lpm." ^ E.name ^ ".accesses") in
  fun () ->
    let t = E.create () in
    {
      insert = (fun p v -> E.insert t p v);
      find = (fun p -> E.find_exact t p);
      lookup =
        (fun a ->
          Rp_obs.Counter.inc m_lookups;
          let accesses = Access.meter () in
          let a0 = !accesses in
          let r = E.lookup t a in
          Rp_obs.Counter.add m_accesses (!accesses - a0);
          r);
      iter = (fun f -> E.iter f t);
    }
