(* Domain-local meter: each engine shard accounts its own lookup
   accesses; the single-domain case keeps the plain-ref cost.  The
   count and the enabled flag share one record, so a charge is one
   domain-local-storage read. *)
type state = { count : int ref; mutable enabled : bool }

let state = Domain.DLS.new_key (fun () -> { count = ref 0; enabled = true })

let[@inline] meter () = (Domain.DLS.get state).count

let charge n =
  let s = Domain.DLS.get state in
  if s.enabled then s.count := !(s.count) + n

let reset () = meter () := 0
let get () = !(meter ())

let measure f =
  let c = meter () in
  let before = !c in
  let result = f () in
  (result, !c - before)

let set_enabled b = (Domain.DLS.get state).enabled <- b
let is_enabled () = (Domain.DLS.get state).enabled

(* Dump-time view of the meter itself: zero hot-path cost, the gauge
   callback reads the dumping domain's counter only when a snapshot is
   taken (dumps run on the main/control domain). *)
let () =
  Rp_obs.Registry.gauge "lpm.access.total" (fun () -> float_of_int (get ()));
  Rp_obs.Registry.gauge "lpm.access.enabled" (fun () ->
      if is_enabled () then 1.0 else 0.0)
