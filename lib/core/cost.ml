let cpu_mhz = 233.0

let mem_access = 14
let flow_hash = 17
let base_forward = 6460
let gate_invoke = 150
let monolithic_classifier = 250
let drr_enqueue = 750
let drr_dequeue = 700
let hfsc_enqueue = 1150
let hfsc_dequeue = 1100

(* Domain-local counter: each engine shard accounts its own model
   cycles without racing the others, and the single-domain case keeps
   the plain-ref cost (DLS lookup + ref bump, no atomics). *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

let[@inline] meter () = Domain.DLS.get counter

let charge n = let c = meter () in c := !c + n
let charge_mem n = let c = meter () in c := !c + (n * mem_access)
let reset () = meter () := 0
let get () = !(meter ())

let measure f =
  let c = meter () in
  let before = !c in
  let result = f () in
  (result, !c - before)

let ns_of_cycles c = float_of_int c *. 1000.0 /. cpu_mhz
let us_of_cycles c = ns_of_cycles c /. 1000.0
