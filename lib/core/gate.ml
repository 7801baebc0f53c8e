type t =
  | Ip_options
  | Security_in
  | Firewall
  | Routing
  | Congestion
  | Security_out
  | Scheduling
  | Stats

let all =
  [ Ip_options; Security_in; Firewall; Routing; Congestion; Security_out;
    Scheduling; Stats ]

let count = List.length all

let to_int = function
  | Ip_options -> 0
  | Security_in -> 1
  | Firewall -> 2
  | Routing -> 3
  | Congestion -> 4
  | Security_out -> 5
  | Scheduling -> 6
  | Stats -> 7

let of_int = function
  | 0 -> Some Ip_options
  | 1 -> Some Security_in
  | 2 -> Some Firewall
  | 3 -> Some Routing
  | 4 -> Some Congestion
  | 5 -> Some Security_out
  | 6 -> Some Scheduling
  | 7 -> Some Stats
  | _ -> None

let name = function
  | Ip_options -> "ip-options"
  | Security_in -> "security-in"
  | Firewall -> "firewall"
  | Routing -> "routing"
  | Congestion -> "congestion"
  | Security_out -> "security-out"
  | Scheduling -> "scheduling"
  | Stats -> "stats"

let of_name s =
  List.find_opt (fun g -> name g = s) all

let pp ppf g = Format.pp_print_string ppf (name g)
let equal a b = to_int a = to_int b

(* Per-gate data-path meters, indexed by [to_int]; created eagerly so
   a metrics dump always carries the full gate schema, zeros included.
   One process-wide set: every domain's context writes it, and counters
   are striped by domain, so an aggregate is one read. *)
let per_gate suffix =
  Array.of_list
    (List.map (fun g -> Rp_obs.Registry.counter ("gate." ^ name g ^ "." ^ suffix)) all)

let dispatch_c = per_gate "dispatch"
let cycles_c = per_gate "cycles"
let drops_c = per_gate "drops"
let faults_c = per_gate "faults"

let dispatch g = dispatch_c.(to_int g)
let cycles g = cycles_c.(to_int g)
let drops g = drops_c.(to_int g)
let faults g = faults_c.(to_int g)
