open Rp_pkt

type flow_stats = {
  mutable packets : int;
  mutable bytes : int;
  mutable first_ns : int64;
  mutable last_ns : int64;
  mutable latency_sum_ns : int64;
  mutable latency_max_ns : int64;
}

module FK = Flow_key.Table

type t = {
  sink_name : string;
  table : flow_stats FK.t;
  mutable packets : int;
}

let create ?(name = "sink") () =
  { sink_name = name; table = FK.create 64; packets = 0 }

let name t = t.sink_name

(* Statistics are keyed by the originating flow regardless of ingress
   interface, so a flow is identified the same way at every hop. *)
let normalize key = { key with Flow_key.iface = 0 }

let receive t ~now m =
  t.packets <- t.packets + 1;
  let key = normalize m.Mbuf.key in
  let fs =
    match FK.find_opt t.table key with
    | Some fs -> fs
    | None ->
      let fs =
        {
          packets = 0;
          bytes = 0;
          first_ns = now;
          last_ns = now;
          latency_sum_ns = 0L;
          latency_max_ns = 0L;
        }
      in
      FK.add t.table key fs;
      fs
  in
  fs.packets <- fs.packets + 1;
  fs.bytes <- fs.bytes + m.Mbuf.len;
  fs.last_ns <- now;
  let lat = Int64.sub now m.Mbuf.birth_ns in
  fs.latency_sum_ns <- Int64.add fs.latency_sum_ns lat;
  if lat > fs.latency_max_ns then fs.latency_max_ns <- lat

let total_packets t = t.packets

let flow t key = FK.find_opt t.table (normalize key)

let flows t = FK.fold (fun k v acc -> (k, v) :: acc) t.table []

let latency (fs : flow_stats) =
  let mean =
    if fs.packets = 0 then 0.0
    else Int64.to_float fs.latency_sum_ns /. float_of_int fs.packets /. 1e9
  in
  (mean, Int64.to_float fs.latency_max_ns /. 1e9)

let goodput_bps (fs : flow_stats) =
  let dur = Int64.to_float (Int64.sub fs.last_ns fs.first_ns) /. 1e9 in
  if dur <= 0.0 then 0.0 else float_of_int (fs.bytes * 8) /. dur
