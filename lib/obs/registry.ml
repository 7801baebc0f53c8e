type source =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

let tbl : (string, source) Hashtbl.t = Hashtbl.create 256

(* The table itself is control-path state (registration, dumps); the
   hot path only increments already-created counters.  A lock keeps
   concurrent registration — e.g. a shard registering its meters while
   the main domain dumps — from corrupting the hashtable. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find name = locked (fun () -> Hashtbl.find_opt tbl name)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (Counter c) -> c
      | Some _ -> invalid_arg ("Registry.counter: " ^ name ^ " is not a counter")
      | None ->
        let c = Counter.make name in
        Hashtbl.replace tbl name (Counter c);
        c)

let histogram ?bounds name =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (Histogram h) -> h
      | Some _ ->
        invalid_arg ("Registry.histogram: " ^ name ^ " is not a histogram")
      | None ->
        let h = Histogram.make ?bounds name in
        Hashtbl.replace tbl name (Histogram h);
        h)

(* Gauges are replaced, not get-or-created: a re-created scheduler
   instance re-registers its depth gauge under the same name and the
   stale closure (and the state it captures) is dropped. *)
let gauge name read =
  locked (fun () -> Hashtbl.replace tbl name (Gauge (Gauge.make name read)))

let set name v =
  locked (fun () -> Hashtbl.replace tbl name (Gauge (Gauge.constant name v)))

let remove name = locked (fun () -> Hashtbl.remove tbl name)

let matches pattern name =
  match pattern with
  | None -> true
  | Some p ->
    let np = String.length p and nn = String.length name in
    let rec at i = i + np <= nn && (String.sub name i np = p || at (i + 1)) in
    np = 0 || at 0

let names_unlocked ?pattern () =
  Hashtbl.fold
    (fun n _ acc -> if matches pattern n then n :: acc else acc)
    tbl []
  |> List.sort String.compare

let sources_unlocked ?pattern () =
  List.filter_map (fun n -> Hashtbl.find_opt tbl n) (names_unlocked ?pattern ())

let names ?pattern () = locked (fun () -> names_unlocked ?pattern ())

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ s ->
          match s with
          | Counter c -> Counter.reset c
          | Histogram h -> Histogram.reset h
          | Gauge _ -> ())
        tbl)

(* --- rendering ------------------------------------------------------ *)

(* JSON has no NaN/inf; a broken gauge reads as 0 rather than
   invalidating the whole dump. *)
let float_str v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Dumps render while HOLDING the registry lock: [reset] takes the
   same lock, so a dump never interleaves with a reset half-way
   through the table and reports some metrics zeroed and others not.
   (Individual counter reads racing data-path increments remain
   momentary snapshots — that is fine; partially-applied *resets* were
   the bug.)  Gauge callbacks therefore must not call back into the
   registry. *)
let dump ?pattern () =
  locked (fun () ->
      let b = Buffer.create 1024 in
      List.iter
        (fun s ->
          match s with
          | Counter c -> Buffer.add_string b
              (Printf.sprintf "%s %d\n" (Counter.name c) (Counter.get c))
          | Gauge g -> Buffer.add_string b
              (Printf.sprintf "%s %s\n" (Gauge.name g)
                 (float_str (Gauge.read g)))
          | Histogram h ->
            Buffer.add_string b
              (Printf.sprintf "%s count=%d sum=%d" (Histogram.name h)
                 (Histogram.total h) (Histogram.sum h));
            let bounds = Histogram.bounds h and counts = Histogram.counts h in
            Array.iteri
              (fun i c ->
                let label =
                  if i < Array.length bounds then string_of_int bounds.(i)
                  else "+inf"
                in
                Buffer.add_string b (Printf.sprintf " le%s=%d" label c))
              counts;
            Buffer.add_char b '\n')
        (sources_unlocked ?pattern ());
      Buffer.contents b)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integer version for downstream consumers to switch on; the
   human-readable "schema" string stays in step.  v2 added
   [schema_version] itself and histogram p50/p90/p99 quantiles; v3
   adds the p999 tail quantile to every histogram entry (for the
   latency SLO families) alongside the drops.* and health.* metric
   families; v4 removes the per-shard gate and verdict families and
   the sampled per-gate and per-packet telemetry histograms — gate.*
   and ip_core.* now count every domain. *)
let schema_version = 4

(* One metric per line, keys sorted: dumps diff cleanly and grep
   finds a metric.  Rendered under the registry lock — see [dump]. *)
let dump_json ?pattern () =
  locked (fun () ->
      let b = Buffer.create 4096 in
      Buffer.add_string b
        (Printf.sprintf
           "{\n  \"schema\": \"rp-metrics/%d\",\n  \"schema_version\": %d,\n\
           \  \"metrics\": {\n"
           schema_version schema_version);
      let srcs = sources_unlocked ?pattern () in
      let n = List.length srcs in
      List.iteri
        (fun i s ->
          let key name = Printf.sprintf "    \"%s\": " (json_escape name) in
          (match s with
           | Counter c ->
             Buffer.add_string b (key (Counter.name c));
             Buffer.add_string b (string_of_int (Counter.get c))
           | Gauge g ->
             Buffer.add_string b (key (Gauge.name g));
             Buffer.add_string b (float_str (Gauge.read g))
           | Histogram h ->
             Buffer.add_string b (key (Histogram.name h));
             Buffer.add_string b
               (Printf.sprintf
                  "{\"count\": %d, \"sum\": %d, \"p50\": %s, \"p90\": %s, \
                   \"p99\": %s, \"p999\": %s, \"buckets\": {"
                  (Histogram.total h) (Histogram.sum h)
                  (float_str (Histogram.quantile h 0.50))
                  (float_str (Histogram.quantile h 0.90))
                  (float_str (Histogram.quantile h 0.99))
                  (float_str (Histogram.quantile h 0.999)));
             let bounds = Histogram.bounds h and counts = Histogram.counts h in
             Array.iteri
               (fun j c ->
                 let label =
                   if j < Array.length bounds then string_of_int bounds.(j)
                   else "+inf"
                 in
                 if j > 0 then Buffer.add_string b ", ";
                 Buffer.add_string b (Printf.sprintf "\"%s\": %d" label c))
               counts;
             Buffer.add_string b "}}");
          Buffer.add_string b (if i < n - 1 then ",\n" else "\n"))
        srcs;
      Buffer.add_string b "  }\n}\n";
      Buffer.contents b)

let write_json ?pattern path =
  let oc = open_out path in
  output_string oc (dump_json ?pattern ());
  close_out oc
