open Rp_pkt
open Rp_core
open Rp_classifier

let ( let* ) r f = Result.bind r f

(* Tokenize a command line, keeping a <...> filter specification as a
   single token. *)
let tokenize line =
  let n = String.length line in
  let rec skip i = if i < n && line.[i] = ' ' then skip (i + 1) else i in
  let rec loop acc i =
    let i = skip i in
    if i >= n then Ok (List.rev acc)
    else if line.[i] = '<' then
      match String.index_from_opt line i '>' with
      | Some j -> loop (String.sub line i (j - i + 1) :: acc) (j + 1)
      | None -> Error "unterminated filter specification"
    else
      let j =
        match String.index_from_opt line i ' ' with Some j -> j | None -> n
      in
      loop (String.sub line i (j - i) :: acc) j
  in
  loop [] 0

let parse_filter tok =
  Result.map_error (fun e -> "bad filter: " ^ e) (Filter.of_string tok)

(* A fully specified filter (no wildcards) denotes a single flow. *)
let key_of_filter (f : Filter.t) =
  let addr_of p =
    if p.Prefix.len = Ipaddr.width p.Prefix.addr then Ok p.Prefix.addr
    else Error "filter field is not fully specified"
  in
  let* src = addr_of f.Filter.src in
  let* dst = addr_of f.Filter.dst in
  let* proto =
    match f.Filter.proto with
    | Filter.Num p -> Ok p
    | Filter.Any_num -> Error "protocol must be fully specified"
  in
  let port = function
    | Filter.Port p -> Ok p
    | Filter.Any_port | Filter.Port_range _ -> Error "port must be fully specified"
  in
  let* sport = port f.Filter.sport in
  let* dport = port f.Filter.dport in
  let* iface =
    match f.Filter.iface with
    | Filter.Num i -> Ok i
    | Filter.Any_num -> Error "interface must be fully specified"
  in
  Ok (Flow_key.make ~src ~dst ~proto ~sport ~dport ~iface)

let parse_config tokens =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> (tok, ""))
    tokens

let int_arg name s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: expected a number, got %S" name s)

let instance_arg router s =
  let* id = int_arg "instance" s in
  match Pcu.find_instance router.Router.pcu id with
  | Some inst -> Ok inst
  | None -> Error (Printf.sprintf "no instance %d" id)

let show router what =
  match what with
  | "plugins" ->
    Ok
      (String.concat "\n"
         (List.sort String.compare (Pcu.plugin_names router.Router.pcu)))
  | "instances" ->
    Ok
      (String.concat "\n"
         (List.map
            (fun (i : Plugin.t) ->
              Printf.sprintf "%d: %s@%s — %s" i.Plugin.instance_id
                i.Plugin.plugin_name (Gate.name i.Plugin.gate)
                (i.Plugin.describe ()))
            (List.sort
               (fun (a : Plugin.t) b -> compare a.Plugin.instance_id b.Plugin.instance_id)
               (Pcu.instances router.Router.pcu))))
  | "ifaces" ->
    Ok
      (String.concat "\n"
         (Array.to_list
            (Array.map (Format.asprintf "%a" Iface.pp) router.Router.ifaces)))
  | "routes" ->
    let routes = ref [] in
    Route_table.iter (fun r -> routes := Format.asprintf "%a" Route_table.pp_route r :: !routes)
      router.Router.routes;
    Ok (String.concat "\n" (List.sort String.compare !routes))
  | "flows" ->
    let ft = Aiu.flow_table (Router.aiu router) in
    let s = Flow_table.stats ft in
    Ok
      (Printf.sprintf
         "live=%d capacity=%d lookups=%d hits=%d misses=%d evictions=%d recycled=%d"
         (Flow_table.length ft) (Flow_table.capacity ft) s.Flow_table.lookups
         s.Flow_table.hits s.Flow_table.misses s.Flow_table.evictions
         s.Flow_table.recycled)
  | _ -> Error (Printf.sprintf "show: unknown object %S" what)

let show_faults router =
  let pcu = router.Router.pcu in
  let header =
    Printf.sprintf "policy=%s budget=%s threshold=%d"
      (Fault.policy_name (Router.fault_policy router))
      (match Router.cycle_budget router with
       | Some b -> string_of_int b
       | None -> "unlimited")
      (Pcu.quarantine_threshold pcu)
  in
  let lines =
    List.map
      (fun (i : Pcu.fault_info) ->
        Printf.sprintf "%d: %s@%s faults=%d consecutive=%d%s%s"
          i.Pcu.instance.Plugin.instance_id
          i.Pcu.instance.Plugin.plugin_name
          (Gate.name i.Pcu.instance.Plugin.gate)
          i.Pcu.total_faults i.Pcu.consecutive_faults
          (if i.Pcu.quarantined then " QUARANTINED" else "")
          (if i.Pcu.last_fault = "" then ""
           else Printf.sprintf " last=%S" i.Pcu.last_fault))
      (Pcu.fault_report pcu)
  in
  Ok (String.concat "\n" (header :: lines))

let gate_name_of_int g =
  match Gate.of_int g with Some g -> Gate.name g | None -> string_of_int g

let trace_json () =
  Rp_obs.Telemetry.to_chrome_json ~gate_name:gate_name_of_int ~mhz:Cost.cpu_mhz
    ()

(* Top-N flows by bytes: buffered export records plus the live entries
   still sitting in the inline flow table, so the view covers both
   finished and in-flight flows.  (Sharded workers' private tables are
   domain-private and not read here; their records appear once
   exported.) *)
let flows_top router n =
  let live = ref [] in
  Flow_table.iter
    (fun r ->
      if Flow_table.packets r > 0 then
        live := Flow_export.record_of ~reason:"live" r :: !live)
    (Aiu.flow_table (Router.aiu router));
  let all = List.rev_append !live (Flow_export.peek ()) in
  let all =
    List.sort
      (fun (a : Flow_export.record) b ->
        compare (b.bytes, b.packets) (a.bytes, a.packets))
      all
  in
  let top = List.filteri (fun i _ -> i < n) all in
  let header =
    Printf.sprintf "%-44s %8s %10s %6s %6s %6s  %s" "flow" "pkts" "bytes"
      "fwd" "drop" "abs" "state"
  in
  let row (r : Flow_export.record) =
    Printf.sprintf "%-44s %8d %10d %6d %6d %6d  %s"
      (Flow_export.key_string r)
      r.packets r.bytes r.forwarded r.dropped r.absorbed r.reason
  in
  Ok (String.concat "\n" (header :: List.map row top))

let session_table_arg rest =
  match rest with
  | [] -> Ok (Rp_session.Session.Table.get "default")
  | [ name ] -> Ok (Rp_session.Session.Table.get name)
  | _ -> Error "expected at most one table name"

let session_line (s : Rp_session.Session.t) =
  let open Rp_session.Session in
  let xlat =
    if nat s then
      Printf.sprintf " => %s:%d -> %s:%d"
        (Ipaddr.to_string (xlat_src s)) (xlat_sport s)
        (Ipaddr.to_string (xlat_dst s)) (xlat_dport s)
    else ""
  in
  Printf.sprintf "%d: %s %s:%d -> %s:%d if%d%s state=%s fwd=%d/%dB rev=%d/%dB drops=%d%s"
    (id s) (Proto.name (proto s))
    (Ipaddr.to_string (orig_src s)) (orig_sport s)
    (Ipaddr.to_string (orig_dst s)) (orig_dport s)
    (iface s) xlat (state_name s)
    (packets s Fwd) (bytes s Fwd) (packets s Rev) (bytes s Rev)
    (drops s Fwd + drops s Rev)
    (match qos s with Some q -> Printf.sprintf " tos=%d" q | None -> "")

(* One screen of router health: packet totals, per-shard latency
   quantiles (model cycles), nonzero drop reasons, and the health
   probes with their watermarks.  Everything here is a read — safe to
   poll from a watch loop. *)
let top router =
  let c name = Rp_obs.Counter.get (Rp_obs.Registry.counter name) in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "packets=%d forwarded=%d local=%d absorbed=%d dropped=%d\n"
       (c "ip_core.packets") (c "ip_core.forwarded")
       (c "ip_core.delivered_local") (c "ip_core.absorbed")
       (c "ip_core.dropped"));
  (match Rp_engine.Engine.find router with
   | Some e -> Buffer.add_string b (Rp_engine.Engine.stats_string e ^ "\n")
   | None -> Buffer.add_string b "engine: none attached (inline data path)\n");
  Buffer.add_string b (Rp_obs.Slo.status () ^ "\n");
  (match Rp_obs.Slo.shard_table () with
   | [] -> ()
   | rows ->
     Buffer.add_string b
       (Printf.sprintf "%-6s %-7s %9s %9s %9s %9s\n" "shard" "class" "count"
          "p50" "p99" "p999");
     List.iter
       (fun (shard, cls, h) ->
         Buffer.add_string b
           (Printf.sprintf "%-6d %-7s %9d %9.0f %9.0f %9.0f\n" shard
              (Rp_obs.Slo.cls_name cls)
              (Rp_obs.Histogram.total h)
              (Rp_obs.Histogram.quantile h 0.5)
              (Rp_obs.Histogram.quantile h 0.99)
              (Rp_obs.Histogram.quantile h 0.999)))
       rows);
  Buffer.add_string b (Rp_obs.Drop_reason.to_string () ^ "\n");
  Buffer.add_string b (Rp_obs.Health.to_string ());
  Ok (Buffer.contents b)

let exec_tokens router tokens =
  match tokens with
  | [] -> Ok ""
  | [ "modload"; p ] ->
    (match Plugin_lib.find p with
     | None -> Error (Printf.sprintf "no plugin %S in the plugin library" p)
     | Some m ->
       let* () = Pcu.modload router.Router.pcu m in
       Ok (Printf.sprintf "loaded %s" p))
  | [ "modload-file"; path ] ->
    let* names = Dynload.modload_file router.Router.pcu path in
    Ok (Printf.sprintf "loaded %s from %s" (String.concat ", " names) path)
  | [ "modunload"; p ] ->
    let* () = Pcu.modunload router.Router.pcu p in
    Ok (Printf.sprintf "unloaded %s" p)
  | "create" :: p :: config ->
    let* inst = Pcu.create_instance router.Router.pcu ~plugin:p (parse_config config) in
    Ok (Printf.sprintf "instance %d" inst.Plugin.instance_id)
  | [ "free"; id ] ->
    let* id = int_arg "instance" id in
    let* () = Pcu.free_instance router.Router.pcu id in
    Ok (Printf.sprintf "freed %d" id)
  | [ "bind"; id; filter ] ->
    let* id = int_arg "instance" id in
    let* f = parse_filter filter in
    let* () = Pcu.register_instance router.Router.pcu ~instance:id f in
    Ok (Printf.sprintf "bound %s to instance %d" (Filter.to_string f) id)
  | [ "unbind"; id; filter ] ->
    let* id = int_arg "instance" id in
    let* f = parse_filter filter in
    let* () = Pcu.deregister_instance router.Router.pcu ~instance:id f in
    Ok "unbound"
  | [ "attach"; id; ifc ] ->
    let* inst = instance_arg router id in
    let* ifc = int_arg "iface" ifc in
    if inst.Plugin.scheduler = None then
      Error (Printf.sprintf "instance %d is not a scheduler" inst.Plugin.instance_id)
    else begin
      Iface.attach_scheduler (Router.iface router ifc) inst;
      Ok (Printf.sprintf "if%d qdisc = %s#%d" ifc inst.Plugin.plugin_name
            inst.Plugin.instance_id)
    end
  | [ "detach"; ifc ] ->
    let* ifc = int_arg "iface" ifc in
    Iface.detach_scheduler (Router.iface router ifc);
    Ok (Printf.sprintf "if%d qdisc = fifo" ifc)
  | [ "reserve"; id; rate; filter ] ->
    let* inst = instance_arg router id in
    let* rate_bps = int_arg "rate" rate in
    let* f = parse_filter filter in
    let* key = key_of_filter f in
    if inst.Plugin.plugin_name <> "drr" then
      Error "reserve: only drr instances take reservations"
    else
      let* () =
        Rp_sched.Drr_plugin.reserve ~instance_id:inst.Plugin.instance_id ~key
          ~rate_bps
      in
      (* The reservation implies the flow is scheduled by this
         instance. *)
      let* () = Pcu.register_instance router.Router.pcu
          ~instance:inst.Plugin.instance_id f
      in
      Ok (Printf.sprintf "reserved %d bps for %s" rate_bps (Filter.to_string f))
  | "message" :: p :: key :: payload ->
    let* reply = Pcu.message router.Router.pcu ~plugin:p key (String.concat " " payload) in
    Ok reply
  | [ "route"; "add"; prefix; ifc ] | [ "route"; "add"; prefix; ifc; _ ] ->
    (match Prefix.of_string_opt prefix with
     | None -> Error (Printf.sprintf "bad prefix %S" prefix)
     | Some p ->
       let* ifc_id = int_arg "iface" ifc in
       let next_hop =
         match tokens with
         | [ _; _; _; _; nh ] -> Ipaddr.of_string_opt nh
         | _ -> None
       in
       Router.add_route router p ?next_hop ~iface:ifc_id ();
       Ok (Printf.sprintf "route %s -> if%d" (Prefix.to_string p) ifc_id))
  | [ "route"; "del"; prefix ] ->
    (match Prefix.of_string_opt prefix with
     | None -> Error (Printf.sprintf "bad prefix %S" prefix)
     | Some p ->
       Route_table.remove router.Router.routes p;
       Ok (Printf.sprintf "route %s removed" (Prefix.to_string p)))
  | [ "faults"; "show" ] -> show_faults router
  | [ "plugin"; "quarantine"; id ] ->
    let* id = int_arg "instance" id in
    let* () = Router.quarantine router id in
    Ok (Printf.sprintf "instance %d quarantined" id)
  | [ "plugin"; "restore"; id ] ->
    let* id = int_arg "instance" id in
    let* () = Router.restore router id in
    Ok (Printf.sprintf "instance %d restored" id)
  | [ "fault"; "policy"; p ] ->
    (match Fault.policy_of_name p with
     | Some policy ->
       Router.set_fault_policy router policy;
       Ok (Printf.sprintf "fault policy = %s" p)
     | None -> Error "fault policy: expected drop|continue|unbind")
  | [ "fault"; "budget"; "off" ] ->
    Router.set_cycle_budget router None;
    Ok "fault budget = unlimited"
  | [ "fault"; "budget"; n ] ->
    let* n = int_arg "budget" n in
    if n < 1 then Error "fault budget: expected a positive cycle count or off"
    else begin
      Router.set_cycle_budget router (Some n);
      Ok (Printf.sprintf "fault budget = %d cycles" n)
    end
  | [ "fault"; "threshold"; n ] ->
    let* n = int_arg "threshold" n in
    if n < 1 then Error "fault threshold: expected a positive count"
    else begin
      Pcu.set_quarantine_threshold router.Router.pcu n;
      Ok (Printf.sprintf "fault threshold = %d consecutive" n)
    end
  | "fault" :: _ -> Error "usage: fault policy drop|continue|unbind | fault budget N|off | fault threshold N"
  | [ "show"; what ] -> show router what
  (* The metric registry: the same snapshot the --metrics-out flags
     write.  [pattern] is a substring filter over metric names. *)
  | [ "stats"; "show" ] -> Ok (Rp_obs.Registry.dump ())
  | [ "stats"; "show"; pattern ] -> Ok (Rp_obs.Registry.dump ~pattern ())
  | [ "stats"; "json" ] -> Ok (Rp_obs.Registry.dump_json ())
  | [ "stats"; "json"; pattern ] -> Ok (Rp_obs.Registry.dump_json ~pattern ())
  | [ "stats"; "reset" ] ->
    Rp_obs.Registry.reset ();
    Ok "counters reset"
  | "stats" :: _ -> Error "usage: stats show|json [pattern] | stats reset"
  | [ "engine"; "stats" ] ->
    (match Rp_engine.Engine.find router with
     | Some e -> Ok (Rp_engine.Engine.stats_string e)
     | None -> Ok "engine: none attached (inline data path)")
  | "engine" :: _ -> Error "usage: engine stats"
  (* Hot-path event tracing (per-domain event rings). *)
  | [ "trace"; "on" ] ->
    Rp_obs.Telemetry.enable ~every:1;
    Ok "tracing on (sampling 1-in-1)"
  | [ "trace"; "on"; n ] ->
    let* n = int_arg "sampling period" n in
    if n < 1 then Error "trace on: expected a positive sampling period"
    else begin
      Rp_obs.Telemetry.enable ~every:n;
      Ok (Printf.sprintf "tracing on (sampling 1-in-%d)" n)
    end
  | [ "trace"; "off" ] ->
    Rp_obs.Telemetry.disable ();
    Ok "tracing off"
  | [ "trace"; "status" ] -> Ok (Rp_obs.Telemetry.status ())
  | [ "trace"; "dump" ] -> Ok (trace_json ())
  | [ "trace"; "dump"; path ] ->
    Rp_obs.Telemetry.write_chrome_json ~gate_name:gate_name_of_int
      ~mhz:Cost.cpu_mhz path;
    Ok (Printf.sprintf "trace written to %s" path)
  | "trace" :: _ -> Error "usage: trace on [N] | trace off | trace status | trace dump [FILE]"
  (* NetFlow-style flow records. *)
  | [ "flows"; "top" ] -> flows_top router 10
  | [ "flows"; "top"; n ] ->
    let* n = int_arg "count" n in
    if n < 1 then Error "flows top: expected a positive count"
    else flows_top router n
  | "flows" :: _ -> Error "usage: flows top [N]"
  (* The session subsystem (NAT + conntrack + QoS).  Tables are named,
     created on first use; plugin instances select theirs with
     [table=NAME] (default "default"). *)
  | "sessions" :: "show" :: rest ->
    let* t = session_table_arg rest in
    let st = Rp_session.Session.Table.stats t in
    let lines = ref [] in
    Rp_session.Session.Table.iter
      (fun s -> lines := session_line s :: !lines)
      t;
    Ok
      (String.concat "\n"
         (Printf.sprintf
            "table=%s live=%d capacity=%d created=%d expired=%d lookups=%d \
             hits=%d misses=%d cached=%d rewrites=%d ct-drops=%d \
             conflicts=%d refused=%d"
            (Rp_session.Session.Table.name t)
            st.Rp_session.Session.Table.live st.capacity st.created st.expired
            st.lookups st.hits st.misses st.cached_hits st.rewrites st.ct_drops
            st.key_conflicts st.refused
         :: List.sort String.compare !lines))
  | "sessions" :: "top" :: rest ->
    let* n, rest =
      match rest with
      | n :: rest when int_of_string_opt n <> None ->
        let* n = int_arg "count" n in
        Ok (n, rest)
      | rest -> Ok (10, rest)
    in
    if n < 1 then Error "sessions top: expected a positive count"
    else
      let* t = session_table_arg rest in
      let all = ref [] in
      Rp_session.Session.Table.iter (fun s -> all := s :: !all) t;
      let bytes s =
        Rp_session.Session.(bytes s Fwd + bytes s Rev, id s)
      in
      let sorted = List.sort (fun a b -> compare (bytes b) (bytes a)) !all in
      Ok
        (String.concat "\n"
           (List.map session_line (List.filteri (fun i _ -> i < n) sorted)))
  | "sessions" :: "timeout" :: cls :: secs :: rest ->
    let* cls =
      match cls with
      | "tcp-syn" -> Ok `Tcp_syn
      | "tcp-est" -> Ok `Tcp_est
      | "tcp-fin" -> Ok `Tcp_fin
      | "udp" -> Ok `Udp
      | "other" -> Ok `Other
      | _ -> Error "sessions timeout: class is tcp-syn|tcp-est|tcp-fin|udp|other"
    in
    let* secs = int_arg "seconds" secs in
    if secs < 1 then Error "sessions timeout: expected a positive duration"
    else
      let* t = session_table_arg rest in
      Rp_session.Session.Table.set_timeout t cls
        (Int64.mul (Int64.of_int secs) 1_000_000_000L);
      Ok (Printf.sprintf "timeout = %d s" secs)
  | "sessions" :: "expire" :: now_s :: rest ->
    let* now_s = int_arg "now (seconds)" now_s in
    let* t = session_table_arg rest in
    let n =
      Rp_session.Session.Table.expire t
        ~now:(Int64.mul (Int64.of_int now_s) 1_000_000_000L)
    in
    Ok (Printf.sprintf "expired %d session(s)" n)
  | "sessions" :: "flush" :: rest ->
    let* t = session_table_arg rest in
    Ok (Printf.sprintf "flushed %d session(s)" (Rp_session.Session.Table.flush t))
  | "sessions" :: _ ->
    Error
      "usage: sessions show [TABLE] | sessions top [N] [TABLE] | sessions \
       timeout CLASS SECS [TABLE] | sessions expire NOW_S [TABLE] | sessions \
       flush [TABLE]"
  | "nat" :: "add" :: kind :: filter :: addr :: config ->
    let* kind =
      match kind with
      | "snat" -> Ok `Snat
      | "dnat" -> Ok `Dnat
      | _ -> Error "nat add: kind is snat|dnat"
    in
    let* f = parse_filter filter in
    (match Ipaddr.of_string_opt addr with
     | None -> Error (Printf.sprintf "nat add: bad address %S" addr)
     | Some a when Filter.is_v4 f <> Ipaddr.is_v4 a ->
       Error "nat add: address family does not match the filter"
     | Some addr ->
       let config = parse_config config in
       let opt_int key =
         match List.assoc_opt key config with
         | None -> Ok None
         | Some v ->
           let* v = int_arg key v in
           Ok (Some v)
       in
       let* port = opt_int "port" in
       let* tos = opt_int "tos" in
       let t =
         Rp_session.Session.Table.get
           (Option.value (List.assoc_opt "table" config) ~default:"default")
       in
       Rp_session.Session.Table.add_rule t
         { Rp_session.Session.Table.kind; filter = f; addr; port; tos };
       Ok
         (Printf.sprintf "nat rule %d"
            (List.length (Rp_session.Session.Table.rules t) - 1)))
  | "nat" :: "del" :: i :: rest ->
    let* i = int_arg "rule" i in
    let* t = session_table_arg rest in
    let* () = Rp_session.Session.Table.del_rule t i in
    Ok (Printf.sprintf "deleted nat rule %d" i)
  | "nat" :: "show" :: rest ->
    let* t = session_table_arg rest in
    Ok
      (String.concat "\n"
         (List.mapi
            (fun i (r : Rp_session.Session.Table.nat_rule) ->
              Printf.sprintf "%d: %s %s -> %s%s%s" i
                (match r.kind with `Snat -> "snat" | `Dnat -> "dnat")
                (Filter.to_string r.filter)
                (Ipaddr.to_string r.addr)
                (match r.port with
                 | Some p -> Printf.sprintf ":%d" p
                 | None -> "")
                (match r.tos with
                 | Some q -> Printf.sprintf " tos=%d" q
                 | None -> ""))
            (Rp_session.Session.Table.rules t)))
  | "nat" :: _ ->
    Error
      "usage: nat add snat|dnat <FILTER> ADDR [port=N] [tos=N] [table=NAME] \
       | nat del N [TABLE] | nat show [TABLE]"
  (* Cold-start classification strategy: per-gate DAG walks (the
     paper's n lookups, the default) or the compiled cross-gate
     structure (one traversal for all gates).  An attached engine
     publishes the mode to its shards before its next packet. *)
  | [ "classifier"; "compiled"; ("on" | "off") as v ] ->
    let mode = if v = "on" then `Compiled else `Per_gate in
    Aiu.set_mode (Router.aiu router) mode;
    Ok (Printf.sprintf "classifier = %s" (Aiu.mode_to_string mode))
  | [ "classifier"; "show" ] ->
    Ok (Aiu.mode_to_string (Aiu.mode (Router.aiu router)))
  | "classifier" :: _ ->
    Error "usage: classifier compiled on|off | classifier show"
  (* Latency SLOs on the deterministic model clock.  [set N] arms
     exemplar capture; [off] stops stamping entirely (for A/B runs —
     Table-3 cycles are identical either way). *)
  | [ "slo"; "show" ] -> Ok (Rp_obs.Slo.status ())
  | [ "slo"; "set"; n ] ->
    let* n = int_arg "threshold (cycles)" n in
    if n < 1 then Error "slo set: expected a positive cycle count"
    else begin
      Rp_obs.Slo.set_threshold n;
      Ok (Printf.sprintf "slo = %d model cycles (exemplar capture armed)" n)
    end
  | [ "slo"; "clear" ] ->
    Rp_obs.Slo.set_threshold 0;
    Ok "slo threshold cleared (exemplar capture disarmed)"
  | [ "slo"; ("on" | "off") as v ] ->
    Rp_obs.Slo.set_stamping (v = "on");
    Ok (Printf.sprintf "slo stamping %s" v)
  | "slo" :: "exemplars" :: rest ->
    let* limit =
      match rest with
      | [] -> Ok 10
      | [ n ] -> int_arg "count" n
      | _ -> Error "usage: slo exemplars [N]"
    in
    if limit < 1 then Error "slo exemplars: expected a positive count"
    else
      (match Rp_obs.Slo.exemplars ~limit () with
       | [] -> Ok "no exemplars captured"
       | es ->
         Ok (String.concat "\n" (List.map Rp_obs.Slo.exemplar_to_string es)))
  | [ "slo"; "reset" ] ->
    Rp_obs.Slo.clear_exemplars ();
    Ok "exemplars cleared"
  | "slo" :: _ ->
    Error
      "usage: slo show | slo set N | slo clear | slo on|off | slo exemplars \
       [N] | slo reset"
  (* The unified drop-reason taxonomy (Σ per-reason == drops.total). *)
  | [ "drops"; "show" ] ->
    let rows =
      List.map
        (fun (r, n) ->
          Printf.sprintf "%-16s %d" (Rp_obs.Drop_reason.name r) n)
        (Rp_obs.Drop_reason.table ())
    in
    Ok
      (String.concat "\n"
         (rows
          @ [ Printf.sprintf "%-16s %d" "total" (Rp_obs.Drop_reason.total ()) ]))
  | "drops" :: _ -> Error "usage: drops show"
  (* The health probe sampler (last value + high-water mark). *)
  | [ "health"; "show" ] -> Ok (Rp_obs.Health.to_string ())
  | [ "health"; "sample" ] ->
    Rp_obs.Health.sample ();
    Ok (Rp_obs.Health.to_string ())
  | [ "health"; "reset-hwm" ] ->
    Rp_obs.Health.reset_hwm ();
    Ok "watermarks reset"
  | "health" :: _ -> Error "usage: health show | health sample | health reset-hwm"
  | [ "top" ] -> top router
  | "top" :: _ -> Error "usage: top"
  | cmd :: _ -> Error (Printf.sprintf "unknown command %S" cmd)

let exec router line =
  let* tokens = tokenize line in
  exec_tokens router tokens

let exec_script router text =
  let lines = String.split_on_char '\n' text in
  let rec loop acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then loop acc (lineno + 1) rest
      else
        (match exec router trimmed with
         | Ok out -> loop (out :: acc) (lineno + 1) rest
         | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  loop [] 1 lines
