open Rp_classifier

type loaded = {
  plugin : (module Plugin.PLUGIN);
  impl : int;  (** lower 16 bits of the plugin code *)
  mutable live_instances : int;
}

(* Control-path message counters: one per PCU operation of the
   paper's standardized message set, counted on success. *)
let m_modloads = Rp_obs.Registry.counter "pcu.modloads"
let m_modunloads = Rp_obs.Registry.counter "pcu.modunloads"
let m_creates = Rp_obs.Registry.counter "pcu.instances_created"
let m_frees = Rp_obs.Registry.counter "pcu.instances_freed"
let m_registers = Rp_obs.Registry.counter "pcu.registrations"
let m_deregisters = Rp_obs.Registry.counter "pcu.deregistrations"
let m_messages = Rp_obs.Registry.counter "pcu.messages"
let m_faults = Rp_obs.Registry.counter "pcu.faults"
let m_quarantines = Rp_obs.Registry.counter "pcu.quarantines"
let m_restores = Rp_obs.Registry.counter "pcu.restores"

(* Per-instance fault bookkeeping.  [consecutive] resets on every
   successful handler return, so only an unbroken run of faults
   triggers the auto-quarantine. *)
type fault_state = {
  mutable consecutive : int;
  mutable total : int;
  mutable quarantined : bool;
  mutable last_reason : string;
  counter : Rp_obs.Counter.t;  (* plugin.<name>.<id>.faults *)
}

let default_quarantine_threshold = 3

type t = {
  plugins : (string, loaded) Hashtbl.t;
  instances : (int, Plugin.t) Hashtbl.t;
  (* instance id -> filters currently registered for it *)
  registrations : (int, Filter.t list ref) Hashtbl.t;
  faults : (int, fault_state) Hashtbl.t;
  mutable quarantine_threshold : int;
  aiu : Plugin.t Aiu.t;
  mutable next_instance : int;
  mutable next_impl : int array;  (** per gate *)
}

let create ?max_records () =
  let on_evict ~gate:_ (b : Plugin.t Flow_table.binding) =
    match b.Flow_table.instance.Plugin.on_flow_evict with
    | Some f -> f b
    | None -> ()
  in
  {
    plugins = Hashtbl.create 16;
    instances = Hashtbl.create 64;
    registrations = Hashtbl.create 64;
    faults = Hashtbl.create 64;
    quarantine_threshold = default_quarantine_threshold;
    aiu =
      Aiu.create ?max_records ~on_evict ~gates:Gate.count ();
    next_instance = 1;
    next_impl = Array.make Gate.count 1;
  }

let aiu t = t.aiu

let is_loaded t name = Hashtbl.mem t.plugins name

let modload t (module P : Plugin.PLUGIN) =
  if is_loaded t P.name then Error (Printf.sprintf "plugin %s already loaded" P.name)
  else begin
    let g = Gate.to_int P.gate in
    let impl = t.next_impl.(g) in
    t.next_impl.(g) <- impl + 1;
    Hashtbl.add t.plugins P.name
      { plugin = (module P); impl; live_instances = 0 };
    Rp_obs.Counter.inc m_modloads;
    Logs.info (fun m -> m "pcu: loaded plugin %s (gate %s, code %#x)" P.name
                  (Gate.name P.gate) (Plugin.code ~gate:P.gate ~impl));
    Ok ()
  end

let modunload t name =
  match Hashtbl.find_opt t.plugins name with
  | None -> Error (Printf.sprintf "plugin %s not loaded" name)
  | Some l when l.live_instances > 0 ->
    Error
      (Printf.sprintf "plugin %s has %d live instance(s)" name l.live_instances)
  | Some _ ->
    Hashtbl.remove t.plugins name;
    Rp_obs.Counter.inc m_modunloads;
    Ok ()

(* Scheduling plugins get per-instance queue-depth and drop gauges.
   Registered with replace semantics: a re-created instance with the
   same id takes over its names. *)
let register_sched_gauges inst =
  match inst.Plugin.scheduler with
  | None -> ()
  | Some s ->
    let prefix =
      Printf.sprintf "sched.%s.%d" inst.Plugin.plugin_name
        inst.Plugin.instance_id
    in
    Rp_obs.Registry.gauge (prefix ^ ".backlog") (fun () ->
        float_of_int (s.Plugin.backlog ()));
    Rp_obs.Registry.gauge (prefix ^ ".dropped") (fun () ->
        match List.assoc_opt "dropped" (s.Plugin.sched_stats ()) with
        | Some v -> ( try float_of_string v with _ -> 0.)
        | None -> 0.)

let create_instance t ~plugin config =
  match Hashtbl.find_opt t.plugins plugin with
  | None -> Error (Printf.sprintf "plugin %s not loaded" plugin)
  | Some l ->
    let module P = (val l.plugin : Plugin.PLUGIN) in
    let instance_id = t.next_instance in
    let code = Plugin.code ~gate:P.gate ~impl:l.impl in
    (match P.create_instance ~instance_id ~code ~config with
     | Error _ as e -> e
     | Ok inst ->
       t.next_instance <- instance_id + 1;
       l.live_instances <- l.live_instances + 1;
       Hashtbl.add t.instances instance_id inst;
       Hashtbl.add t.registrations instance_id (ref []);
       Hashtbl.add t.faults instance_id
         {
           consecutive = 0;
           total = 0;
           quarantined = false;
           last_reason = "";
           counter =
             Rp_obs.Registry.counter
               (Printf.sprintf "plugin.%s.%d.faults" P.name instance_id);
         };
       register_sched_gauges inst;
       Rp_obs.Counter.inc m_creates;
       Ok inst)

let find_instance t id = Hashtbl.find_opt t.instances id

let registrations_of t id =
  match Hashtbl.find_opt t.registrations id with
  | Some r -> r
  | None -> invalid_arg "Pcu: unknown instance"

let fault_state t id = Hashtbl.find_opt t.faults id

let is_quarantined t id =
  match fault_state t id with Some s -> s.quarantined | None -> false

let register_instance t ~instance f =
  match find_instance t instance with
  | None -> Error (Printf.sprintf "no instance %d" instance)
  | Some _ when is_quarantined t instance ->
    Error
      (Printf.sprintf "instance %d is quarantined (restore it first)" instance)
  | Some inst ->
    let gate = Gate.to_int inst.Plugin.gate in
    Aiu.bind t.aiu ~gate f inst;
    let regs = registrations_of t instance in
    if not (List.exists (Filter.equal f) !regs) then regs := f :: !regs;
    Rp_obs.Counter.inc m_registers;
    Ok ()

let deregister_instance t ~instance f =
  match find_instance t instance with
  | None -> Error (Printf.sprintf "no instance %d" instance)
  | Some inst ->
    let regs = registrations_of t instance in
    if List.exists (Filter.equal f) !regs then begin
      let gate = Gate.to_int inst.Plugin.gate in
      (* Only remove the table entry if it still points at this
         instance — a later registration may have rebound the same
         filter to another instance. *)
      (match Dag.find (Aiu.filter_table t.aiu ~gate) f with
       | Some bound when bound == inst -> Aiu.unbind t.aiu ~gate f
       | Some _ | None -> ());
      regs := List.filter (fun g -> not (Filter.equal f g)) !regs;
      Rp_obs.Counter.inc m_deregisters;
      Ok ()
    end
    else Error "filter not registered for this instance"

let free_instance t id =
  match find_instance t id with
  | None -> Error (Printf.sprintf "no instance %d" id)
  | Some inst ->
    let regs = registrations_of t id in
    List.iter
      (fun f -> Aiu.unbind t.aiu ~gate:(Gate.to_int inst.Plugin.gate) f)
      !regs;
    Hashtbl.remove t.registrations id;
    Hashtbl.remove t.instances id;
    (match fault_state t id with
     | Some s -> Rp_obs.Registry.remove (Rp_obs.Counter.name s.counter)
     | None -> ());
    Hashtbl.remove t.faults id;
    (match Hashtbl.find_opt t.plugins inst.Plugin.plugin_name with
     | Some l -> l.live_instances <- l.live_instances - 1
     | None -> ());
    (* Any remaining cached references disappear with the flush that
       Aiu.unbind already performed; if the instance had no filters,
       flush explicitly. *)
    if !regs = [] then Aiu.flush_flows t.aiu;
    Rp_obs.Counter.inc m_frees;
    Ok ()

let message t ~plugin key payload =
  match Hashtbl.find_opt t.plugins plugin with
  | None -> Error (Printf.sprintf "plugin %s not loaded" plugin)
  | Some l ->
    let module P = (val l.plugin : Plugin.PLUGIN) in
    Rp_obs.Counter.inc m_messages;
    P.message key payload

let instances t = Hashtbl.fold (fun _ i acc -> i :: acc) t.instances []
let plugin_names t = Hashtbl.fold (fun n _ acc -> n :: acc) t.plugins []

let bindings_of t ~instance =
  match Hashtbl.find_opt t.registrations instance with
  | Some r -> !r
  | None -> []

(* --- Fault isolation -------------------------------------------------- *)

let quarantine_threshold t = t.quarantine_threshold

let set_quarantine_threshold t n =
  if n < 1 then invalid_arg "Pcu.set_quarantine_threshold";
  t.quarantine_threshold <- n

(* Tear down the instance's data-path presence: every registered
   filter is unbound from its gate's table (selectively invalidating
   the flow records it could match, so no cached binding survives),
   while the registration list is kept so [restore] can rebind.
   Traffic for those flows falls back to the gate's default path. *)
let quarantine t id =
  match find_instance t id with
  | None -> Error (Printf.sprintf "no instance %d" id)
  | Some inst ->
    (match fault_state t id with
     | Some s when s.quarantined ->
       Error (Printf.sprintf "instance %d is already quarantined" id)
     | fs ->
       let gate = Gate.to_int inst.Plugin.gate in
       List.iter
         (fun f ->
           match Dag.find (Aiu.filter_table t.aiu ~gate) f with
           | Some bound when bound == inst -> Aiu.unbind t.aiu ~gate f
           | Some _ | None -> ())
         (bindings_of t ~instance:id);
       (* Flow-record bindings only ever come from DAG lookups, so the
          per-filter unbinds above (selective invalidation, and one
          delta each for the engine's log) already purged every cached
          pointer to a {e filtered} instance.  Only a filterless
          instance (e.g. an attached scheduler) can still be cached in
          flow records; flush only for those, so quarantining one
          plugin does not cost every other flow its cache entry. *)
       if bindings_of t ~instance:id = [] then Aiu.flush_flows t.aiu;
       (match fs with
        | Some s -> s.quarantined <- true
        | None -> ());
       Rp_obs.Counter.inc m_quarantines;
       Logs.warn (fun m ->
           m "pcu: quarantined %s#%d (%d filter binding(s) torn down)"
             inst.Plugin.plugin_name id
             (List.length (bindings_of t ~instance:id)));
       Ok ())

let restore t id =
  match find_instance t id with
  | None -> Error (Printf.sprintf "no instance %d" id)
  | Some inst ->
    (match fault_state t id with
     | Some s when s.quarantined ->
       let gate = Gate.to_int inst.Plugin.gate in
       List.iter
         (fun f -> Aiu.bind t.aiu ~gate f inst)
         (bindings_of t ~instance:id);
       s.quarantined <- false;
       s.consecutive <- 0;
       Rp_obs.Counter.inc m_restores;
       Logs.info (fun m ->
           m "pcu: restored %s#%d" inst.Plugin.plugin_name id);
       Ok ()
     | Some _ | None ->
       Error (Printf.sprintf "instance %d is not quarantined" id))

(* Called by the data path on every contained fault.  Returns
   [`Quarantine] when this fault crossed the consecutive-fault
   threshold; the caller performs the actual teardown (it may have
   router-level state, e.g. qdisc attachments, to detach too). *)
let record_fault t id ~reason =
  Rp_obs.Counter.inc m_faults;
  match fault_state t id with
  | None -> `Ok
  | Some s ->
    s.total <- s.total + 1;
    s.consecutive <- s.consecutive + 1;
    s.last_reason <- reason;
    Rp_obs.Counter.inc s.counter;
    if (not s.quarantined) && s.consecutive >= t.quarantine_threshold then
      `Quarantine
    else `Ok

let record_success t id =
  match fault_state t id with
  | Some s -> s.consecutive <- 0
  | None -> ()

type fault_info = {
  instance : Plugin.t;
  total_faults : int;
  consecutive_faults : int;
  quarantined : bool;
  last_fault : string;
}

let fault_report t =
  Hashtbl.fold
    (fun id s acc ->
      match find_instance t id with
      | None -> acc
      | Some inst ->
        {
          instance = inst;
          total_faults = s.total;
          consecutive_faults = s.consecutive;
          quarantined = s.quarantined;
          last_fault = s.last_reason;
        }
        :: acc)
    t.faults []
  |> List.sort (fun a b ->
         compare a.instance.Plugin.instance_id b.instance.Plugin.instance_id)
