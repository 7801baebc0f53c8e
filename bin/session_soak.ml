(* session_soak — the session-subsystem soak scenario run by CI.

   Drives NAT'd bidirectional UDP traffic through the unified session
   subsystem (nat / conntrack on one shared table) on both
   the inline and the sharded:4 engine, under control-plane churn:
   the conntrack binding is removed and re-added and the NAT plugin
   quarantined and restored mid-traffic, with a flush + snapshot-sync
   barrier around every control action so the harness knows exactly
   which packets the session layer was bound for.

   Asserts, per engine mode:

   - exact packet AND byte reconciliation in both directions: the
     session table's per-direction counters equal the harness tally
     of every packet offered while conntrack was bound — nothing
     lost, nothing double-counted, across stripes and worker domains;
   - the flow-export records emitted when the table is torn down
     reconcile with the same tally (with the translated tuple on
     every NAT'd record);
   - at least 2000 packets offered, and every one came back
     forwarded (UDP sessions never close, and both directions stay
     routable through the NAT);

   and across modes: the sharded engine forwarded exactly the packets
   the inline engine forwarded.  Exits 1 on any failed check and
   writes session-soak.json (rp-metrics JSON) as a record of the run. *)

open Rp_pkt
open Rp_core

let failures = ref 0

let check label ok =
  if ok then Printf.printf "ok   %s\n" label
  else begin
    Printf.printf "FAIL %s\n" label;
    incr failures
  end

let ok = function Ok v -> v | Error e -> failwith e

let nat_addr = Ipaddr.v4 198 51 100 7

let fwd_key f =
  Flow_key.make ~src:(Ipaddr.v4 10 0 0 (1 + f)) ~dst:(Ipaddr.v4 192 168 1 9)
    ~proto:Proto.udp ~sport:(4000 + f) ~dport:80 ~iface:0

let rev_key f =
  Flow_key.make ~src:(Ipaddr.v4 192 168 1 9) ~dst:nat_addr ~proto:Proto.udp
    ~sport:80 ~dport:(4000 + f) ~iface:1

let mk_router () =
  let ifaces = [ Iface.create ~id:0 (); Iface.create ~id:1 () ] in
  let r = Router.create ~gates:Gate.all ~ifaces () in
  Router.add_route r (Prefix.of_string "10.0.0.0/8") ~iface:0 ();
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  (* the NAT pool prefix: keeps replies routable (back out if1) even
     while the NAT plugin is quarantined and the rewrite is bypassed *)
  Router.add_route r (Prefix.of_string "198.51.100.0/24") ~iface:1 ();
  r

let setup_session_plugins r ~table =
  let inst plugin =
    let m = Option.get (Rp_control.Plugin_lib.find plugin) in
    ok (Pcu.modload r.Router.pcu m);
    let i = ok (Pcu.create_instance r.Router.pcu ~plugin [ ("table", table) ]) in
    ok
      (Pcu.register_instance r.Router.pcu ~instance:i.Plugin.instance_id
         (Rp_classifier.Filter.v4 ()));
    i.Plugin.instance_id
  in
  (inst "nat", inst "conntrack")

(* The churn schedule: a fixed LCG so every run (and both engine
   modes) sees the identical op sequence.  ~400 bursts of 1..16
   packets across 6 flows, interleaved with conntrack bind churn and
   NAT quarantine flaps. *)
type op = Burst of bool * int * int | Unbind_ct | Rebind_ct | Quar_nat | Restore_nat

let schedule =
  let seed = ref 0x5e551011 in
  let rand m =
    seed := (!seed * 1103515245) + 12345;
    (!seed lsr 8) mod m
  in
  List.init 400 (fun _ ->
      match rand 20 with
      | 0 -> Unbind_ct
      | 1 -> Rebind_ct
      | 2 -> Quar_nat
      | 3 -> Restore_nat
      | _ -> Burst (rand 2 = 0, rand 6, 1 + rand 16))

type tally = {
  mutable fwd_pkts : int;
  mutable fwd_bytes : int;
  mutable rev_pkts : int;
  mutable rev_bytes : int;
}

let run_mode ~label mode =
  Printf.printf "== session soak: %s ==\n" label;
  let table = "soak-" ^ label in
  let r = mk_router () in
  let t = Rp_session.Session.Table.get table in
  ignore (Rp_session.Session.Table.flush t);
  Rp_session.Session.Table.add_rule t
    {
      Rp_session.Session.Table.kind = `Snat;
      filter = Rp_classifier.Filter.v4 ();
      addr = nat_addr;
      port = None;
      tos = Some 0x28;
    };
  let nat_id, ct_id = setup_session_plugins r ~table in
  let e = Rp_engine.Engine.create mode r in
  let ct_filter = Rp_classifier.Filter.to_string (Rp_classifier.Filter.v4 ()) in
  let expected = { fwd_pkts = 0; fwd_bytes = 0; rev_pkts = 0; rev_bytes = 0 } in
  let offered = ref 0 and forwarded = ref 0 and dropped = ref 0 in
  let outcomes = Buffer.create 4096 in
  let collect (res : Rp_engine.Shard.result) =
    (match res.Rp_engine.Shard.outcome with
    | Rp_engine.Shard.Forwarded i ->
      incr forwarded;
      Buffer.add_string outcomes
        (Printf.sprintf "%d:f%d;" res.Rp_engine.Shard.m.Mbuf.seq i)
    | Rp_engine.Shard.Absorbed ->
      Buffer.add_string outcomes
        (Printf.sprintf "%d:a;" res.Rp_engine.Shard.m.Mbuf.seq)
    | Rp_engine.Shard.Dropped _ ->
      incr dropped;
      Buffer.add_string outcomes
        (Printf.sprintf "%d:d;" res.Rp_engine.Shard.m.Mbuf.seq))
  in
  let ct_bound = ref true in
  let now = ref 0L and seq = ref 0 in
  let burst ~fwd ~flow ~count =
    for i = 1 to count do
      now := Int64.add !now 1_000_000L;
      incr seq;
      incr offered;
      let len = 64 + (16 * (i mod 24)) in
      let key = if fwd then fwd_key flow else rev_key flow in
      let m = Mbuf.synth ~key ~len () in
      m.Mbuf.seq <- !seq;
      if not (Rp_engine.Engine.submit e ~now:!now m) then
        check "submit accepted (ring never full at this burst size)" false;
      if !ct_bound then
        if fwd then begin
          expected.fwd_pkts <- expected.fwd_pkts + 1;
          expected.fwd_bytes <- expected.fwd_bytes + len
        end
        else begin
          expected.rev_pkts <- expected.rev_pkts + 1;
          expected.rev_bytes <- expected.rev_bytes + len
        end
    done;
    ignore (Rp_engine.Engine.flush e ~f:collect)
  in
  (* warm every flow forward-first so each session's direction labels
     are anchored to the true initiator before any churn *)
  for f = 0 to 5 do
    burst ~fwd:true ~flow:f ~count:1;
    burst ~fwd:false ~flow:f ~count:1
  done;
  let exec cmd = ignore (Rp_control.Pmgr.exec r cmd) in
  List.iter
    (fun op ->
      match op with
      | Burst (fwd, flow, count) -> burst ~fwd ~flow ~count
      | Unbind_ct ->
        exec (Printf.sprintf "unbind %d %s" ct_id ct_filter);
        ct_bound := false
      | Rebind_ct ->
        if not !ct_bound then begin
          exec (Printf.sprintf "bind %d %s" ct_id ct_filter);
          ct_bound := true
        end
      | Quar_nat -> exec (Printf.sprintf "plugin quarantine %d" nat_id)
      | Restore_nat -> exec (Printf.sprintf "plugin restore %d" nat_id))
    schedule;
  (* quiesce, then reconcile the session table against the tally *)
  ignore (Rp_engine.Engine.flush e ~f:collect);
  let m_fwd_pkts = ref 0 and m_fwd_bytes = ref 0 in
  let m_rev_pkts = ref 0 and m_rev_bytes = ref 0 in
  let sessions = ref 0 in
  Rp_session.Session.Table.iter
    (fun s ->
      incr sessions;
      let open Rp_session.Session in
      m_fwd_pkts := !m_fwd_pkts + packets s Fwd;
      m_fwd_bytes := !m_fwd_bytes + bytes s Fwd;
      m_rev_pkts := !m_rev_pkts + packets s Rev;
      m_rev_bytes := !m_rev_bytes + bytes s Rev)
    t;
  let recon_error =
    abs (!m_fwd_pkts - expected.fwd_pkts)
    + abs (!m_fwd_bytes - expected.fwd_bytes)
    + abs (!m_rev_pkts - expected.rev_pkts)
    + abs (!m_rev_bytes - expected.rev_bytes)
  in
  Printf.printf
    "  offered %d (fwd %d pkts/%d B, rev %d pkts/%d B counted while bound)\n"
    !offered expected.fwd_pkts expected.fwd_bytes expected.rev_pkts
    expected.rev_bytes;
  Printf.printf "  sessions %d: fwd %d/%d B, rev %d/%d B, recon error %d\n"
    !sessions !m_fwd_pkts !m_fwd_bytes !m_rev_pkts !m_rev_bytes recon_error;
  check
    (Printf.sprintf "%s: exact packet/byte reconciliation both directions"
       label)
    (recon_error = 0);
  check
    (Printf.sprintf "%s: offered at least 2000 packets (%d)" label !offered)
    (!offered >= 2000);
  check
    (Printf.sprintf "%s: every offered packet forwarded (%d/%d)" label
       !forwarded !offered)
    (!forwarded = !offered && !dropped = 0);
  check (Printf.sprintf "%s: one session per flow (%d)" label !sessions)
    (!sessions = 6);
  (* tear down: the flow-export records must carry the same totals,
     with the translated tuple on every NAT'd session *)
  Rp_core.Flow_export.clear ();
  let flushed = Rp_session.Session.Table.flush t in
  let records = Rp_core.Flow_export.drain () in
  let x_pkts = ref 0 and x_bytes = ref 0 and translated = ref 0 in
  List.iter
    (fun (rec_ : Rp_core.Flow_export.record) ->
      if rec_.Rp_core.Flow_export.reason = "session-flushed" then begin
        x_pkts := !x_pkts + rec_.Rp_core.Flow_export.packets;
        x_bytes := !x_bytes + rec_.Rp_core.Flow_export.bytes;
        if rec_.Rp_core.Flow_export.translated <> None then incr translated
      end)
    records;
  check
    (Printf.sprintf "%s: flow-export reconciles (%d pkts/%d B over %d records)"
       label !x_pkts !x_bytes flushed)
    (flushed = 6
    && !x_pkts = expected.fwd_pkts + expected.rev_pkts
    && !x_bytes = expected.fwd_bytes + expected.rev_bytes);
  check
    (Printf.sprintf "%s: translated tuple on every exported session" label)
    (!translated = 6);
  Rp_engine.Engine.stop e;
  let slug = match mode with
    | Rp_engine.Engine.Inline -> "inline"
    | Rp_engine.Engine.Sharded n -> Printf.sprintf "sharded%d" n
  in
  Rp_obs.Registry.set
    (Printf.sprintf "soak.session.%s.recon_error" slug)
    (float_of_int recon_error);
  Rp_obs.Registry.set
    (Printf.sprintf "soak.session.%s.offered" slug)
    (float_of_int !offered);
  Rp_obs.Registry.set
    (Printf.sprintf "soak.session.%s.forwarded" slug)
    (float_of_int !forwarded);
  Buffer.contents outcomes

let () =
  let inline = run_mode ~label:"inline" Rp_engine.Engine.Inline in
  let sharded = run_mode ~label:"sharded4" (Rp_engine.Engine.Sharded 4) in
  check "inline and sharded:4 forwarded identical packet sequences"
    (String.equal inline sharded);
  Rp_obs.Registry.set "soak.session.mode_mismatch"
    (if String.equal inline sharded then 0.0 else 1.0);
  Rp_obs.Registry.write_json "session-soak.json";
  Printf.printf "metrics written to session-soak.json\n";
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "session soak: all checks passed"
