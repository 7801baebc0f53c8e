(** The library of loadable plugins shipped with this distribution —
    what sits on disk as [.o] files next to the paper's NetBSD kernel,
    addressed by name through [modload]. *)

open Rp_core

let available : (string * (module Plugin.PLUGIN)) list =
  [
    ("ip6-options", (module Opt_plugin));
    ("stats", (module Stats_plugin));
    ("firewall", (module Firewall_plugin));
    ("l4-route", (module Route_plugin));
    ("fifo", (module Rp_sched.Fifo_plugin));
    ("drr", (module Rp_sched.Drr_plugin));
    ("hfsc", (module Rp_sched.Hfsc_plugin));
    ("red", (module Rp_sched.Red_plugin));
    ("token-bucket", (module Rp_sched.Tb_plugin));
    ("ipsec-in", (module Rp_crypto.Ipsec_plugin.In));
    ("ipsec-out", (module Rp_crypto.Ipsec_plugin.Out));
    (* Unified session subsystem: NAT rewrite (+ QoS class) before
       routing, conntrack verdict at the firewall gate.  Sessions
       route through their flow records' route cache, so [nat-out]
       has no work; the name stays loadable, as a no-op, for
       configurations that bind it. *)
    ("nat", (module Rp_session.Nat_plugin.In));
    ("nat-out", Empty_plugin.make ~gate:Gate.Security_out ~name:"nat-out");
    ("conntrack", (module Rp_session.Conntrack_plugin));
    (* No-op plugins for framework-overhead experiments (Table 3). *)
    ("empty-options", Empty_plugin.make ~gate:Gate.Ip_options ~name:"empty-options");
    ("empty-security", Empty_plugin.make ~gate:Gate.Security_in ~name:"empty-security");
    ("empty-stats", Empty_plugin.make ~gate:Gate.Stats ~name:"empty-stats");
    (* Deterministic fault injectors — test vehicles for the
       fault-isolation layer (exception / cycle-budget containment). *)
    ("fault-firewall", Fault_plugin.make ~gate:Gate.Firewall ~name:"fault-firewall");
    ("fault-options", Fault_plugin.make ~gate:Gate.Ip_options ~name:"fault-options");
    ("fault-stats", Fault_plugin.make ~gate:Gate.Stats ~name:"fault-stats");
  ]

let find name = List.assoc_opt name available
let names = List.map fst available
