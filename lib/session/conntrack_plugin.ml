(* Stateful connection tracking at the Firewall gate.

   Runs after the NAT rewrite (Security_in precedes Firewall), which
   is fine: the translated tuple canonicalizes to the session's other
   index key with the direction bit flipped, so resolution recovers
   the same session and true direction — and steady state never even
   reaches the table, it dereferences the session pointer cached in
   this gate's own binding slot (uncharged: the record is cache-hot
   from the NAT plugin's hit on the same packet).

   Per packet: account packets/bytes on the packet's direction,
   refresh the idle clock, and advance the TCP state machine
   (SYN/EST/FIN/RST); data on a closed session is dropped.  UDP and
   other protocols always pass and age out by idle timeout. *)

open Rp_pkt
open Rp_core

let name = "conntrack"
let gate = Gate.Firewall
let description = "stateful connection tracking on the session table"

(* A packet refused a session is dropped: it would pass untracked. *)
let handle table ~cache (ctx : Plugin.ctx) m =
  let hit = Session.cached_resolve table ~cache ~charge:false ctx m in
  if hit == Session.Hit.none then Plugin.Continue
  else if hit == Session.Hit.full then Plugin.Drop Session.full_why
  else begin
    Session.Hit.touch hit ~now:(Int64.to_int ctx.Plugin.now_ns) ~len:m.Mbuf.len;
    if Session.Hit.step hit ~tcp_flags:m.Mbuf.tcp_flags then Plugin.Continue
    else begin
      Session.Table.note_ct_drop table;
      Plugin.Drop "conntrack: closed session"
    end
  end

let create_instance ~instance_id ~code ~config =
  let table = Nat_plugin.table_of config in
  let cache = Nat_plugin.cache_of config in
  Ok
    (Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
       ~describe:(fun () ->
         let st = Session.Table.stats table in
         Printf.sprintf "conntrack table=%s live=%d drops=%d"
           (Session.Table.name table) st.Session.Table.live
           st.Session.Table.ct_drops)
       (handle table ~cache))

let message key _ =
  match key with
  | "plugin-info" -> Ok description
  | _ -> Error (Printf.sprintf "conntrack: unknown message %s" key)
