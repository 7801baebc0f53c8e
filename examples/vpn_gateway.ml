(* VPN gateway: IP security plugins building a virtual private network
   (one of the paper's motivating applications, section 2).

   Topology:   site A hosts -> [gw-a] ==== untrusted link ==== [gw-b] -> site B

   gw-a protects traffic matching the VPN filter with ESP (RC4 +
   HMAC-MD5-96) at the security-out gate; gw-b verifies, checks the
   anti-replay window and decrypts at the security-in gate.  A "wire
   tap" on the untrusted link shows that the payload is ciphertext in
   transit, and a tampered packet is rejected by the integrity check.

   Run with: dune exec examples/vpn_gateway.exe *)

open Rp_pkt
open Rp_core

let ok = function Ok v -> v | Error e -> failwith e

let hex_preview s n =
  String.concat ""
    (List.init (min n (String.length s)) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let payload_of (m : Mbuf.t) =
  match Mbuf.l4_message m with
  | Some msg -> Bytes.sub_string msg Udp_header.size (Bytes.length msg - Udp_header.size)
  | None -> "?"

let () =
  print_endline "== VPN gateway (ESP plugins) ==\n";
  let sim = Rp_sim.Sim.create () in
  let mk name =
    Router.create ~name ~ifaces:[ Iface.create ~id:0 (); Iface.create ~id:1 () ] ()
  in
  let gw_a = mk "gw-a" and gw_b = mk "gw-b" in
  Router.add_route gw_a (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  Router.add_route gw_b (Prefix.of_string "192.168.0.0/16") ~iface:1 ();
  let na = Rp_sim.Net.add_router sim gw_a in
  let nb = Rp_sim.Net.add_router sim gw_b in
  let site_b = Rp_sim.Sink.create ~name:"site-b" () in
  Rp_sim.Net.connect na ~iface:1 (Rp_sim.Net.To_node (nb, 0)) ~prop_ns:500_000L;
  Rp_sim.Net.connect nb ~iface:1 (Rp_sim.Net.To_sink site_b) ~prop_ns:10_000L;

  (* One SA shared by the two gateways (they share keys by key
     exchange in reality). *)
  Rp_crypto.Ipsec_plugin.add_sa ~name:"site-a-to-b"
    (Rp_crypto.Sa.create ~spi:0x1001l ~transform:Rp_crypto.Sa.Esp
       ~auth_key:"vpn-auth-key-2026" ~enc_key:"vpn-enc-key-2026" ());
  Printf.printf "installed SA spi=0x1001 (ESP: RC4 + HMAC-MD5-96)\n";

  let vpn_filter = "<10.1.0.0/16, 192.168.0.0/16, UDP, *, *, *>" in
  let conf r plugin =
    ok (Rp_control.Pmgr.exec r (Printf.sprintf "modload %s" plugin)) |> ignore;
    ok (Rp_control.Pmgr.exec r (Printf.sprintf "create %s sa=site-a-to-b" plugin)) |> ignore;
    ok (Rp_control.Pmgr.exec r (Printf.sprintf "bind 1 %s" vpn_filter)) |> ignore
  in
  conf gw_a "ipsec-out";
  conf gw_b "ipsec-in";
  Printf.printf "bound %s to ipsec instances on both gateways\n\n" vpn_filter;

  (* A wire tap between the gateways: peek at packets crossing if1 of
     gw-a by sampling after gw-a's processing. *)
  let secret = "Q3 numbers: revenue up 14%, churn down" in
  let send i =
    let m =
      Mbuf.udp_v4 ~src:(Ipaddr.v4 10 1 0 5) ~dst:(Ipaddr.v4 192 168 1 20)
        ~sport:4433 ~dport:4433 ~iface:0 ~payload:secret ()
    in
    m.Mbuf.seq <- i;
    m
  in

  (* Direct look at what leaves gw-a: run one packet through gw-a's
     data path only. *)
  let probe = send 0 in
  (match Ip_core.process gw_a ~now:0L probe with
   | Ip_core.Enqueued _ ->
     Printf.printf "cleartext payload : %S\n" secret;
     Printf.printf "on the wire       : %s... (%d bytes, +%d ESP overhead)\n"
       (hex_preview (payload_of probe) 24)
       probe.Mbuf.len Rp_crypto.Ipsec_plugin.overhead;
     ignore (Iface.dequeue (Router.iface gw_a 1) ~now:0L)
   | v -> Format.printf "unexpected: %a@." Ip_core.pp_verdict v);

  (* Now the full tunnel: 5 packets end to end. *)
  for i = 1 to 5 do
    Rp_sim.Net.inject na (send i) ~at:(Int64.of_int (i * 1_000_000))
  done;
  ignore (Rp_sim.Sim.run sim);
  Printf.printf "\nsite B received %d datagrams\n" (Rp_sim.Sink.total_packets site_b);
  (match Rp_sim.Sink.flows site_b with
   | (_, fs) :: _ ->
     (* Each router stamps a packet on arrival, so the sink's latency
        is gw-b's alone; the first datagram left site A at 1 ms. *)
     Printf.printf "decrypted size back to %d bytes each; the first took %.2f ms end to end\n"
       (fs.Rp_sim.Sink.bytes / fs.Rp_sim.Sink.packets)
       (Int64.to_float (Int64.sub fs.Rp_sim.Sink.first_ns 1_000_000L) /. 1e6)
   | [] -> ());

  (* Tampering on the untrusted link is detected by gw-b. *)
  let tampered = send 99 in
  (match Ip_core.process gw_a ~now:0L tampered with
   | Ip_core.Enqueued _ ->
     ignore (Iface.dequeue (Router.iface gw_a 1) ~now:0L);
     (match tampered.Mbuf.raw with
      | Some raw ->
        let pos = Mbuf.l4_offset tampered + Udp_header.size + 5 in
        Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0x80))
      | None -> ());
     tampered.Mbuf.key <- { tampered.Mbuf.key with Flow_key.iface = 0 };
     tampered.Mbuf.fix <- Mbuf.no_fix;
     (match Ip_core.process gw_b ~now:0L tampered with
      | Ip_core.Dropped reason ->
        Printf.printf "\ntampered packet   : dropped by gw-b (%s)\n" reason
      | v -> Format.printf "\ntampered packet   : NOT caught (%a)@." Ip_core.pp_verdict v)
   | v -> Format.printf "unexpected: %a@." Ip_core.pp_verdict v);

  (* And a replayed packet is caught by the SA's replay window. *)
  let replay = send 100 in
  (match Ip_core.process gw_a ~now:0L replay with
   | Ip_core.Enqueued _ ->
     ignore (Iface.dequeue (Router.iface gw_a 1) ~now:0L);
     let copy = Mbuf.synth ~key:{ replay.Mbuf.key with Flow_key.iface = 0 } ~len:replay.Mbuf.len () in
     copy.Mbuf.raw <- Option.map Bytes.copy replay.Mbuf.raw;
     replay.Mbuf.key <- { replay.Mbuf.key with Flow_key.iface = 0 };
     replay.Mbuf.fix <- Mbuf.no_fix;
     ignore (Ip_core.process gw_b ~now:0L replay);
     (match Ip_core.process gw_b ~now:1L copy with
      | Ip_core.Dropped reason ->
        Printf.printf "replayed packet   : dropped by gw-b (%s)\n" reason
      | v -> Format.printf "replayed packet   : NOT caught (%a)@." Ip_core.pp_verdict v)
   | v -> Format.printf "unexpected: %a@." Ip_core.pp_verdict v)
