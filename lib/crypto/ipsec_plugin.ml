open Rp_pkt
open Rp_core

let sa_table : (string, Sa.t) Hashtbl.t = Hashtbl.create 8

let add_sa ~name sa = Hashtbl.replace sa_table name sa
let find_sa ~name = Hashtbl.find_opt sa_table name

let trailer_len = 8  (* SPI + sequence *)
let icv_len = 12  (* HMAC-MD5-96 *)
let overhead = trailer_len + icv_len

(* Where a UDP datagram's header starts; the payload after it is
   what is protected, and the IP header, any hop-by-hop header and
   the UDP header stay in the clear.  [None] for a packet without
   bytes or without a UDP header. *)
let udp_offset (m : Mbuf.t) =
  let l4 = Mbuf.l4_offset m in
  if m.Mbuf.key.Flow_key.proto <> Proto.udp || l4 < 0
     || l4 + Udp_header.size > m.Mbuf.len
  then None
  else Some l4

(* Rewrite the length fields (and the IPv4 header checksum) after the
   datagram grew or shrank by [delta] bytes. *)
let fix_lengths (m : Mbuf.t) raw ~l4 delta =
  (match m.Mbuf.version with
   | Mbuf.V4 ->
     (match Ipv4_header.parse raw 0 with
      | Ok h ->
        Ipv4_header.serialize
          { h with Ipv4_header.total_length = h.Ipv4_header.total_length + delta }
          raw 0
      | Error _ -> ())
   | Mbuf.V6 ->
     (match Ipv6_header.parse raw 0 with
      | Ok h ->
        Ipv6_header.serialize
          { h with Ipv6_header.payload_length = h.Ipv6_header.payload_length + delta }
          raw 0
      | Error _ -> ()));
  match Udp_header.parse raw l4 with
  | Ok u ->
    Udp_header.serialize
      { u with Udp_header.length = u.Udp_header.length + delta; checksum = 0 }
      raw l4
  | Error _ -> ()

let tag_prefix = "ipsec:"

(* --- outbound -------------------------------------------------------- *)

(* Bytes without a UDP header to keep in the clear (another protocol,
   or a non-initial fragment) are refused: a packet that has bytes is
   never carried as a tag, so [raw] stays its first [len] bytes. *)
let no_udp_header = "ipsec: no UDP header"

let protect sa (m : Mbuf.t) =
  match m.Mbuf.raw, udp_offset m with
  | Some _, None -> Plugin.Drop no_udp_header
  | Some raw, Some l4 ->
    let seq = Sa.next_seq sa in
    let off = l4 + Udp_header.size and old_len = m.Mbuf.len in
    let plen = old_len - off in
    let grown = Bytes.create (old_len + overhead) in
    Bytes.blit raw 0 grown 0 old_len;
    (* Encrypt the payload in place (ESP only). *)
    (match sa.Sa.transform with
     | Sa.Esp ->
       let cipher = Sa.packet_cipher sa ~seq in
       Rc4.apply cipher grown off plen
     | Sa.Ah -> ());
    (* Trailer: SPI and sequence. *)
    Bytes.set_int32_be grown old_len sa.Sa.spi;
    Bytes.set_int32_be grown (old_len + 4) (Int32.of_int seq);
    (* ICV over payload + trailer. *)
    let icv =
      Hmac.md5_bytes ~key:sa.Sa.auth_key grown off (plen + trailer_len)
    in
    Bytes.blit_string icv 0 grown (old_len + trailer_len) icv_len;
    fix_lengths m grown ~l4 overhead;
    m.Mbuf.raw <- Some grown;
    m.Mbuf.len <- m.Mbuf.len + overhead;
    Plugin.Continue
  | None, _ ->
    (* Synthetic packet: carry the transform as metadata. *)
    let seq = Sa.next_seq sa in
    Mbuf.add_tag m (Printf.sprintf "%s%ld:%d" tag_prefix sa.Sa.spi seq);
    m.Mbuf.len <- m.Mbuf.len + overhead;
    Plugin.Continue

(* --- inbound --------------------------------------------------------- *)

type in_state = {
  mutable bad_icv : int;
  mutable replays : int;
  mutable reassembled : int;
  reasm : Frag.Reassembly.t;
}

let in_instances : (int, in_state) Hashtbl.t = Hashtbl.create 8

let in_failures ~instance_id =
  match Hashtbl.find_opt in_instances instance_id with
  | Some st -> Some (st.bad_icv, st.replays)
  | None -> None

let in_reassembled ~instance_id =
  match Hashtbl.find_opt in_instances instance_id with
  | Some st -> Some st.reassembled
  | None -> None

(* AH/ESP verification needs the whole datagram: fragments of a
   protected packet are buffered and the verification runs on the
   reassembled datagram (RFC 1825: reassembly precedes AH/ESP
   processing at the receiver).  A buffered fragment is absorbed; if
   its datagram never completes, the reassembler's discard counts it
   under [frag_evicted]. *)
let reassemble_first st (ctx : Plugin.ctx) (m : Mbuf.t) =
  match m.Mbuf.frag with
  | None -> `Whole
  | Some _ ->
    (match Frag.Reassembly.offer st.reasm ~now:ctx.Plugin.now_ns m with
     | None -> `Buffered
     | Some whole ->
       st.reassembled <- st.reassembled + 1;
       (* Continue processing the rebuilt datagram in place. *)
       m.Mbuf.len <- whole.Mbuf.len;
       m.Mbuf.raw <- whole.Mbuf.raw;
       m.Mbuf.frag <- None;
       `Whole)

let find_tag (m : Mbuf.t) =
  List.find_opt
    (fun t ->
      String.length t > String.length tag_prefix
      && String.sub t 0 (String.length tag_prefix) = tag_prefix)
    m.Mbuf.tags

let unprotect st sa (m : Mbuf.t) =
  match m.Mbuf.raw, udp_offset m with
  | Some _, None -> Plugin.Drop no_udp_header
  | Some raw, Some l4 ->
    let off = l4 + Udp_header.size and total = m.Mbuf.len in
    let plen = total - off - overhead in
    if plen < 0 then Plugin.Drop "ipsec: packet too short"
    else begin
      let spi = Bytes.get_int32_be raw (off + plen) in
      let seq = Int32.to_int (Bytes.get_int32_be raw (off + plen + 4)) in
      let icv = Bytes.sub_string raw (off + plen + trailer_len) icv_len in
      let expected =
        String.sub (Hmac.md5_bytes ~key:sa.Sa.auth_key raw off (plen + trailer_len))
          0 icv_len
      in
      if spi <> sa.Sa.spi then Plugin.Drop "ipsec: unknown SPI"
      else if not (Hmac.verify ~expected icv) then begin
        st.bad_icv <- st.bad_icv + 1;
        Plugin.Drop "ipsec: bad ICV"
      end
      else if not (Sa.replay_check sa seq) then begin
        st.replays <- st.replays + 1;
        Plugin.Drop "ipsec: replayed sequence"
      end
      else begin
        (match sa.Sa.transform with
         | Sa.Esp ->
           let cipher = Sa.packet_cipher sa ~seq in
           Rc4.apply cipher raw off plen
         | Sa.Ah -> ());
        let shrunk = Bytes.sub raw 0 (total - overhead) in
        fix_lengths m shrunk ~l4 (-overhead);
        m.Mbuf.raw <- Some shrunk;
        m.Mbuf.len <- m.Mbuf.len - overhead;
        Plugin.Continue
      end
    end
  | _, _ ->
    (match find_tag m with
     | None -> Plugin.Drop "ipsec: expected protected packet"
     | Some tag ->
       (match
          String.split_on_char ':'
            (String.sub tag (String.length tag_prefix)
               (String.length tag - String.length tag_prefix))
        with
        | [ spi_s; seq_s ] ->
          let spi = Int32.of_string_opt spi_s and seq = int_of_string_opt seq_s in
          (match spi, seq with
           | Some spi, Some seq when spi = sa.Sa.spi ->
             if Sa.replay_check sa seq then begin
               m.Mbuf.tags <- List.filter (fun t -> t <> tag) m.Mbuf.tags;
               m.Mbuf.len <- m.Mbuf.len - overhead;
               Plugin.Continue
             end
             else begin
               st.replays <- st.replays + 1;
               Plugin.Drop "ipsec: replayed sequence"
             end
           | Some _, Some _ -> Plugin.Drop "ipsec: unknown SPI"
           | _, _ -> Plugin.Drop "ipsec: malformed tag")
        | _ -> Plugin.Drop "ipsec: malformed tag"))

(* --- plugin modules -------------------------------------------------- *)

let sa_of_config config =
  match List.assoc_opt "sa" config with
  | None -> Error "ipsec: config must name an SA (sa=<name>)"
  | Some name ->
    (match find_sa ~name with
     | Some sa -> Ok sa
     | None -> Error (Printf.sprintf "ipsec: no SA %S" name))

module Out = struct
  let name = "ipsec-out"
  let gate = Gate.Security_out
  let description = "AH/ESP protection of outbound flows"

  let create_instance ~instance_id ~code ~config =
    Result.map
      (fun sa ->
        Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
          ~describe:(fun () -> Format.asprintf "ipsec-out %a" Sa.pp sa)
          (fun _ctx m -> protect sa m))
      (sa_of_config config)

  let message key _ =
    match key with
    | "plugin-info" -> Ok description
    | _ -> Error (Printf.sprintf "ipsec-out: unknown message %s" key)
end

module In = struct
  let name = "ipsec-in"
  let gate = Gate.Security_in
  let description = "AH/ESP verification of inbound flows"

  let create_instance ~instance_id ~code ~config =
    Result.map
      (fun sa ->
        let st =
          { bad_icv = 0; replays = 0; reassembled = 0;
            reasm = Frag.Reassembly.create () }
        in
        Hashtbl.replace in_instances instance_id st;
        Plugin.simple ~instance_id ~code ~plugin_name:name ~gate ~config
          ~describe:(fun () ->
            Format.asprintf "ipsec-in %a (bad-icv=%d replays=%d reasm=%d)"
              Sa.pp sa st.bad_icv st.replays st.reassembled)
          (fun ctx m ->
            match reassemble_first st ctx m with
            | `Buffered -> Plugin.Consumed
            | `Whole -> unprotect st sa m))
      (sa_of_config config)

  let message key _ =
    match key with
    | "plugin-info" -> Ok description
    | _ -> Error (Printf.sprintf "ipsec-in: unknown message %s" key)
end
