(* Wire bytes for the benchmark's traffic, written with the router's
   public header serializers into reusable receive buffers.

   Only the first [hdr_extent] bytes of a buffer are ever written (by
   the generator or by an in-place NAT rewrite), and they are cleared
   before each packet, so the payload of every datagram is zero.  The
   transport checksum is therefore the checksum of the pseudo-header
   and the transport header alone; the oracle's check re-sums the whole
   datagram independently. *)

open Rp_pkt

let buf_len = 1536
let max_datagram = 1500

(* IPv6 header + TCP header: the largest header stack generated. *)
let hdr_extent = Ipv6_header.size + Tcp_header.size

let rx_buffer () = Bytes.make buf_len '\000'

let addr_sum a =
  let b = Ipaddr.to_bytes a in
  Checksum.sum b 0 (Bytes.length b)

let pseudo_sum ~src ~dst ~proto ~len = addr_sum src + addr_sum dst + proto + len

let flags_of = Array.init 64 Tcp_header.flags_of_byte

(* [write buf ~src ~dst ~proto ~sport ~dport ~tcp_flags ~len] writes a
   [len]-byte IPv4 or IPv6 (by address family) UDP or TCP datagram. *)
let write buf ~src ~dst ~proto ~sport ~dport ~tcp_flags ~len =
  Bytes.fill buf 0 hdr_extent '\000';
  let l3 =
    if Ipaddr.is_v4 src then begin
      Ipv4_header.serialize
        (Ipv4_header.default ~total_length:len ~proto ~src ~dst ())
        buf 0;
      Ipv4_header.size
    end
    else begin
      Ipv6_header.serialize
        (Ipv6_header.default ~payload_length:(len - Ipv6_header.size)
           ~next_header:proto ~src ~dst ())
        buf 0;
      Ipv6_header.size
    end
  in
  let l4_len = len - l3 in
  let hdr, csum_off =
    if proto = Proto.tcp then begin
      Tcp_header.serialize
        {
          Tcp_header.sport;
          dport;
          seq = 0l;
          ack_seq = 0l;
          flags = flags_of.(tcp_flags land 63);
          window = 65535;
          checksum = 0;
          urgent = 0;
        }
        buf l3;
      (Tcp_header.size, 16)
    end
    else begin
      Udp_header.serialize
        { Udp_header.sport; dport; length = l4_len; checksum = 0 }
        buf l3;
      (Udp_header.size, 6)
    end
  in
  let c =
    Checksum.finish
      (pseudo_sum ~src ~dst ~proto ~len:l4_len + Checksum.sum buf l3 hdr)
  in
  (* a zero UDP checksum means "none"; its one's-complement twin is sent *)
  let c = if c = 0 && proto = Proto.udp then 0xFFFF else c in
  Bytes.set_uint16_be buf (l3 + csum_off) c

(* Re-parse a forwarded IPv4 datagram: the parser validates the header
   checksum, and the transport checksum is re-summed over the whole
   datagram.  Returns the addresses and ports when both are valid. *)
let verify_v4 buf =
  match Ipv4_header.parse buf 0 with
  | Error _ -> None
  | Ok h ->
    let l3 = Ipv4_header.size in
    let l4_len = h.Ipv4_header.total_length - l3 in
    let s =
      pseudo_sum ~src:h.Ipv4_header.src ~dst:h.Ipv4_header.dst
        ~proto:h.Ipv4_header.proto ~len:l4_len
      + Checksum.sum buf l3 l4_len
    in
    if Checksum.finish s <> 0 then None
    else
      Some
        ( h.Ipv4_header.src,
          h.Ipv4_header.dst,
          Bytes.get_uint16_be buf l3,
          Bytes.get_uint16_be buf (l3 + 2) )
