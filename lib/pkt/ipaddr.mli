(** IPv4 and IPv6 addresses.

    Addresses are immutable values.  IPv4 addresses are stored in a
    host-order [int32]; IPv6 addresses as two host-order [int64] words
    (high 64 bits first).  Bit 0 of an address is the most significant
    bit of the first octet, matching the usual prefix notation. *)

type t =
  | V4 of int32
  | V6 of int64 * int64  (** [(hi, lo)] *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** [width a] is the number of bits of the address: 32 or 128. *)
val width : t -> int

(** [bit a i] is bit [i] of [a], where bit 0 is the most significant
    bit.  @raise Invalid_argument if [i] is out of range. *)
val bit : t -> int -> bool

(** [prefix_bits a n] keeps the first [n] bits of [a] and zeroes the
    rest.  @raise Invalid_argument if [n] is out of range. *)
val prefix_bits : t -> int -> t

(** [common_prefix_len a b] is the length of the longest common prefix
    of [a] and [b].  @raise Invalid_argument if the families differ. *)
val common_prefix_len : t -> t -> int

val v4 : int -> int -> int -> int -> t

(** [v6 w0 w1 w2 w3] builds an IPv6 address from four 32-bit groups,
    most significant first. *)
val v6 : int32 -> int32 -> int32 -> int32 -> t

val v4_of_int32 : int32 -> t

(** [word a j] is the [j]th 32-bit word of [a] (0..3, most significant
    first) as a native int in [0, 2{^32}); an IPv4 address is word 0
    and its other words are 0.  Allocates nothing. *)
val word : t -> int -> int

(** [of_words ~v6 w0 w1 w2 w3] rebuilds the address {!word} split:
    [of_words ~v6:(is_v6 a) (word a 0) (word a 1) (word a 2) (word a 3)]
    equals [a]. *)
val of_words : v6:bool -> int -> int -> int -> int -> t

val is_v4 : t -> bool
val is_v6 : t -> bool

(** Textual conversion.  IPv4 uses dotted-quad notation; IPv6 uses
    colon-hex with [::] compression of the longest zero run. *)
val to_string : t -> string

(** [of_string s] parses either family.  Raises [Invalid_argument] on
    malformed input; see {!of_string_opt} for the non-raising variant. *)
val of_string : string -> t

val of_string_opt : string -> t option
val pp : Format.formatter -> t -> unit

(** Serialization to/from network-order bytes (4 or 16 octets). *)

val to_bytes : t -> Bytes.t
val write : t -> Bytes.t -> int -> unit
val read_v4 : Bytes.t -> int -> t
val read_v6 : Bytes.t -> int -> t

(** The all-zero address of each family. *)

val zero_v4 : t
val zero_v6 : t
