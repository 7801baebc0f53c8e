(** HMAC-MD5 (RFC 2104). *)

(** [md5 ~key data] is the 16-byte HMAC-MD5 of [data]. *)
val md5 : key:string -> string -> string

(** [md5_bytes ~key buf off len] — over a byte range. *)
val md5_bytes : key:string -> Bytes.t -> int -> int -> string

(** Constant-time comparison of two MACs. *)
val verify : expected:string -> string -> bool
