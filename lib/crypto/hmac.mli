(** HMAC-SHA256 (RFC 2104). *)

type key
(** A secret with its padded blocks precomputed. Immutable once built,
    so one [key] may be used from several domains at once. *)

val key : string -> key
(** Keys longer than the 64-byte block size are hashed first, per the
    RFC. *)

val mac : key -> string -> string
(** The 32-byte tag of a message. *)

val verify : key -> msg:string -> tag:string -> bool
(** Constant-time comparison of [tag] against the recomputed tag. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg = mac (key k) msg]: the one-shot form for a secret
    used once. *)
