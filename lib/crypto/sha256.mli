(** SHA-256 (FIPS 180-4).

    Used for log digests, Merkle trees, HMAC and the hash-based signature
    schemes. Buffering and padding are OCaml over an incremental context;
    the 64-byte block compression is one C call per run of whole blocks.
    Two C kernels compute it: the x86-64 SHA extensions (SHA-NI) where
    CPUID reports them with SSE4.1 and SSSE3, checked once when the
    library loads, and portable C everywhere else. Both give identical
    digests; {!kernel} names the one in use. There is no flag, build
    option or environment variable that selects a kernel. *)

type ctx
(** Mutable hashing context. *)

val init : unit -> ctx

val copy : ctx -> ctx
(** An independent context in the same state: what was absorbed so far
    is shared, later updates are not. HMAC keeps its padded-key
    midstates this way. *)

val update : ctx -> string -> unit
(** Absorb the whole string. *)

val update_bytes : ctx -> bytes -> off:int -> len:int -> unit

val finalize : ctx -> string
(** Produce the 32-byte digest. The context must not be reused after. *)

val digest : string -> string
(** One-shot hash of a string; 32 raw bytes. *)

val digest_list : string list -> string
(** Hash of the concatenation, without building the concatenation. *)

val hex : string -> string
(** [hex s] is the lowercase-hex SHA-256 of [s]. *)

val digest_length : int
(** 32. *)

val kernel : unit -> string
(** ["sha-ni"] or ["portable"]: the compression kernel {!init} contexts
    use on this host. *)

(**/**)

module For_testing : sig
  val init_portable : unit -> ctx
  (** A context that always compresses with the portable C kernel, so
      tests on an SHA-NI host can check it against the reference. *)
end
