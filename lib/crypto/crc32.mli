(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).

    Used by the framing layer to detect in-flight corruption, modelling the
    paper's reliance on TCP-style checksums. *)

val string : string -> int32

val bytes : bytes -> off:int -> len:int -> int32

val update : int32 -> bytes -> off:int -> len:int -> int32
(** Incremental: feed successive chunks, starting from {!empty}. *)

val empty : int32
(** The CRC of the empty string (the initial accumulator). *)

val combine : int32 -> int32 -> int -> int32
(** [combine crc1 crc2 len2] is the CRC of the concatenation [a ^ b] given
    [crc1 = crc a], [crc2 = crc b] and [len2 = String.length b], without
    touching the bytes of either. O(32 * log len2), allocation-free; the framing layer
    uses it to reuse one precomputed payload CRC across many per-recipient
    frames whose headers differ. *)
