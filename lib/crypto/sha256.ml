(* SHA-256 per FIPS 180-4. The block compression is one C call per run
   of whole blocks (sha256_stubs.c); this module does the buffering and
   padding around it.

   A context is one 96-byte buffer: the 8 state words (native-endian,
   as the C side reads them) at bytes 0..31, and the partial input
   block at bytes 32..95. A 1 KiB digest therefore allocates the
   context, that buffer and the 32-byte result, and compresses its 16
   whole blocks in one call. *)

external compress : bool -> bytes -> bytes -> int -> int -> unit
  = "bp_sha256_compress"
[@@noalloc]

external has_sha_ni : unit -> bool = "bp_sha256_has_sha_ni" [@@noalloc]

(* Decided once, at module initialization, before any worker domain can
   exist; every context created by [init] carries the answer. *)
let sha_ni = has_sha_ni ()

let kernel () = if sha_ni then "sha-ni" else "portable"

let block_off = 32

type ctx = {
  buf : Bytes.t; (* state words at 0..31, partial block at 32..95 *)
  mutable fill : int; (* bytes of partial block; always < 64 *)
  mutable length : int; (* total message bytes absorbed *)
  sha_ni : bool; (* which C kernel compresses for this context *)
}

let iv =
  let b = Bytes.create block_off in
  List.iteri
    (fun i w -> Bytes.set_int32_ne b (4 * i) w)
    [
      0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
      0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
    ];
  b

let make sha_ni =
  let buf = Bytes.create (block_off + 64) in
  Bytes.blit iv 0 buf 0 block_off;
  { buf; fill = 0; length = 0; sha_ni }

let init () = make sha_ni

let copy ctx = { ctx with buf = Bytes.copy ctx.buf }

let compress_block ctx = compress ctx.sha_ni ctx.buf ctx.buf block_off 1

let update_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.update_bytes";
  ctx.length <- ctx.length + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partial block first. *)
  if ctx.fill > 0 then begin
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit src !pos ctx.buf (block_off + ctx.fill) take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress_block ctx;
      ctx.fill <- 0
    end
  end;
  let whole = !remaining / 64 in
  if whole > 0 then begin
    compress ctx.sha_ni ctx.buf src !pos whole;
    pos := !pos + (64 * whole);
    remaining := !remaining - (64 * whole)
  end;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf block_off !remaining;
    ctx.fill <- !remaining
  end

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize ctx =
  let bit_length = ctx.length * 8 in
  (* Append 0x80, zero padding, then the 64-bit big-endian length — written
     in place into the context's block buffer, no tail allocation. *)
  let b = ctx.buf and fill = ctx.fill in
  Bytes.set b (block_off + fill) '\x80';
  if fill + 1 + 8 <= 64 then Bytes.fill b (block_off + fill + 1) (55 - fill) '\x00'
  else begin
    Bytes.fill b (block_off + fill + 1) (63 - fill) '\x00';
    compress_block ctx;
    Bytes.fill b block_off 56 '\x00'
  end;
  Bytes.set_int64_be b (block_off + 56) (Int64.of_int bit_length);
  compress_block ctx;
  ctx.fill <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Bytes.get_int32_ne b (4 * i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hex s = Bp_util.Hex.encode (digest s)

let digest_length = 32

module For_testing = struct
  let init_portable () = make false
end
