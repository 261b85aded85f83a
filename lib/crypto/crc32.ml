(* CRC-32 (IEEE 802.3, zlib variant) on untagged native-int arithmetic.
   The tables and accumulator are plain [int]s; the hot loop is the
   slicing-by-8 formulation — eight bytes per iteration, eight table
   loads and seven xors, no boxing. The public API stays [int32] so
   checksums round-trip through the 4-byte wire field.

   The tables are built eagerly at module initialization (8 x 256 ints,
   16 KiB) rather than under [lazy]: worker domains of the experiment
   pool checksum frames concurrently, and a shared lazy thunk forced
   from two domains at once raises [Lazy.RacyLazy]. *)

let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

(* tables.(k).(b) = CRC of byte [b] followed by [k] zero bytes, so eight
   single-byte steps collapse into one lookup per input byte. *)
let tables =
  let t = Array.make 8 t0 in
  for k = 1 to 7 do
    t.(k) <-
      Array.map (fun prev -> Array.unsafe_get t0 (prev land 0xff) lxor (prev lsr 8)) t.(k - 1)
  done;
  t

let empty = 0l

let update crc buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Crc32.update";
  let t1 = tables.(1) and t2 = tables.(2) and t3 = tables.(3) in
  let t4 = tables.(4) and t5 = tables.(5) and t6 = tables.(6) in
  let t7 = tables.(7) in
  let c = ref (Int32.to_int crc land 0xffffffff lxor 0xffffffff) in
  let i = ref off in
  let limit = off + len - 7 in
  while !i < limit do
    let p = !i in
    let b0 = Char.code (Bytes.unsafe_get buf p)
    and b1 = Char.code (Bytes.unsafe_get buf (p + 1))
    and b2 = Char.code (Bytes.unsafe_get buf (p + 2))
    and b3 = Char.code (Bytes.unsafe_get buf (p + 3)) in
    let b4 = Char.code (Bytes.unsafe_get buf (p + 4))
    and b5 = Char.code (Bytes.unsafe_get buf (p + 5))
    and b6 = Char.code (Bytes.unsafe_get buf (p + 6))
    and b7 = Char.code (Bytes.unsafe_get buf (p + 7)) in
    (* The running CRC only mixes into the first word; the second word is
       raw input shifted eight bytes further through the polynomial. *)
    let lo = !c lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
    c :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff)
      lxor Array.unsafe_get t3 b4
      lxor Array.unsafe_get t2 b5
      lxor Array.unsafe_get t1 b6
      lxor Array.unsafe_get t0 b7;
    i := p + 8
  done;
  for j = !i to off + len - 1 do
    c :=
      Array.unsafe_get t0
        ((!c lxor Char.code (Bytes.unsafe_get buf j)) land 0xff)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

let bytes buf ~off ~len = update empty buf ~off ~len

let string s = bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* CRC combination: crc(A ++ B) from crc(A), crc(B) and |B|, zlib
   1.2.12's construction (valid here because the checksum above uses
   zlib's exact reflected polynomial, init and final xor). Shifting
   crc(A) through |B| zero bytes multiplies it by x^(8|B|) modulo the
   polynomial; that power is a product of table entries x^(2^k), one per
   set bit of 8|B|. Everything is a reflected 32-bit int: bit 31 is x^0. *)

(* [multmodp a b] = a(x) * b(x) mod p(x). Stops after [a]'s lowest set
   term, so [a] must be non-zero; every power of x is. *)
let multmodp a b =
  let m = ref (1 lsl 31) and p = ref 0 and b = ref b and running = ref true in
  while !running do
    if a land !m <> 0 then begin
      p := !p lxor !b;
      if a land (!m - 1) = 0 then running := false
    end;
    m := !m lsr 1;
    b := if !b land 1 <> 0 then (!b lsr 1) lxor 0xedb88320 else !b lsr 1
  done;
  !p

(* x2n_table.(k) = x^(2^k) mod p(x). The multiplicative order of x
   divides 2^32 - 1, so the exponents cycle with period 32. *)
let x2n_table =
  let t = Array.make 32 0 in
  t.(0) <- 1 lsl 30;
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* x^(n * 2^k) mod p(x). *)
let x2nmodp n k =
  let p = ref (1 lsl 31) and n = ref n and k = ref k in
  while !n <> 0 do
    if !n land 1 <> 0 then p := multmodp (Array.unsafe_get x2n_table (!k land 31)) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  if len2 <= 0 then crc1
  else
    Int32.of_int
      (multmodp (x2nmodp len2 3) (Int32.to_int crc1 land 0xffffffff)
      lxor (Int32.to_int crc2 land 0xffffffff))
