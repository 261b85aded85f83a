open Bp_util
open Bp_crypto

(* NIST / RFC test vectors. *)
let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) msg want (Sha256.hex msg))
    sha256_vectors

let test_sha256_million_a () =
  (* FIPS long vector: one million 'a'. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let rng = Rng.create 100L in
  for _ = 1 to 30 do
    let len = Rng.int rng 300 in
    let s = Bytes.to_string (Rng.bytes rng len) in
    let ctx = Sha256.init () in
    (* Split at a random point. *)
    let cut = if len = 0 then 0 else Rng.int rng len in
    Sha256.update ctx (String.sub s 0 cut);
    Sha256.update ctx (String.sub s cut (len - cut));
    Alcotest.(check string) "incremental" (Sha256.digest s) (Sha256.finalize ctx)
  done

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding boundaries. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.digest s) (Sha256.finalize ctx))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let test_sha256_digest_list () =
  Alcotest.(check string) "list = concat"
    (Sha256.digest "foobarbaz")
    (Sha256.digest_list [ "foo"; "bar"; "baz" ])

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 1. *)
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Hmac.sha256 ~key "Hi There"));
  (* RFC 4231 test case 2. *)
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?"));
  (* RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data. *)
  let key3 = String.make 20 '\xaa' and data3 = String.make 50 '\xdd' in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hex.encode (Hmac.sha256 ~key:key3 data3))

let test_hmac_long_key () =
  (* Keys longer than the block size must be hashed first (RFC 4231 case 6). *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hex.encode
       (Hmac.sha256 ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let tag = Hmac.sha256 ~key:"k" "m" in
  let k = Hmac.key "k" in
  Alcotest.(check bool) "accepts" true (Hmac.verify k ~msg:"m" ~tag);
  Alcotest.(check bool) "rejects wrong msg" false (Hmac.verify k ~msg:"m2" ~tag);
  Alcotest.(check bool) "rejects wrong key" false
    (Hmac.verify (Hmac.key "k2") ~msg:"m" ~tag);
  Alcotest.(check bool) "rejects truncated tag" false
    (Hmac.verify k ~msg:"m" ~tag:(String.sub tag 0 16))

let test_crc32_vectors () =
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Crc32.string "a")

let test_crc32_incremental () =
  let s = "hello, incremental world" in
  let b = Bytes.of_string s in
  let crc1 = Crc32.string s in
  let mid = 7 in
  let crc2 =
    Crc32.update
      (Crc32.update Crc32.empty b ~off:0 ~len:mid)
      b ~off:mid ~len:(Bytes.length b - mid)
  in
  Alcotest.(check int32) "incremental equals one-shot" crc1 crc2

let test_crc32_detects_flip () =
  let s = Bytes.of_string "some payload that will be corrupted" in
  let before = Crc32.bytes s ~off:0 ~len:(Bytes.length s) in
  Bytes.set s 4 (Char.chr (Char.code (Bytes.get s 4) lxor 0x01));
  let after = Crc32.bytes s ~off:0 ~len:(Bytes.length s) in
  Alcotest.(check bool) "flip changes crc" false (before = after)

let test_merkle_empty_and_single () =
  let empty_root = Merkle.root [] in
  Alcotest.(check int) "32 bytes" 32 (String.length empty_root);
  let single = Merkle.root [ "only" ] in
  Alcotest.(check string) "single = leaf hash" (Merkle.leaf_hash "only") single

let test_merkle_proof_all_positions () =
  List.iter
    (fun n ->
      let leaves = List.init n (fun i -> Printf.sprintf "leaf-%d" i) in
      let root = Merkle.root leaves in
      List.iteri
        (fun i leaf ->
          let proof = Merkle.prove leaves i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d verifies" n i)
            true
            (Merkle.verify ~root ~leaf proof))
        leaves)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16 ]

let test_merkle_rejects_wrong_leaf () =
  let leaves = [ "a"; "b"; "c"; "d" ] in
  let root = Merkle.root leaves in
  let proof = Merkle.prove leaves 1 in
  Alcotest.(check bool) "wrong leaf" false (Merkle.verify ~root ~leaf:"x" proof);
  Alcotest.(check bool) "wrong position leaf" false
    (Merkle.verify ~root ~leaf:"a" proof)

let test_merkle_rejects_wrong_root () =
  let leaves = [ "a"; "b"; "c" ] in
  let proof = Merkle.prove leaves 0 in
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify ~root:(Merkle.root [ "a"; "b" ]) ~leaf:"a" proof)

let test_merkle_order_matters () =
  Alcotest.(check bool) "order sensitive" false
    (Merkle.root [ "a"; "b" ] = Merkle.root [ "b"; "a" ])

let test_lamport_sign_verify () =
  let rng = Rng.create 200L in
  let sk, pk = Lamport.keygen rng in
  let s = Lamport.sign sk "hello" in
  Alcotest.(check bool) "accepts" true (Lamport.verify pk "hello" s);
  Alcotest.(check bool) "rejects other msg" false (Lamport.verify pk "hellO" s)

let test_lamport_rejects_cross_key () =
  let rng = Rng.create 201L in
  let sk1, _pk1 = Lamport.keygen rng in
  let _sk2, pk2 = Lamport.keygen rng in
  let s = Lamport.sign sk1 "msg" in
  Alcotest.(check bool) "cross key" false (Lamport.verify pk2 "msg" s)

let test_lamport_encode_roundtrip () =
  let rng = Rng.create 202L in
  let sk, pk = Lamport.keygen rng in
  let s = Lamport.sign sk "roundtrip" in
  match Lamport.decode (Lamport.encode s) with
  | None -> Alcotest.fail "decode failed"
  | Some s' ->
      Alcotest.(check bool) "decoded verifies" true (Lamport.verify pk "roundtrip" s')

let test_lamport_decode_garbage () =
  Alcotest.(check bool) "short input" true (Lamport.decode "garbage" = None)

let test_merkle_sig_many () =
  let rng = Rng.create 300L in
  let signer, pk = Merkle_sig.keygen ~height:3 rng in
  Alcotest.(check int) "capacity" 8 (Merkle_sig.capacity signer);
  for i = 0 to 7 do
    let msg = Printf.sprintf "message %d" i in
    let s = Merkle_sig.sign signer msg in
    Alcotest.(check bool) "verifies" true (Merkle_sig.verify pk msg s);
    Alcotest.(check bool) "binds message" false (Merkle_sig.verify pk "other" s)
  done;
  (try
     ignore (Merkle_sig.sign signer "too many");
     Alcotest.fail "expected exhaustion"
   with Failure _ -> ())

let test_merkle_sig_encode_roundtrip () =
  let rng = Rng.create 301L in
  let signer, pk = Merkle_sig.keygen ~height:2 rng in
  let s = Merkle_sig.sign signer "wire" in
  match Merkle_sig.decode (Merkle_sig.encode s) with
  | None -> Alcotest.fail "decode failed"
  | Some s' ->
      Alcotest.(check bool) "decoded verifies" true (Merkle_sig.verify pk "wire" s')

let test_signer_hmac_scheme () =
  let rng = Rng.create 400L in
  let ks = Signer.create rng in
  Signer.add_identity ks "alice";
  Signer.add_identity ks "bob";
  let s = Signer.sign ks ~signer:"alice" "payload" in
  Alcotest.(check bool) "accepts" true
    (Signer.verify ks ~signer:"alice" ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "wrong identity" false
    (Signer.verify ks ~signer:"bob" ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "wrong message" false
    (Signer.verify ks ~signer:"alice" ~msg:"other" ~signature:s);
  Alcotest.(check bool) "unknown identity" false
    (Signer.verify ks ~signer:"carol" ~msg:"payload" ~signature:s)

let test_signer_hash_based_scheme () =
  let rng = Rng.create 401L in
  let ks = Signer.create ~scheme:`Hash_based rng in
  Signer.add_identity ks "alice";
  let s = Signer.sign ks ~signer:"alice" "payload" in
  Alcotest.(check bool) "accepts" true
    (Signer.verify ks ~signer:"alice" ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "tampered signature" false
    (Signer.verify ks ~signer:"alice" ~msg:"payload"
       ~signature:(String.map (fun c -> Char.chr (Char.code c lxor 1)) s))

let test_signer_hash_based_rollover () =
  let rng = Rng.create 402L in
  let ks = Signer.create ~scheme:`Hash_based rng in
  Signer.add_identity ks "a";
  (* Burn through more than one 64-signature pool. *)
  let all_ok = ref true in
  for i = 0 to 70 do
    let msg = Printf.sprintf "m%d" i in
    let s = Signer.sign ks ~signer:"a" msg in
    if not (Signer.verify ks ~signer:"a" ~msg ~signature:s) then all_ok := false
  done;
  Alcotest.(check bool) "all verify across rollover" true !all_ok

let test_signer_idempotent_registration () =
  let rng = Rng.create 403L in
  let ks = Signer.create rng in
  Signer.add_identity ks "x";
  let s = Signer.sign ks ~signer:"x" "m" in
  Signer.add_identity ks "x";
  Alcotest.(check bool) "keys stable" true
    (Signer.verify ks ~signer:"x" ~msg:"m" ~signature:s)

(* ---------- differential tests against retained references ----------
   Sha256_ref (test/oracle) is the original Int32 implementation, kept
   verbatim as an oracle. Crc32 is checked against a straightforward bitwise
   (table-free) evaluation of the same reflected polynomial. *)

let test_sha256_ref_vectors () =
  (* The oracle itself must pass FIPS vectors, or differential agreement
     proves nothing. *)
  List.iter
    (fun (msg, want) -> Alcotest.(check string) msg want (Sha256_ref.hex msg))
    sha256_vectors

let big_input_gen =
  (* Random strings up to 1 MiB, biased so most samples are small/medium
     but every run crosses the megabyte mark at least a few times. *)
  QCheck.string_of_size
    QCheck.Gen.(
      oneof [ 0 -- 512; 0 -- 65536; 1_000_000 -- 1_048_576 ])

let qcheck_sha256_differential =
  QCheck.Test.make ~name:"sha256 = reference (inputs to 1 MiB)" ~count:16
    big_input_gen
    (fun s -> Sha256.digest s = Sha256_ref.digest s)

let qcheck_sha256_incremental_differential =
  QCheck.Test.make ~name:"sha256 incremental = reference incremental" ~count:30
    QCheck.(pair (string_of_size Gen.(0 -- 3000)) (int_bound 2999))
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod String.length s in
      let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
      let ctx = Sha256.init () in
      Sha256.update ctx a;
      Sha256.update ctx b;
      let rctx = Sha256_ref.init () in
      Sha256_ref.update rctx a;
      Sha256_ref.update rctx b;
      Sha256.finalize ctx = Sha256_ref.finalize rctx)

(* Both C kernels against the reference. [Sha256.init] runs the kernel
   this host selected (SHA-NI where the CPU has it); the test-only
   [init_portable] always runs the portable one. Each case hashes a
   window of [len] bytes starting at an unaligned offset, fed as random
   chunks that alternate between [update] on a copy and [update_bytes]
   straight from the window. *)
let kernels =
  [ ("default", Sha256.init); ("portable", Sha256.For_testing.init_portable) ]

let boundary_lengths = [ 0; 55; 56; 63; 64; 65; 119; 120 ]

let kernel_case =
  let open QCheck.Gen in
  let gen =
    let* len = oneof [ oneofl boundary_lengths; 0 -- 4160 ] in
    let* pre = 0 -- 7 in
    let* post = 0 -- 7 in
    let* data = string_size (return (pre + len + post)) in
    let* cuts = list_size (0 -- 4) (0 -- len) in
    return (data, pre, len, List.sort_uniq compare cuts)
  in
  QCheck.make gen ~print:(fun (data, pre, len, cuts) ->
      Printf.sprintf "size=%d off=%d len=%d cuts=[%s]" (String.length data) pre
        len (String.concat ";" (List.map string_of_int cuts)))

let hash_window init (data, pre, len, cuts) =
  let ctx = init () and src = Bytes.unsafe_of_string data in
  let feed i (a, b) =
    if i land 1 = 0 then Sha256.update ctx (String.sub data (pre + a) (b - a))
    else Sha256.update_bytes ctx src ~off:(pre + a) ~len:(b - a)
  in
  let bounds = (0 :: cuts) @ [ len ] in
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  List.iteri feed (pairs bounds);
  Sha256.finalize ctx

let qcheck_sha256_kernels =
  QCheck.Test.make ~name:"sha256 kernels = reference (lengths 0-4160, splits)"
    ~count:300 kernel_case (fun ((data, pre, len, _) as case) ->
      let want = Sha256_ref.digest (String.sub data pre len) in
      List.for_all (fun (_, init) -> String.equal (hash_window init case) want) kernels)

(* Two pool domains hash at once, through both kernels and through one
   shared HMAC key, and must give the sequential answers: the stub keeps
   no state between calls and a key is never mutated. *)
let test_sha256_concurrent_domains () =
  let key = Hmac.key "shared across domains" in
  let task i () =
    List.init 40 (fun j ->
        let s = String.init ((i * 97) + (j * 13)) (fun k -> Char.chr ((i + j + k) land 0xff)) in
        let ctx = Sha256.For_testing.init_portable () in
        Sha256.update ctx s;
        (Sha256.digest s, Sha256.finalize ctx, Hmac.mac key s))
  in
  let tasks = List.init 8 task in
  let sequential = List.map (fun f -> f ()) tasks in
  let pool = Bp_parallel.Pool.create ~jobs:2 in
  let parallel =
    Fun.protect ~finally:(fun () -> Bp_parallel.Pool.shutdown pool) (fun () ->
        Bp_parallel.Pool.run pool tasks)
  in
  Alcotest.(check bool) "parallel = sequential" true (parallel = sequential)

let crc32_bitwise s =
  let crc = ref 0xffffffff in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xedb88320 else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xffffffff)

let qcheck_crc32_differential =
  QCheck.Test.make ~name:"crc32 = bitwise reference (inputs to 1 MiB)" ~count:12
    big_input_gen
    (fun s -> Crc32.string s = crc32_bitwise s)

let qcheck_sha256_deterministic =
  QCheck.Test.make ~name:"sha256 deterministic & 32 bytes" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> Sha256.digest s = Sha256.digest s && String.length (Sha256.digest s) = 32)

(* HMAC from its RFC 2104 definition over the reference hash. *)
let hmac_ref ~key msg =
  let key = if String.length key > 64 then Sha256_ref.digest key else key in
  let pad byte =
    String.init 64 (fun i ->
        let c = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (c lxor byte))
  in
  Sha256_ref.digest (pad 0x5c ^ Sha256_ref.digest (pad 0x36 ^ msg))

let test_hmac_precomputed_key () =
  for n = 0 to 130 do
    let secret = String.init n (fun i -> Char.chr (((i * 7) + n) land 0xff)) in
    let k = Hmac.key secret in
    List.iter
      (fun len ->
        let msg = String.make len 'm' in
        let tag = Hmac.mac k msg in
        Alcotest.(check string) (Printf.sprintf "key %d msg %d = sha256" n len)
          (Hmac.sha256 ~key:secret msg) tag;
        Alcotest.(check string) (Printf.sprintf "key %d msg %d = rfc" n len)
          (hmac_ref ~key:secret msg) tag)
      [ 0; 1; 55; 64; 200 ]
  done

let qcheck_hmac_key_separation =
  QCheck.Test.make ~name:"hmac distinct keys give distinct tags" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 32)) (string_of_size Gen.(0 -- 64)))
    (fun (key, msg) ->
      Hmac.sha256 ~key msg <> Hmac.sha256 ~key:(key ^ "!") msg)

let qcheck_merkle_inclusion =
  QCheck.Test.make ~name:"merkle proofs verify for random forests" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 20) (string_of_size Gen.(0 -- 16))) small_nat)
    (fun (leaves, i) ->
      let i = i mod List.length leaves in
      let root = Merkle.root leaves in
      Merkle.verify ~root ~leaf:(List.nth leaves i) (Merkle.prove leaves i))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "crypto.sha256",
      [
        tc "NIST vectors" test_sha256_vectors;
        tc "million a" test_sha256_million_a;
        tc "incremental = one-shot" test_sha256_incremental_equals_oneshot;
        tc "block boundaries" test_sha256_block_boundaries;
        tc "digest_list" test_sha256_digest_list;
        tc "reference passes NIST vectors" test_sha256_ref_vectors;
        QCheck_alcotest.to_alcotest qcheck_sha256_deterministic;
        QCheck_alcotest.to_alcotest qcheck_sha256_differential;
        QCheck_alcotest.to_alcotest qcheck_sha256_incremental_differential;
        QCheck_alcotest.to_alcotest qcheck_sha256_kernels;
        tc "concurrent domains = sequential" test_sha256_concurrent_domains;
      ] );
    ( "crypto.hmac",
      [
        tc "RFC 4231 vectors" test_hmac_rfc4231;
        tc "long key" test_hmac_long_key;
        tc "verify accepts/rejects" test_hmac_verify;
        tc "precomputed key = one-shot = RFC" test_hmac_precomputed_key;
        QCheck_alcotest.to_alcotest qcheck_hmac_key_separation;
      ] );
    ( "crypto.crc32",
      [
        tc "known vectors" test_crc32_vectors;
        tc "incremental" test_crc32_incremental;
        tc "detects bit flip" test_crc32_detects_flip;
        QCheck_alcotest.to_alcotest qcheck_crc32_differential;
      ] );
    ( "crypto.merkle",
      [
        tc "empty and single" test_merkle_empty_and_single;
        tc "proofs at every position" test_merkle_proof_all_positions;
        tc "rejects wrong leaf" test_merkle_rejects_wrong_leaf;
        tc "rejects wrong root" test_merkle_rejects_wrong_root;
        tc "order matters" test_merkle_order_matters;
        QCheck_alcotest.to_alcotest qcheck_merkle_inclusion;
      ] );
    ( "crypto.lamport",
      [
        tc "sign/verify" test_lamport_sign_verify;
        tc "rejects cross key" test_lamport_rejects_cross_key;
        tc "encode roundtrip" test_lamport_encode_roundtrip;
        tc "decode garbage" test_lamport_decode_garbage;
      ] );
    ( "crypto.merkle_sig",
      [
        tc "many signatures + exhaustion" test_merkle_sig_many;
        tc "encode roundtrip" test_merkle_sig_encode_roundtrip;
      ] );
    ( "crypto.signer",
      [
        tc "hmac scheme" test_signer_hmac_scheme;
        tc "hash-based scheme" test_signer_hash_based_scheme;
        tc "hash-based rollover" test_signer_hash_based_rollover;
        tc "idempotent registration" test_signer_idempotent_registration;
      ] );
  ]
