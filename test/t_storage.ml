open Bp_storage

let test_log_append_get () =
  let l = Log_store.create () in
  let e0 = Log_store.append l "first" in
  let e1 = Log_store.append l "second" in
  Alcotest.(check int) "indices" 0 e0.Log_store.index;
  Alcotest.(check int) "indices" 1 e1.Log_store.index;
  Alcotest.(check int) "length" 2 (Log_store.length l);
  Alcotest.(check (option string)) "get payload" (Some "second")
    (Option.map (fun e -> e.Log_store.payload) (Log_store.get l 1));
  Alcotest.(check (option string)) "out of range" None
    (Option.map (fun e -> e.Log_store.payload) (Log_store.get l 2))

let test_log_chain_digests_prefix () =
  let a = Log_store.create () and b = Log_store.create () in
  List.iter (fun p -> ignore (Log_store.append a p)) [ "x"; "y"; "z" ];
  List.iter (fun p -> ignore (Log_store.append b p)) [ "x"; "y" ];
  Alcotest.(check string) "same prefix digest" (Log_store.digest_at a 2)
    (Log_store.last_digest b);
  ignore (Log_store.append b "DIFFERENT");
  Alcotest.(check bool) "diverged" false
    (String.equal (Log_store.last_digest a) (Log_store.last_digest b))

let test_log_digest_depends_on_order () =
  let a = Log_store.create () and b = Log_store.create () in
  List.iter (fun p -> ignore (Log_store.append a p)) [ "x"; "y" ];
  List.iter (fun p -> ignore (Log_store.append b p)) [ "y"; "x" ];
  Alcotest.(check bool) "order sensitive" false
    (String.equal (Log_store.last_digest a) (Log_store.last_digest b))

let test_log_verify_chain_detects_tamper () =
  let l = Log_store.create () in
  List.iter (fun p -> ignore (Log_store.append l p)) [ "a"; "b"; "c" ];
  Alcotest.(check bool) "clean" true (Log_store.verify_chain l);
  Log_store.tamper l 1 "evil";
  Alcotest.(check bool) "tampered" false (Log_store.verify_chain l)

let test_log_iter_from () =
  let l = Log_store.create () in
  List.iter (fun p -> ignore (Log_store.append l p)) [ "a"; "b"; "c"; "d" ];
  let seen = ref [] in
  Log_store.iter_from l 2 (fun e -> seen := e.Log_store.payload :: !seen);
  Alcotest.(check (list string)) "suffix" [ "c"; "d" ] (List.rev !seen)

let test_log_growth () =
  let l = Log_store.create () in
  for i = 0 to 999 do
    ignore (Log_store.append l (string_of_int i))
  done;
  Alcotest.(check int) "length" 1000 (Log_store.length l);
  Alcotest.(check string) "spot check" "577" (Log_store.payload_exn l 577);
  Alcotest.(check bool) "chain intact" true (Log_store.verify_chain l)

let test_wal_roundtrip () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "one"; "two"; "three" ];
  let w', discarded = Wal.of_contents (Wal.contents w) in
  Alcotest.(check (list string)) "records" [ "one"; "two"; "three" ] (Wal.records w');
  Alcotest.(check int) "nothing discarded" 0 discarded

let test_wal_empty () =
  let w, discarded = Wal.of_contents "" in
  Alcotest.(check (list string)) "empty" [] (Wal.records w);
  Alcotest.(check int) "none discarded" 0 discarded

let test_wal_torn_tail () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "one"; "two"; "three" ];
  (* Lose part of the last record. *)
  let w' = Wal.truncate_tail w 2 in
  Alcotest.(check (list string)) "durable prefix" [ "one"; "two" ] (Wal.records w')

let test_wal_corrupt_middle_loses_suffix () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "aaaa"; "bbbb"; "cccc" ];
  (* Corrupt a byte inside the second record's payload. *)
  let off = (2 * Bp_codec.Frame.overhead) + 4 + 2 in
  let w' = Wal.corrupt_byte w off in
  Alcotest.(check (list string)) "prefix before corruption" [ "aaaa" ] (Wal.records w')

let test_wal_total_loss () =
  let w = Wal.create () in
  Wal.append w "only";
  let w' = Wal.truncate_tail w (Wal.size w) in
  Alcotest.(check (list string)) "nothing" [] (Wal.records w')

let test_wal_garbage_prefix () =
  let w, discarded = Wal.of_contents "totally not a wal" in
  Alcotest.(check (list string)) "no records" [] (Wal.records w);
  Alcotest.(check bool) "discards counted" true (discarded > 0)

let test_kv_basic_ops () =
  let kv = Kv.create () in
  Alcotest.(check bool) "put" true (Kv.apply kv (Kv.Put ("a", "1")) = Kv.Applied);
  Alcotest.(check (option string)) "get" (Some "1") (Kv.get kv "a");
  Alcotest.(check bool) "delete" true (Kv.apply kv (Kv.Delete "a") = Kv.Applied);
  Alcotest.(check (option string)) "gone" None (Kv.get kv "a")

let test_kv_delete_missing_fails () =
  let kv = Kv.create () in
  (match Kv.apply kv (Kv.Delete "nope") with
  | Kv.Failed _ -> ()
  | Kv.Applied -> Alcotest.fail "expected failure");
  Alcotest.(check bool) "can_apply agrees" false (Kv.can_apply kv (Kv.Delete "nope"))

let test_kv_add () =
  let kv = Kv.create () in
  ignore (Kv.apply kv (Kv.Add ("n", 5)));
  ignore (Kv.apply kv (Kv.Add ("n", -2)));
  Alcotest.(check (option string)) "sum" (Some "3") (Kv.get kv "n");
  ignore (Kv.apply kv (Kv.Put ("s", "abc")));
  match Kv.apply kv (Kv.Add ("s", 1)) with
  | Kv.Failed _ -> ()
  | Kv.Applied -> Alcotest.fail "add on non-numeric applied"

let test_kv_cas () =
  let kv = Kv.create () in
  Alcotest.(check bool) "cas absent ok" true
    (Kv.apply kv (Kv.Cas ("k", None, "v1")) = Kv.Applied);
  Alcotest.(check bool) "cas with wrong expectation fails" true
    (match Kv.apply kv (Kv.Cas ("k", Some "other", "v2")) with
    | Kv.Failed _ -> true
    | Kv.Applied -> false);
  Alcotest.(check (option string)) "unchanged" (Some "v1") (Kv.get kv "k");
  Alcotest.(check bool) "cas right expectation" true
    (Kv.apply kv (Kv.Cas ("k", Some "v1", "v2")) = Kv.Applied);
  Alcotest.(check (option string)) "swapped" (Some "v2") (Kv.get kv "k")

let test_kv_failed_leaves_state () =
  let kv = Kv.create () in
  ignore (Kv.apply kv (Kv.Put ("x", "1")));
  let before = Kv.digest kv in
  ignore (Kv.apply kv (Kv.Cas ("x", Some "9", "2")));
  Alcotest.(check string) "digest unchanged" before (Kv.digest kv)

let test_kv_digest_equality () =
  let a = Kv.create () and b = Kv.create () in
  ignore (Kv.apply a (Kv.Put ("k1", "v1")));
  ignore (Kv.apply a (Kv.Put ("k2", "v2")));
  ignore (Kv.apply b (Kv.Put ("k2", "v2")));
  ignore (Kv.apply b (Kv.Put ("k1", "v1")));
  Alcotest.(check string) "insertion order irrelevant" (Kv.digest a) (Kv.digest b);
  ignore (Kv.apply b (Kv.Put ("k3", "v3")));
  Alcotest.(check bool) "state-sensitive" false
    (String.equal (Kv.digest a) (Kv.digest b))

let test_kv_copy_isolated () =
  let a = Kv.create () in
  ignore (Kv.apply a (Kv.Put ("k", "v")));
  let b = Kv.copy a in
  ignore (Kv.apply b (Kv.Put ("k", "changed")));
  Alcotest.(check (option string)) "original untouched" (Some "v") (Kv.get a "k")

let test_kv_op_codec_roundtrip () =
  List.iter
    (fun op ->
      match Kv.decode_op (Kv.encode_op op) with
      | Ok op' -> Alcotest.(check bool) "roundtrip" true (op = op')
      | Error e -> Alcotest.fail e)
    [
      Kv.Put ("key", "value");
      Kv.Delete "key";
      Kv.Add ("ctr", -17);
      Kv.Cas ("k", None, "v");
      Kv.Cas ("k", Some "old", "new");
    ]

let test_kv_decode_garbage () =
  match Kv.decode_op "\xffgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded"

let qcheck_kv_apply_deterministic =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> Kv.Put (k, v)) (string_size (1 -- 4)) (string_size (0 -- 4));
          map (fun k -> Kv.Delete k) (string_size (1 -- 4));
          map2 (fun k n -> Kv.Add (k, n)) (string_size (1 -- 4)) (int_range (-10) 10);
        ])
  in
  QCheck.Test.make ~name:"replaying ops gives identical digests" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 30) op_gen))
    (fun ops ->
      let a = Kv.create () and b = Kv.create () in
      List.iter (fun op -> ignore (Kv.apply a op)) ops;
      List.iter (fun op -> ignore (Kv.apply b op)) ops;
      String.equal (Kv.digest a) (Kv.digest b))

let qcheck_wal_recovery_prefix =
  QCheck.Test.make ~name:"wal recovery yields a prefix" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 10) (string_of_size Gen.(0 -- 20))) small_nat)
    (fun (recs, cut) ->
      let w = Wal.create () in
      List.iter (Wal.append w) recs;
      let w' = Wal.truncate_tail w (cut mod (Wal.size w + 1)) in
      let recovered = Wal.records w' in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      is_prefix recovered recs)

(* The image is rebuilt from the records on demand; it must be exactly
   the framed records back to back, with [size] its length, before and
   after either kind of damage. *)
let qcheck_wal_image_is_framed_records =
  QCheck.Test.make ~name:"wal image = sealed records" ~count:200
    QCheck.(
      triple (list_of_size Gen.(0 -- 10) (string_of_size Gen.(0 -- 20))) small_nat small_nat)
    (fun (recs, cut, flip) ->
      let framed w =
        String.equal (Wal.contents w)
          (String.concat "" (List.map Bp_codec.Frame.seal (Wal.records w)))
        && Wal.size w = String.length (Wal.contents w)
      in
      let w = Wal.create () in
      List.iter (Wal.append w) recs;
      let size = Wal.size w in
      framed w
      && List.equal String.equal (Wal.records w) recs
      && framed (Wal.truncate_tail w (cut mod (size + 1)))
      && (size = 0 || framed (Wal.corrupt_byte w (flip mod size))))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "storage.log_store",
      [
        tc "append/get" test_log_append_get;
        tc "chain digests prefixes" test_log_chain_digests_prefix;
        tc "digest order-sensitive" test_log_digest_depends_on_order;
        tc "verify detects tamper" test_log_verify_chain_detects_tamper;
        tc "iter_from" test_log_iter_from;
        tc "growth" test_log_growth;
      ] );
    ( "storage.wal",
      [
        tc "roundtrip" test_wal_roundtrip;
        tc "empty image" test_wal_empty;
        tc "torn tail" test_wal_torn_tail;
        tc "corruption loses suffix only" test_wal_corrupt_middle_loses_suffix;
        tc "total loss" test_wal_total_loss;
        tc "garbage prefix" test_wal_garbage_prefix;
        QCheck_alcotest.to_alcotest qcheck_wal_recovery_prefix;
        QCheck_alcotest.to_alcotest qcheck_wal_image_is_framed_records;
      ] );
    ( "storage.kv",
      [
        tc "basic ops" test_kv_basic_ops;
        tc "delete missing fails" test_kv_delete_missing_fails;
        tc "numeric add" test_kv_add;
        tc "cas" test_kv_cas;
        tc "failed op leaves state" test_kv_failed_leaves_state;
        tc "digest equality" test_kv_digest_equality;
        tc "copy isolation" test_kv_copy_isolated;
        tc "op codec roundtrip" test_kv_op_codec_roundtrip;
        tc "decode garbage" test_kv_decode_garbage;
        QCheck_alcotest.to_alcotest qcheck_kv_apply_deterministic;
      ] );
  ]
