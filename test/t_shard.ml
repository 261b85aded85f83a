(* Tests for the keyspace shard map and the cross-shard BFT two-phase
   commit: routing properties of hash/range maps, atomicity and
   determinism of cross-shard transactions on adversary-free schedules
   (qcheck), the abort downgrade when a participant shard rejects its
   prepare, the shard and batch knobs (validation, clamping,
   composition with the batch-cut policy), and the 1-shard byte-identity
   of the golden table2 under any --shards knob. *)

open Bp_sim
open Blockplane

(* --- a recording app: describe() lists every applied payload --- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

module Recorder = struct
  type state = { mutable applied : string list }

  let create () = { applied = [] }

  (* The verification routine IS a participant's 2PC vote: a poisoned op
     inside a cross-shard prepare makes this shard vote NO. *)
  let verify _ = function
    | Record.Commit p -> not (contains ~sub:"poison" p)
    | _ -> true

  let apply st = function
    | Record.Commit p -> st.applied <- p :: st.applied
    | _ -> ()

  let digest st = String.concat ";" (List.rev st.applied)
  let describe = digest
end

type world = { engine : Engine.t; dep : Deployment.t }

let make_world ?policy ?(seed = 77L) ~shards () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let map = Shard.make ?policy ~shards () in
  let dep =
    Deployment.create ~network:net ~n_participants:shards ~fi:1
      ~app:(fun () -> App.make (module Recorder))
      ~shard_map:map ()
  in
  { engine; dep }

let applied_at w p = App.describe (Unit_node.app (Deployment.node w.dep p 0))

let run w = Engine.run ~until:(Time.of_sec 10.0) w.engine

(* --- shard map routing --- *)

let test_map_basics () =
  let h4 = Shard.make ~shards:4 () in
  Alcotest.(check int) "shards" 4 (Shard.shards h4);
  for i = 0 to 199 do
    let s = Shard.shard_of_key h4 (Printf.sprintf "key-%d" i) in
    Alcotest.(check bool) "hash shard in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "hash deterministic" s
      (Shard.shard_of_key h4 (Printf.sprintf "key-%d" i))
  done;
  let one = Shard.make ~shards:1 () in
  Alcotest.(check int) "one shard owns everything" 0
    (Shard.shard_of_key one "anything");
  let r = Shard.make ~policy:(Shard.Range [| "b"; "c" |]) ~shards:3 () in
  Alcotest.(check int) "below first split" 0 (Shard.shard_of_key r "aardvark");
  Alcotest.(check int) "at a split point" 1 (Shard.shard_of_key r "b");
  Alcotest.(check int) "between splits" 1 (Shard.shard_of_key r "bzzz");
  Alcotest.(check int) "above last split" 2 (Shard.shard_of_key r "zebra");
  Alcotest.(check (list int)) "shards_of_keys sorted distinct" [ 0; 2 ]
    (Shard.shards_of_keys r [ "zzz"; "a"; "aa"; "z" ]);
  Alcotest.(check int) "coordinator = min shard" 1
    (Shard.coordinator r [ 2; 1 ]);
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero shards rejected" true
    (raises (fun () -> Shard.make ~shards:0 ()));
  Alcotest.(check bool) "wrong split count rejected" true
    (raises (fun () -> Shard.make ~policy:(Shard.Range [| "m" |]) ~shards:3 ()));
  Alcotest.(check bool) "non-ascending splits rejected" true
    (raises (fun () -> Shard.make ~policy:(Shard.Range [| "m"; "m" |]) ~shards:3 ()))

let key_for_roundtrip =
  QCheck.Test.make ~count:200 ~name:"key_for lands on its shard"
    QCheck.(triple (int_range 1 16) (int_range 0 1_000_000) bool)
    (fun (shards, salt, use_range) ->
      let policy =
        if use_range then
          Shard.Range (Array.init (shards - 1) (fun i -> Printf.sprintf "s%02d" (i + 1)))
        else Shard.Hash
      in
      let m = Shard.make ~policy ~shards () in
      List.for_all
        (fun shard -> Shard.shard_of_key m (Shard.key_for m ~shard ~salt) = shard)
        (List.init shards Fun.id))

(* --- cross-shard commit: concrete atomicity --- *)

let range4 = Shard.Range [| "b"; "c"; "d" |]

let test_cross_shard_commit () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let submit ops =
    Shard.submit router
      ~on_aborted:(fun () -> incr aborted)
      ~on_done:(fun () -> incr done_count)
      ops
  in
  submit [ ("a1", "op-t1") ];
  submit [ ("a2", "op-t2a"); ("a3", "op-t2b") ];
  submit [ ("a4", "op-t3a"); ("b1", "op-t3b") ];
  submit [ ("b2", "op-t4a"); ("c1", "op-t4b"); ("d1", "op-t4c") ];
  run w;
  Alcotest.(check int) "all four done" 4 !done_count;
  Alcotest.(check int) "no aborts" 0 !aborted;
  let st = Shard.stats router in
  Alcotest.(check int) "single-shard submissions" 2 st.Shard.single_shard;
  Alcotest.(check int) "cross-shard submissions" 2 st.Shard.cross_shard;
  Alcotest.(check int) "cross-shard commits" 2 st.Shard.committed;
  Alcotest.(check int) "no timeouts" 0 st.Shard.timeouts;
  (* Each op landed exactly on its owning shard... *)
  let s0 = applied_at w 0 and s1 = applied_at w 1 in
  let s2 = applied_at w 2 and s3 = applied_at w 3 in
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " on shard 0") true (contains ~sub:op s0))
    [ "op-t1"; "op-t2a"; "op-t2b"; "op-t3a" ];
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " on shard 1") true (contains ~sub:op s1))
    [ "op-t3b"; "op-t4a" ];
  Alcotest.(check bool) "op-t4b on shard 2" true (contains ~sub:"op-t4b" s2);
  Alcotest.(check bool) "op-t4c on shard 3" true (contains ~sub:"op-t4c" s3);
  (* ...and nowhere else. *)
  Alcotest.(check bool) "shard 0 has no foreign ops" false
    (contains ~sub:"op-t3b" s0 || contains ~sub:"op-t4a" s0);
  Alcotest.(check bool) "shard 1 has no foreign ops" false
    (contains ~sub:"op-t1" s1 || contains ~sub:"op-t4b" s1);
  (* Single-shard multi-op transactions preserve submission order. *)
  Alcotest.(check bool) "t2 ops in order" true
    (contains ~sub:"op-t2a;op-t2b" s0
    || contains ~sub:"op-t2a" s0 && contains ~sub:"op-t2b" s0);
  for p = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "participant %d replicas agree" p)
      true
      (Deployment.app_digests_agree w.dep p);
    Alcotest.(check int)
      (Printf.sprintf "participant %d staging drained" p)
      0
      (Api.xs_staged (Deployment.api w.dep p))
  done

(* --- abort downgrade: a rejected prepare is a NO vote --- *)

let test_cross_shard_abort () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-ok"); ("b1", "poison-op") ];
  run w;
  Alcotest.(check int) "aborted once" 1 !aborted;
  Alcotest.(check int) "never completed" 0 !done_count;
  let st = Shard.stats router in
  Alcotest.(check int) "abort counted" 1 st.Shard.aborted;
  Alcotest.(check int) "rejection counted" 1 st.Shard.prepares_rejected;
  Alcotest.(check int) "no commit" 0 st.Shard.committed;
  (* Atomic: the clean op on shard 0 must not survive its partner's NO. *)
  Alcotest.(check bool) "no partial application" false
    (contains ~sub:"op-ok" (applied_at w 0)
    || contains ~sub:"poison" (applied_at w 1));
  for p = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "participant %d staging drained" p)
      0
      (Api.xs_staged (Deployment.api w.dep p))
  done

(* --- qcheck: adversary-free schedules commit atomically and
       deterministically --- *)

type txn = { salts : (int * int) list (* (shard, salt) *) }

let gen_schedule =
  QCheck.Gen.(
    let* shards = int_range 2 4 in
    let* n_txns = int_range 1 10 in
    let txn =
      let* width = int_range 1 (min 3 shards) in
      let* first = int_range 0 (shards - 1) in
      let* salt = int_range 0 9999 in
      (* [width] distinct shards starting at a random one, wrapping. *)
      return { salts = List.init width (fun i -> ((first + i) mod shards, salt + i)) }
    in
    let* txns = list_repeat n_txns txn in
    let* seed = int_range 1 100_000 in
    return (shards, txns, seed))

let run_schedule (shards, txns, seed) =
  let policy =
    Shard.Range (Array.init (shards - 1) (fun i -> Printf.sprintf "s%02d" (i + 1)))
  in
  let w = make_world ~policy ~seed:(Int64.of_int seed) ~shards () in
  let router = Deployment.shard_router w.dep in
  let map = Deployment.shard_map w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  List.iteri
    (fun i txn ->
      let ops =
        List.map
          (fun (s, salt) ->
            (Shard.key_for map ~shard:s ~salt, Printf.sprintf "op-%d-s%d" i s))
          txn.salts
      in
      Shard.submit router
        ~on_aborted:(fun () -> incr aborted)
        ~on_done:(fun () -> incr done_count)
        ops)
    txns;
  run w;
  let states = List.init shards (applied_at w) in
  (!done_count, !aborted, Shard.stats router, states)

let atomic_deterministic =
  QCheck.Test.make ~count:12 ~name:"cross-shard 2PC atomic + deterministic"
    (QCheck.make gen_schedule) (fun ((shards, txns, _) as sched) ->
      let done1, aborted1, st1, states1 = run_schedule sched in
      (* Adversary-free: every transaction commits, none abort. *)
      done1 = List.length txns
      && aborted1 = 0
      && st1.Shard.aborted = 0
      && st1.Shard.timeouts = 0
      && st1.Shard.single_shard + st1.Shard.cross_shard = List.length txns
      (* Atomic: every op of every txn landed exactly on its own shard. *)
      && List.for_all2
           (fun i txn ->
             List.for_all
               (fun (s, _salt) ->
                 let op = Printf.sprintf "op-%d-s%d" i s in
                 List.for_all2
                   (fun p state -> contains ~sub:op state = (p = s))
                   (List.init shards Fun.id)
                   states1)
               txn.salts)
           (List.init (List.length txns) Fun.id)
           txns
      (* Deterministic: an identical world replays to identical state. *)
      &&
      let done2, aborted2, st2, states2 = run_schedule sched in
      done1 = done2 && aborted1 = aborted2 && st1 = st2 && states1 = states2)

(* --- Knobs: validation, clamping, composition --- *)

let test_runner_knobs () =
  let module Knobs = Bp_harness.Knobs in
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  let rejected k = Result.is_error (Knobs.validate k) in
  let d = Knobs.default in
  Alcotest.(check bool) "shards 0 rejected" true (rejected { d with shards = 0 });
  Alcotest.(check bool) "min-fill 0 rejected" true
    (rejected { d with batch_min_fill = Some 0 });
  (* No knob can carry a negative hold: Time.t refuses to be one. *)
  Alcotest.(check bool) "negative hold rejected" true
    (raises (fun () -> { d with batch_hold = Some (Time.of_ms (-1.0)) }));
  (* The knob's shard count clamps to small fixed worlds... *)
  let knobs = { d with shards = 3 } in
  let w = Bp_harness.Runner.fresh_world ~knobs ~n_participants:2 () in
  Alcotest.(check int) "default shards clamped to participants" 2
    (Shard.shards (Deployment.shard_map w.Bp_harness.Runner.dep));
  (* ...an explicit per-world shard count never clamps. *)
  Alcotest.(check bool) "explicit shards > participants rejected" true
    (raises (fun () ->
         Bp_harness.Runner.fresh_world ~knobs ~shards:8 ~n_participants:4 ()));
  (* Batch knobs compose: the knob pair is valid together, and an
     explicit min-fill composes with the knob's hold instead of
     resetting it (1 + hold is a valid pair; 16 + zero would not be). *)
  let knobs =
    { d with batch_min_fill = Some 16; batch_hold = Some (Time.of_ms 0.25) }
  in
  Alcotest.(check bool) "composed knob pair valid" false (rejected knobs);
  let w = Bp_harness.Runner.fresh_world ~knobs ~n_participants:1 () in
  let api = Deployment.api w.Bp_harness.Runner.dep 0 in
  let ok = ref false in
  Api.log_commit api "knob-probe" ~on_done:(fun () -> ok := true);
  Engine.run ~until:(Time.of_sec 2.0) w.Bp_harness.Runner.engine;
  Alcotest.(check bool) "world under composed knobs commits" true !ok;
  ignore
    (Bp_harness.Runner.fresh_world ~knobs ~batch_min_fill:1 ~n_participants:1 ());
  (* At the default knobs, an explicit min-fill above 1 and no hold
     anywhere is the invalid pair — Config.make must see the COMPOSED
     pair and reject it. *)
  Alcotest.(check bool) "min-fill without any hold rejected" true
    (raises (fun () ->
         Bp_harness.Runner.fresh_world ~batch_min_fill:4 ~n_participants:1 ()))

(* --- 1-shard byte-identity: golden table2 under any --shards knob --- *)

(* Captured from the seed tree at scale 0.2 (the shape test's scale).
   table2 builds 1-participant worlds, so any --shards knob clamps to
   one shard and the router installs nothing: these bytes must not move
   at ANY --shards value. A diff here means the shard layer
   leaked into unsharded worlds — a bug, not a table to re-pin. *)
let table2_golden =
  "== table2: Local commitment vs unit size (batch 100 KB) ==\n\
   \   (Table II, SVIII-A)\n\
   +-----------+-----------------+--------------+---------------+------------+\n\
   | nodes     | MB/s (measured) | MB/s (paper) | ms (measured) | ms (paper) |\n\
   +===========+=================+==============+===============+============+\n\
   | 4 (fi=1)  | 61.5            | 83           | 1.6           | 1.2        |\n\
   | 7 (fi=2)  | 49.2            | 51           | 2.0           | 1.9        |\n\
   | 10 (fi=3) | 42.6            | 28           | 2.3           | 3.5        |\n\
   | 13 (fi=4) | 36.5            | 25           | 2.7           | 4          |\n\
   +-----------+-----------------+--------------+---------------+------------+\n\
   \   note: expected shape: throughput falls and latency rises with n\n"

let test_table2_golden_any_shards () =
  let render knobs =
    String.concat ""
      (List.map Bp_harness.Report.render
         (Bp_harness.Runner.run_plan
            (Bp_harness.Exp_local.table2_plan ~knobs ~scale:0.2)))
  in
  let d = Bp_harness.Knobs.default in
  Alcotest.(check string) "table2 bytes at default shards" table2_golden
    (render d);
  Alcotest.(check string) "table2 bytes under --shards 16" table2_golden
    (render { d with shards = 16 })

(* --- the shard sweep is bit-identical at any --jobs --- *)

let test_shard_sweep_jobs_deterministic () =
  let render_all pool =
    String.concat ""
      (List.map Bp_harness.Report.render
         (Bp_harness.Runner.run_plan ?pool
            (Bp_harness.Exp_shard.plan ~knobs:Bp_harness.Knobs.default ~scale:0.01)))
  in
  let seq = render_all None in
  let pool = Bp_parallel.Pool.create ~jobs:2 in
  let par =
    Fun.protect
      ~finally:(fun () -> Bp_parallel.Pool.shutdown pool)
      (fun () -> render_all (Some pool))
  in
  Alcotest.(check string) "jobs 1 == jobs 2, byte-identical" seq par

let suite =
  [
    ( "shard",
      let tc name f = Alcotest.test_case name `Quick f in
      [
        tc "map basics" test_map_basics;
        QCheck_alcotest.to_alcotest key_for_roundtrip;
        tc "cross-shard commit atomic" test_cross_shard_commit;
        tc "cross-shard abort atomic" test_cross_shard_abort;
        QCheck_alcotest.to_alcotest atomic_deterministic;
        tc "runner shard/batch knobs" test_runner_knobs;
        tc "table2 golden at any shards" test_table2_golden_any_shards;
        tc "shard sweep bit-identical across jobs"
          test_shard_sweep_jobs_deterministic;
      ] );
  ]
