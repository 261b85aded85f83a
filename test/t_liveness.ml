(* Fault-free liveness across units: with no faults injected, no replica
   may ever suspect its primary, and node 0 of every unit (the node [Api]
   observes the log through) must keep up with its peers. Every node of a
   destination unit submits its own copy of each incoming [Recv]; once
   one copy executes the others turn invalid, and a copy the primary
   screened out without answering used to fire its request timer and
   start a view-change cascade. *)

open Bp_sim
open Blockplane
open Bp_harness

(* Every node of every unit is still in view 0, never suspected its
   primary and holds no request timer, and each unit's node 0 has
   executed as many records as the most advanced of its peers. *)
let check_no_stall dep =
  for p = 0 to Deployment.n_participants dep - 1 do
    let nodes = Deployment.nodes_of dep p in
    let len n = Bp_storage.Log_store.length (Unit_node.log n) in
    Array.iteri
      (fun i n ->
        let r = Unit_node.replica n in
        Alcotest.(check int) (Printf.sprintf "unit %d node %d in view 0" p i) 0
          (Bp_pbft.Replica.view r);
        Alcotest.(check bool)
          (Printf.sprintf "unit %d node %d never suspected its primary" p i)
          true (Bp_pbft.Replica.is_normal r);
        Alcotest.(check int)
          (Printf.sprintf "unit %d node %d holds no request timer" p i)
          0
          (Bp_pbft.Replica.armed_request_timers r))
      nodes;
    Alcotest.(check int)
      (Printf.sprintf "unit %d node 0 level with its peers" p)
      (Array.fold_left (fun m n -> max m (len n)) 0 nodes)
      (len nodes.(0));
    Alcotest.(check bool) (Printf.sprintf "unit %d logs agree" p) true
      (Deployment.logs_agree dep p)
  done

(* Byzantized Paxos with the leader at participant 0: a closed loop of
   replications, one outstanding at a time. *)
let test_paxos_closed_loop () =
  let n = 200 in
  let w =
    Runner.fresh_world ~seed:3101L ~n_participants:4
      ~app:(fun () -> App.make (module Bp_apps.Byz_paxos.Protocol))
      ()
  in
  let drivers =
    Array.init 4 (fun p -> Bp_apps.Byz_paxos.attach (Deployment.api w.Runner.dep p) ~n_participants:4)
  in
  let ok = ref 0 and failed = ref 0 in
  let rec next i =
    if i < n then
      Bp_apps.Byz_paxos.replicate drivers.(0) (Printf.sprintf "value-%d" i)
        ~on_result:(fun success ->
          if success then incr ok else incr failed;
          next (i + 1))
  in
  Bp_apps.Byz_paxos.elect drivers.(0) ~on_elected:(fun elected ->
      Alcotest.(check bool) "leader elected" true elected;
      next 0);
  (* One replication is a WAN round of about 72 ms, so 200 take about
     15 s; a replication caught in the stall took seconds. *)
  Engine.run ~until:(Time.of_sec 20.0) w.Runner.engine;
  Alcotest.(check int) "every replication succeeded" n !ok;
  Alcotest.(check int) "no replication failed" 0 !failed;
  check_no_stall w.Runner.dep

(* Four shard units with the d8mf16 batch-cut policy (depth 8, cut at
   16 requests or after 0.25 ms) and a mix of single-shard and
   cross-shard transactions. *)
let test_two_phase_mix () =
  let units = 4 in
  let map =
    Shard.make
      ~policy:(Shard.Range (Array.init (units - 1) (fun i -> Printf.sprintf "s%02d" (i + 1))))
      ~shards:units ()
  in
  let w =
    Runner.fresh_world ~fi:1 ~seed:3102L ~n_participants:units ~shard_map:map
      ~max_in_flight:8 ~batch_min_fill:16 ~batch_hold:(Time.of_ms 0.25) ()
  in
  let router = Deployment.shard_router w.Runner.dep in
  let n = 1200 in
  let done_ = ref 0 and aborted = ref 0 in
  (* One transaction every 125 us, 2k/s per unit; every fifth spans two
     shards. Below about a thousand transactions at this rate the stall
     did not show. *)
  for i = 0 to n - 1 do
    let shards = if i mod 5 = 0 then [ i mod units; (i + 1) mod units ] else [ i mod units ] in
    let ops = List.map (fun s -> (Shard.key_for map ~shard:s ~salt:i, Printf.sprintf "op-%d" i)) shards in
    ignore
      (Engine.schedule w.Runner.engine ~after:(Time.of_us (125 * i)) (fun () ->
           Shard.submit router ops
             ~on_aborted:(fun () -> incr aborted)
             ~on_done:(fun () -> incr done_)))
  done;
  Engine.run ~until:(Time.of_sec 10.0) w.Runner.engine;
  Alcotest.(check int) "every transaction done" n !done_;
  Alcotest.(check int) "no transaction aborted" 0 !aborted;
  check_no_stall w.Runner.dep;
  for p = 0 to units - 1 do
    Alcotest.(check int) (Printf.sprintf "unit %d staging drained" p) 0
      (Api.xs_staged (Deployment.api w.Runner.dep p))
  done

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "liveness.fault_free",
      [
        tc "byz-paxos closed loop, 200 replications" test_paxos_closed_loop;
        tc "cross-shard 2PC mix" test_two_phase_mix;
      ] );
  ]
