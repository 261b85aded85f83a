open Bp_sim
open Bp_pbft

let ms = Time.of_ms

type cluster = {
  engine : Engine.t;
  net : Network.t;
  cfg : Config.t;
  replicas : Replica.t array;
  transports : Bp_net.Transport.t array;
  (* per-replica (seq, digest) execution records, for agreement checks *)
  executed : (int * string) list ref array;
}

(* A Blockplane-unit-like deployment: n replicas inside one datacenter
   (default), or spread one per datacenter with [geo]. *)
let make_cluster ?(n = 4) ?(geo = false) ?faults ?(seed = 31L)
    ?(request_timeout = ms 500.0) ?(checkpoint_interval = 32) ?batch_max
    ?watermark_window ?max_in_flight
    ?(execute = fun _replica ~seq:_ r -> "ok:" ^ r.Msg.op) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs =
    Array.init n (fun i ->
        if geo then Addr.make ~dc:(i mod 4) ~idx:0 else Addr.make ~dc:2 ~idx:i)
  in
  let cfg =
    Config.make ~nodes:addrs ~keystore ~request_timeout ~checkpoint_interval
      ?batch_max ?watermark_window ?max_in_flight ()
  in
  let executed = Array.init n (fun _ -> ref []) in
  let transports = Array.map (fun a -> Bp_net.Transport.create net a) addrs in
  let replicas =
    Array.init n (fun i ->
        let r =
          Replica.create transports.(i) cfg ~id:i ~execute:(execute i) ()
        in
        Replica.set_on_executed r (fun ~seq batch ->
            executed.(i) := (seq, Msg.batch_digest batch) :: !(executed.(i)));
        r)
  in
  { engine; net; cfg; replicas; transports; executed }

let make_client c ~dc ~idx =
  let addr = Addr.make ~dc ~idx in
  let transport = Bp_net.Transport.create c.net addr in
  Client.create transport c.cfg

(* Honest replicas must never execute different batches at one sequence. *)
let check_agreement c =
  let merged = Hashtbl.create 64 in
  Array.iteri
    (fun i log ->
      List.iter
        (fun (seq, digest) ->
          match Hashtbl.find_opt merged seq with
          | None -> Hashtbl.replace merged seq digest
          | Some d ->
              if not (String.equal d digest) then
                Alcotest.failf "divergent execution at seq %d (replica %d)" seq i)
        !log)
    c.executed

let test_msg_roundtrip () =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg = Config.make ~nodes:addrs ~keystore () in
  let r = Msg.make_request cfg ~client:(Addr.make ~dc:1 ~idx:9) ~ts:3 ~kind:1 ~op:"op" in
  Alcotest.(check bool) "request valid" true (Msg.request_valid cfg r);
  let bodies =
    [
      Msg.Request r;
      Msg.Pre_prepare { view = 0; seq = 1; digest = "d"; batch = [ r ] };
      Msg.Prepare { view = 0; seq = 1; digest = "d"; replica = 2 };
      Msg.Commit { view = 0; seq = 1; digest = "d"; replica = 2 };
      Msg.Reply
        { view = 0; ts = 3; client = r.Msg.client; replica = 1; result = "res" };
      Msg.Checkpoint { seq = 8; state_digest = "sd"; replica = 0 };
      Msg.View_change
        {
          Msg.new_view = 1;
          stable_seq = 0;
          stable_digest = "";
          prepared =
            [
              {
                Msg.pview = 0;
                pseq = 1;
                pdigest = "d";
                pbatch = [ r ];
                prepare_sigs = [ (1, "sig") ];
              };
            ];
          vc_replica = 3;
        };
      Msg.New_view
        { view = 1; view_change_envelopes = [ "vc" ]; batches = [ (1, "d", [ r ]) ]; replica = 1 };
    ]
  in
  List.iter
    (fun b ->
      match Msg.decode_body (Msg.encode_body b) with
      | Ok b' -> Alcotest.(check bool) "body roundtrip" true (b = b')
      | Error e -> Alcotest.fail e)
    bodies

let test_envelope_verification () =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg = Config.make ~nodes:addrs ~keystore () in
  let body = Msg.Prepare { view = 0; seq = 1; digest = "d"; replica = 2 } in
  (* Properly signed by replica 2. *)
  (match Msg.verify_envelope cfg (Msg.seal cfg ~sender:addrs.(2) body) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid envelope rejected: %s" e);
  (* Signed by replica 1 but claiming to be replica 2: impersonation. *)
  (match Msg.verify_envelope cfg (Msg.seal cfg ~sender:addrs.(1) body) with
  | Ok _ -> Alcotest.fail "impersonation accepted"
  | Error _ -> ());
  (* Garbage signature. *)
  match Msg.verify_envelope cfg (Msg.seal_forged cfg ~sender:addrs.(2) body) with
  | Ok _ -> Alcotest.fail "forged signature accepted"
  | Error _ -> ()

let test_normal_case_commit () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "hello" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "replicated result" "ok:hello" !result;
  Alcotest.(check int) "client satisfied" 0 (Client.in_flight client);
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d executed" i) 1
        (Replica.last_executed r))
    c.replicas;
  check_agreement c

let test_exec_chains_agree () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  for i = 1 to 20 do
    Client.submit client (Printf.sprintf "op-%d" i) ~on_result:ignore
  done;
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  let chain0 = Replica.exec_chain c.replicas.(0) in
  Array.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "chain %d" i)
        (Bp_util.Hex.encode chain0)
        (Bp_util.Hex.encode (Replica.exec_chain r)))
    c.replicas;
  Alcotest.(check int) "all executed" 20
    (List.fold_left (fun acc (_, d) -> acc + if String.length d > 0 then 1 else 0) 0
       []
    |> fun _ ->
    Array.fold_left (fun acc r -> Stdlib.max acc (Replica.last_executed r)) 0 c.replicas
    |> fun last -> if last > 0 then 20 else 0)
  |> ignore;
  check_agreement c

let test_batching_groups_requests () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let done_count = ref 0 in
  for i = 1 to 50 do
    Client.submit client (Printf.sprintf "op-%d" i) ~on_result:(fun _ -> incr done_count)
  done;
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  Alcotest.(check int) "all requests answered" 50 !done_count;
  (* Group commit: far fewer batches than requests. *)
  let batches = List.length !(c.executed.(0)) in
  Alcotest.(check bool)
    (Printf.sprintf "%d batches for 50 requests" batches)
    true (batches >= 2 && batches <= 10);
  check_agreement c

let test_local_commit_latency_about_1ms () =
  (* Fig. 4(a): intra-datacenter commit of a small batch within ~1 ms. *)
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let started = ref Time.zero and finished = ref Time.zero in
  ignore (Engine.schedule c.engine ~after:(ms 1.0) (fun () ->
      started := Engine.now c.engine;
      Client.submit client (String.make 1000 'x') ~on_result:(fun _ ->
          finished := Engine.now c.engine)));
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  let lat = Time.to_ms (Time.diff !finished !started) in
  Alcotest.(check bool)
    (Printf.sprintf "latency %.3fms in [0.5, 2.5]" lat)
    true
    (lat >= 0.5 && lat <= 2.5)

let test_backup_crash_tolerated () =
  let c = make_cluster () in
  Network.crash c.net (Addr.make ~dc:2 ~idx:3);
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "with-one-down" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "commits with f crashed" "ok:with-one-down" !result

let test_two_crashes_stall () =
  let c = make_cluster () in
  Network.crash c.net (Addr.make ~dc:2 ~idx:2);
  Network.crash c.net (Addr.make ~dc:2 ~idx:3);
  let client = make_client c ~dc:2 ~idx:100 in
  let got = ref false in
  Client.submit client "never" ~on_result:(fun _ -> got := true);
  Engine.run ~until:(Time.of_sec 3.0) c.engine;
  Alcotest.(check bool) "f+1 crashes stall the protocol" false !got

let test_byzantine_silent_commit_phase () =
  let c = make_cluster () in
  Replica.suppress_commit_votes c.replicas.(3) true;
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "quiet-byz" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "commits despite silent replica" "ok:quiet-byz" !result;
  check_agreement c

let test_primary_crash_view_change () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  Network.crash c.net (Addr.make ~dc:2 ~idx:0);
  let result = ref "" in
  Client.submit client "survive" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 10.0) c.engine;
  Alcotest.(check string) "request served after view change" "ok:survive" !result;
  Array.iteri
    (fun i r ->
      if i <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "replica %d moved past view 0" i)
          true
          (Replica.view r >= 1))
    c.replicas;
  check_agreement c

let test_view_change_preserves_committed () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let first = ref "" in
  Client.submit client "pre-crash" ~on_result:(fun r -> first := r);
  Engine.run ~until:(Time.of_sec 1.0) c.engine;
  Alcotest.(check string) "first committed" "ok:pre-crash" !first;
  Network.crash c.net (Addr.make ~dc:2 ~idx:0);
  let second = ref "" in
  Client.submit client "post-crash" ~on_result:(fun r -> second := r);
  Engine.run ~until:(Time.of_sec 10.0) c.engine;
  Alcotest.(check string) "second committed in new view" "ok:post-crash" !second;
  check_agreement c

let test_verification_routine_blocks_invalid () =
  (* Blockplane §IV-B: replicas run the verification routine before the
     commit vote; an op every honest replica rejects can never commit. *)
  let c = make_cluster () in
  Array.iter
    (fun r -> Replica.set_verifier r (fun ~kind ~op:_ -> kind <> 7))
    c.replicas;
  let client = make_client c ~dc:2 ~idx:100 in
  let bad = ref false and good = ref false in
  Client.submit client ~kind:7 "illegal" ~on_result:(fun _ -> bad := true);
  Client.submit client ~kind:0 "legal" ~on_result:(fun _ -> good := true);
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  Alcotest.(check bool) "illegal op never commits" false !bad;
  Alcotest.(check bool) "legal op commits" true !good;
  check_agreement c

(* A verification routine over application state: each op may execute
   once. Every replica keeps its own spent set, filled by its own
   executions, and counts how often the upcall ran. Stop-and-wait
   (depth 1), so a request that arrives while a slot is in flight waits
   in the primary's queue for the next cut. *)
let spend_once_cluster () =
  let spent = Array.init 4 (fun _ -> Hashtbl.create 8) in
  let runs = Array.make 4 0 in
  let c =
    make_cluster ~max_in_flight:1
      ~execute:(fun i ~seq:_ r ->
        Hashtbl.replace spent.(i) r.Msg.op ();
        runs.(i) <- runs.(i) + 1;
        "ok:" ^ r.Msg.op)
      ()
  in
  Array.iteri
    (fun i r ->
      Replica.set_verifier r (fun ~kind:_ ~op -> not (Hashtbl.mem spent.(i) op)))
    c.replicas;
  (c, runs)

(* Nobody suspected the primary and nothing is left waiting. *)
let check_quiet c =
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d still in view 0" i) 0 (Replica.view r);
      Alcotest.(check bool)
        (Printf.sprintf "replica %d never suspected the primary" i)
        true (Replica.is_normal r);
      Alcotest.(check int)
        (Printf.sprintf "replica %d holds no request timer" i)
        0
        (Replica.armed_request_timers r))
    c.replicas

(* Two clients submit the same spend-once op at once. The primary cuts
   the first immediately and queues the second, which is valid on
   arrival; once the first executes, the second fails the cut's
   pre-screen. The primary must answer it and disarm its timer: a silent
   drop let the timer fire and the primary suspect itself. Running to
   10x the request timeout catches any timer left behind. *)
let test_cut_screened_request_answered () =
  let c, runs = spend_once_cluster () in
  let a = make_client c ~dc:2 ~idx:100 and b = make_client c ~dc:2 ~idx:101 in
  let results = ref [] in
  let record r = results := r :: !results in
  Client.submit a "token" ~on_result:record;
  Client.submit b "token" ~on_result:record;
  Engine.run ~until:(Time.scale c.cfg.Config.request_timeout 10.0) c.engine;
  Alcotest.(check (list string))
    "one executes, the other gets f+1 rejections" [ "__rejected"; "ok:token" ]
    (List.sort String.compare !results);
  Alcotest.(check int) "primary proposed it once" 1
    (Replica.batch_stats c.replicas.(0)).Replica.ops_proposed;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "replica %d executed once" i) 1 n)
    runs;
  check_quiet c;
  check_agreement c

(* Two copies of a spend-once op land in one batch at depth 1: both pass
   the commit-time verdict, which judges the batch against the pre-batch
   state. Execution re-verifies each request in order, so the second
   becomes a unanimous rejection instead of executing twice. *)
let test_batch_duplicate_rejected_at_depth_1 () =
  let c, runs = spend_once_cluster () in
  let z = make_client c ~dc:2 ~idx:99 in
  let a = make_client c ~dc:2 ~idx:100 and b = make_client c ~dc:2 ~idx:101 in
  let results = ref [] in
  let record r = results := r :: !results in
  (* [first] occupies the only pipeline slot, so both copies queue and
     are cut together. *)
  Client.submit z "first" ~on_result:ignore;
  Client.submit a "token" ~on_result:record;
  Client.submit b "token" ~on_result:record;
  Engine.run ~until:(Time.scale c.cfg.Config.request_timeout 10.0) c.engine;
  Alcotest.(check (list string))
    "one executes, the other is rejected" [ "__rejected"; "ok:token" ]
    (List.sort String.compare !results);
  Alcotest.(check int) "both copies were proposed" 3
    (Replica.batch_stats c.replicas.(0)).Replica.ops_proposed;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "replica %d executed twice" i) 2 n)
    runs;
  check_quiet c;
  check_agreement c

let test_equivocating_primary_no_divergence () =
  let c = make_cluster () in
  (* Take over the primary: silence the honest logic and send conflicting
     pre-prepares to different backups for the same (view 0, seq 1). *)
  Replica.stop c.replicas.(0);
  let mk op = Msg.make_request c.cfg ~client:(Addr.make ~dc:2 ~idx:50) ~ts:1 ~kind:0 ~op in
  let batch_a = [ mk "A" ] and batch_b = [ mk "B" ] in
  let pp batch =
    Msg.seal c.cfg ~sender:c.cfg.Config.nodes.(0)
      (Msg.Pre_prepare { view = 0; seq = 1; digest = Msg.batch_digest batch; batch })
  in
  let send i payload =
    Bp_net.Transport.send c.transports.(0) ~dst:c.cfg.Config.nodes.(i)
      ~tag:c.cfg.Config.tag payload
  in
  send 1 (pp batch_a);
  send 2 (pp batch_a);
  send 3 (pp batch_b);
  Engine.run ~until:(Time.of_sec 15.0) c.engine;
  (* Whatever committed, the honest replicas never diverge. *)
  check_agreement c;
  (* And the system made progress into a new view (the equivocation
     starved seq 1, timers fired). *)
  Alcotest.(check bool) "view changed" true (Replica.view c.replicas.(1) >= 1)

let test_checkpoint_garbage_collection () =
  let c = make_cluster ~checkpoint_interval:4 () in
  let client = make_client c ~dc:2 ~idx:100 in
  let served = ref 0 in
  let rec submit_next i =
    if i <= 30 then
      Client.submit client (Printf.sprintf "op%d" i) ~on_result:(fun _ ->
          incr served;
          submit_next (i + 1))
  in
  submit_next 1;
  Engine.run ~until:(Time.of_sec 10.0) c.engine;
  Alcotest.(check int) "all served" 30 !served;
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d advanced watermark" i)
        true
        (Replica.low_watermark r >= 4))
    c.replicas

let test_geo_pbft_latency () =
  (* Fig. 7 flat PBFT baseline: one replica per datacenter, client near
     the primary (California). Expect ~100-160 ms. *)
  let c = make_cluster ~geo:true ~seed:41L () in
  let client = make_client c ~dc:0 ~idx:100 in
  let started = ref Time.zero and finished = ref Time.zero in
  started := Engine.now c.engine;
  Client.submit client "geo" ~on_result:(fun _ -> finished := Engine.now c.engine);
  Engine.run ~until:(Time.of_sec 3.0) c.engine;
  let lat = Time.to_ms (Time.diff !finished !started) in
  Alcotest.(check bool)
    (Printf.sprintf "geo PBFT latency %.1fms in [90, 170]" lat)
    true
    (lat >= 90.0 && lat <= 170.0)

let test_safety_under_faults_randomized () =
  for seed = 1 to 8 do
    let faults = { Network.no_faults with drop = 0.05; duplicate = 0.05 } in
    let c = make_cluster ~faults ~seed:(Int64.of_int (100 + seed)) () in
    (* One byzantine replica silent in commit phase the whole time. *)
    Replica.suppress_commit_votes c.replicas.(1) true;
    let client = make_client c ~dc:2 ~idx:100 in
    let served = ref 0 in
    for i = 1 to 10 do
      Client.submit client (Printf.sprintf "s%d-%d" seed i) ~on_result:(fun _ -> incr served)
    done;
    Engine.run ~until:(Time.of_sec 30.0) c.engine;
    Alcotest.(check int) (Printf.sprintf "seed %d: all served" seed) 10 !served;
    check_agreement c
  done

let test_larger_cluster_n7 () =
  let c = make_cluster ~n:7 () in
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "seven" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "n=7 commits" "ok:seven" !result;
  (* f = 2: two crashes tolerated. *)
  Network.crash c.net (Addr.make ~dc:2 ~idx:5);
  Network.crash c.net (Addr.make ~dc:2 ~idx:6);
  let again = ref "" in
  Client.submit client "still-alive" ~on_result:(fun r -> again := r);
  Engine.run ~until:(Time.of_sec 4.0) c.engine;
  Alcotest.(check string) "n=7 with 2 crashed" "ok:still-alive" !again

let test_config_validation () =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let nodes4 = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let expect_invalid what mk =
    try
      ignore (mk ());
      Alcotest.failf "%s accepted" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "n=5" (fun () ->
      Config.make ~nodes:(Array.init 5 (fun i -> Addr.make ~dc:0 ~idx:i)) ~keystore ());
  expect_invalid "batch_max=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_max:0 ());
  expect_invalid "checkpoint_interval=-1" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~checkpoint_interval:(-1) ());
  expect_invalid "watermark_window=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~watermark_window:0 ());
  expect_invalid "max_in_flight=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~max_in_flight:0 ());
  expect_invalid "checkpoint beyond window" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~checkpoint_interval:64
        ~watermark_window:32 ());
  expect_invalid "batch_min_fill=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:0 ());
  expect_invalid "batch_min_fill beyond batch_max" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_max:8 ~batch_min_fill:9 ());
  (* Deferring cuts without a hold bound could stall a trickle forever. *)
  expect_invalid "min_fill>1 without hold timer" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:2 ());
  expect_invalid "negative batch_hold" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:2
        ~batch_hold:(Time.of_ms (-1.0)) ());
  let held =
    Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:16
      ~batch_hold:(Time.of_ms 0.25) ()
  in
  Alcotest.(check int) "min fill accepted" 16 held.Config.batch_min_fill;
  (* A pipeline deeper than the window is clamped, not rejected: the
     window is the hard bound on concurrently-open slots. *)
  let clamped =
    Config.make ~nodes:nodes4 ~keystore ~checkpoint_interval:8
      ~watermark_window:16 ~max_in_flight:64 ()
  in
  Alcotest.(check int) "depth clamped to window" 16 clamped.Config.max_in_flight;
  let cfg = Config.make ~nodes:(Array.init 7 (fun i -> Addr.make ~dc:0 ~idx:i)) ~keystore () in
  Alcotest.(check int) "f" 7 (Config.n cfg);
  Alcotest.(check int) "quorum" 5 (Config.quorum cfg);
  Alcotest.(check int) "primary rotation" 3 (Config.primary_of_view cfg 10)

(* A PBFT broadcast (seal + transport fan-out) must serialize the message
   a fixed number of times — body, signed envelope, transport suffix —
   no matter how many replicas receive it. *)
let pbft_broadcast_encode_delta ~n =
  let c = make_cluster ~n () in
  let body = Msg.Prepare { view = 0; seq = 1; digest = "d"; replica = 0 } in
  let before = Bp_codec.Wire.encode_calls () in
  let sealed = Msg.seal c.cfg ~sender:c.cfg.Config.nodes.(0) body in
  Bp_net.Transport.broadcast c.transports.(0) ~dsts:c.cfg.Config.nodes
    ~tag:c.cfg.Config.tag sealed;
  Bp_codec.Wire.encode_calls () - before

let test_broadcast_seals_and_encodes_once () =
  let d4 = pbft_broadcast_encode_delta ~n:4 in
  let d7 = pbft_broadcast_encode_delta ~n:7 in
  Alcotest.(check int) "body + envelope + transport suffix" 3 d4;
  Alcotest.(check int) "independent of cluster size" d4 d7

(* ---------- windowed pipelining (multi-slot consensus) ---------- *)

(* With commit votes suppressed on every replica, a depth-d primary
   drives several slots to prepared and no further — a pipeline's worth
   of prepared-but-unexecuted sequences. The view change must then carry
   every prepared slot into the new view and commit them all, in order,
   once votes flow again. *)
let test_view_change_with_pipelined_slots () =
  List.iter
    (fun depth ->
      let c =
        make_cluster ~batch_max:1 ~max_in_flight:depth
          ~request_timeout:(ms 200.0)
          ~seed:(Int64.of_int (500 + depth))
          ()
      in
      Array.iter (fun r -> Replica.suppress_commit_votes r true) c.replicas;
      let client = make_client c ~dc:2 ~idx:100 in
      let served = ref 0 in
      for i = 1 to 6 do
        Client.submit client
          (Printf.sprintf "d%d-op%d" depth i)
          ~on_result:(fun _ -> incr served)
      done;
      Engine.run ~until:(ms 100.0) c.engine;
      Alcotest.(check int)
        (Printf.sprintf "depth %d: nothing executes without commits" depth)
        0
        (Replica.last_executed c.replicas.(0));
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: >=3 slots concurrently open" depth)
        true
        (Replica.open_slot_count c.replicas.(0) >= 3
        && Replica.open_slot_count c.replicas.(1) >= 3);
      Array.iter (fun r -> Replica.suppress_commit_votes r false) c.replicas;
      Engine.run ~until:(Time.of_sec 15.0) c.engine;
      Alcotest.(check int)
        (Printf.sprintf "depth %d: all served after view change" depth)
        6 !served;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: moved past view 0" depth)
        true
        (Replica.view c.replicas.(1) >= 1);
      check_agreement c)
    [ 4; 8 ]

(* Sustained pipelined load must not grow state without bound: open
   slots stay inside the watermark window, and the state-transfer
   archive keeps only a few windows' worth of executed batches. *)
let test_pipeline_bounded_by_watermarks () =
  let window = 8 in
  let c =
    make_cluster ~batch_max:1 ~max_in_flight:8 ~checkpoint_interval:4
      ~watermark_window:window ~seed:77L ()
  in
  let client = make_client c ~dc:2 ~idx:100 in
  let served = ref 0 in
  let total = 80 in
  for i = 1 to total do
    Client.submit client (Printf.sprintf "op%d" i) ~on_result:(fun _ ->
        incr served)
  done;
  let max_open = ref 0 and max_archive = ref 0 in
  let rec sample () =
    Array.iter
      (fun r ->
        max_open := Stdlib.max !max_open (Replica.open_slot_count r);
        max_archive := Stdlib.max !max_archive (Replica.archive_size r))
      c.replicas;
    ignore (Engine.schedule c.engine ~after:(ms 1.0) sample)
  in
  sample ();
  Engine.run ~until:(Time.of_sec 30.0) c.engine;
  Alcotest.(check int) "all served" total !served;
  Alcotest.(check bool)
    (Printf.sprintf "pipeline filled (%d open slots at peak)" !max_open)
    true (!max_open >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "open slots (%d) bounded by the window" !max_open)
    true
    (!max_open <= window);
  Alcotest.(check bool)
    (Printf.sprintf "archive (%d) bounded" !max_archive)
    true
    (!max_archive <= 4 * window);
  Alcotest.(check bool) "watermark advanced under GC" true
    (Replica.low_watermark c.replicas.(0) >= total - window);
  check_agreement c

(* The point of the pipeline: with a dozen 100 KB batches waiting,
   depth 8 overlaps their three-phase rounds and finishes well before
   the stop-and-wait depth-1 primary in simulated time. *)
let test_pipeline_overlaps_rounds () =
  let run depth =
    let c = make_cluster ~batch_max:1 ~max_in_flight:depth ~seed:91L () in
    let client = make_client c ~dc:2 ~idx:100 in
    let served = ref 0 in
    let done_at = ref Time.zero in
    for i = 1 to 12 do
      Client.submit client
        (Printf.sprintf "%06d-" i ^ String.make 100_000 'x')
        ~on_result:(fun _ ->
          incr served;
          done_at := Engine.now c.engine)
    done;
    Engine.run ~until:(Time.of_sec 10.0) c.engine;
    Alcotest.(check int) (Printf.sprintf "depth %d: all served" depth) 12 !served;
    check_agreement c;
    Time.to_ms !done_at
  in
  let t1 = run 1 in
  let t8 = run 8 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 8 (%.1f ms) well under depth 1 (%.1f ms)" t8 t1)
    true
    (t8 < 0.8 *. t1)

(* Differential pinning: the pipeline must change scheduling, never
   results. Requests are all submitted up front, so their arrival order
   at the primary is depth-independent (per-sender FIFO NICs), and the
   flattened stream of executed requests at depth d must equal depth 1
   exactly — batch boundaries may differ (adaptive batch cut), the
   per-request execution order may not. *)
let pipeline_differential =
  QCheck.Test.make ~name:"depth-N execution stream = depth-1" ~count:25
    QCheck.(
      quad (int_range 2 8) (int_range 1 30) (int_range 1 3) (int_range 0 999))
    (fun (depth, n_ops, batch_max, seed) ->
      let run max_in_flight =
        let c =
          make_cluster ~batch_max ~max_in_flight
            ~seed:(Int64.of_int (3000 + seed))
            ()
        in
        let stream = ref [] in
        Replica.set_on_executed c.replicas.(1) (fun ~seq:_ batch ->
            List.iter (fun r -> stream := r.Msg.op :: !stream) batch);
        let client = make_client c ~dc:2 ~idx:100 in
        let served = ref 0 in
        for i = 1 to n_ops do
          Client.submit client (Printf.sprintf "op-%d" i) ~on_result:(fun _ ->
              incr served)
        done;
        Engine.run ~until:(Time.of_sec 20.0) c.engine;
        if !served <> n_ops then
          QCheck.Test.fail_reportf "depth %d: served %d of %d" max_in_flight
            !served n_ops;
        check_agreement c;
        List.rev !stream
      in
      run 1 = run depth)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "pbft.msg",
      [
        tc "body roundtrip" test_msg_roundtrip;
        tc "envelope verification" test_envelope_verification;
        tc "config validation" test_config_validation;
        tc "broadcast seals and encodes once" test_broadcast_seals_and_encodes_once;
      ] );
    ( "pbft.normal",
      [
        tc "normal case commit" test_normal_case_commit;
        tc "exec chains agree" test_exec_chains_agree;
        tc "batching groups requests" test_batching_groups_requests;
        tc "local commit ~1ms" test_local_commit_latency_about_1ms;
        tc "n=7 cluster" test_larger_cluster_n7;
      ] );
    ( "pbft.faults",
      [
        tc "backup crash tolerated" test_backup_crash_tolerated;
        tc "two crashes stall (f=1)" test_two_crashes_stall;
        tc "byzantine silent in commit phase" test_byzantine_silent_commit_phase;
        tc "primary crash triggers view change" test_primary_crash_view_change;
        tc "view change preserves committed" test_view_change_preserves_committed;
        tc "verification routine blocks invalid ops" test_verification_routine_blocks_invalid;
        tc "request screened out at the cut is answered"
          test_cut_screened_request_answered;
        tc "duplicate in one batch rejected at depth 1"
          test_batch_duplicate_rejected_at_depth_1;
        tc "equivocating primary cannot diverge state" test_equivocating_primary_no_divergence;
        tc "checkpoint garbage collection" test_checkpoint_garbage_collection;
        tc "randomized safety under faults" test_safety_under_faults_randomized;
      ] );
    ( "pbft.pipeline",
      [
        tc "view change carries pipelined prepared slots"
          test_view_change_with_pipelined_slots;
        tc "bounded by watermark window" test_pipeline_bounded_by_watermarks;
        tc "overlapping rounds beat stop-and-wait" test_pipeline_overlaps_rounds;
        QCheck_alcotest.to_alcotest pipeline_differential;
      ] );
    ( "pbft.geo",
      [ tc "flat geo PBFT latency" test_geo_pbft_latency ] );
  ]
