(* Layer readings taken from outside the program: only the public stats
   functions each layer already exposes, summed over every node of every
   world a workload built. Cumulative counters are read before and after
   the measured phase and differenced; gauges are read at the end. *)

open Bp_sim
open Blockplane
module Runner = Bp_harness.Runner

(* Named cumulative counters, always listed in the order [read_world]
   gives them. *)
type counters = (string * int) list

let sum_over n f =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + f i
  done;
  !acc

(* Off-diagonal cells of a datacenter matrix: wide-area traffic. *)
let off_diagonal m =
  let acc = ref 0 in
  Array.iteri (fun i row -> Array.iteri (fun j v -> if i <> j then acc := !acc + v) row) m;
  !acc

let nodes dep =
  List.concat
    (List.init (Deployment.n_participants dep) (fun p ->
         Array.to_list (Deployment.nodes_of dep p)))

let read_world (w : Runner.world) =
  let dep = w.Runner.dep in
  let np = Deployment.n_participants dep in
  let nc = Network.counters w.Runner.net in
  let ns = nodes dep in
  let over_nodes f = List.fold_left (fun acc n -> acc + f n) 0 ns in
  let vc n = Bp_crypto.Verify_cache.instance_counters (Unit_node.vcache n) in
  let pairs f =
    sum_over np (fun src ->
        sum_over np (fun dest -> if src = dest then 0 else f (Deployment.daemon dep ~src ~dest)))
  in
  let bs p = Api.batch_stats (Deployment.api dep p) in
  [
    ("net.sent", nc.Network.sent);
    ("net.bytes", nc.Network.bytes_sent);
    ("net.wan_msgs", off_diagonal (Network.message_matrix w.Runner.net));
    ("net.wan_bytes", off_diagonal (Network.traffic_matrix w.Runner.net));
    ("transport.retransmits", over_nodes (fun n -> fst (Bp_net.Transport.stats (Unit_node.transport n))));
    ("transport.discards", over_nodes (fun n -> snd (Bp_net.Transport.stats (Unit_node.transport n))));
    ("crypto.verify_hits", over_nodes (fun n -> (vc n).Bp_crypto.Verify_cache.verify_hits));
    ("crypto.verify_misses", over_nodes (fun n -> (vc n).Bp_crypto.Verify_cache.verify_misses));
    ("crypto.digest_hits", over_nodes (fun n -> (vc n).Bp_crypto.Verify_cache.digest_hits));
    ("crypto.digest_misses", over_nodes (fun n -> (vc n).Bp_crypto.Verify_cache.digest_misses));
    ("unit.verify_effort", over_nodes Unit_node.verify_effort);
    ("daemon.sent", pairs (fun d -> (Comm_daemon.counters d).Comm_daemon.sent));
    ("daemon.retries", pairs (fun d -> (Comm_daemon.counters d).Comm_daemon.retries));
    ("pbft.batches_cut", sum_over np (fun p -> (bs p).Bp_pbft.Replica.batches_cut));
    ("pbft.ops_proposed", sum_over np (fun p -> (bs p).Bp_pbft.Replica.ops_proposed));
    ("pbft.window_stalls", sum_over np (fun p -> (bs p).Bp_pbft.Replica.window_stalls));
    ("pbft.hold_deferrals", sum_over np (fun p -> (bs p).Bp_pbft.Replica.hold_deferrals));
    ( "storage.lead_log_entries",
      sum_over np (fun p -> Bp_storage.Log_store.length (Unit_node.log (Deployment.node dep p 0))) );
  ]

let pointwise f = List.map2 (fun (n, a) (_, b) -> (n, f a b))
let total = function [] -> [] | c :: cs -> List.fold_left (pointwise ( + )) c cs
let read worlds = total (List.map read_world worlds)
let delta ~before ~after = pointwise ( - ) after before
let get (c : counters) name = List.assoc name c

(* ---------- gauges ---------- *)

(* Sum of every replica's view number: 0 while no unit has changed view. *)
let view_changes worlds =
  List.fold_left
    (fun acc (w : Runner.world) ->
      List.fold_left
        (fun acc n -> acc + Bp_pbft.Replica.view (Unit_node.replica n))
        acc (nodes w.Runner.dep))
    0 worlds

(* How far node 0 of unit [p] is behind the longest Local Log copy in
   its unit: node 0 is the node [Api] observes the log through. *)
let lead_lag dep p =
  let lens =
    Array.map (fun n -> Bp_storage.Log_store.length (Unit_node.log n)) (Deployment.nodes_of dep p)
  in
  Array.fold_left max 0 lens - lens.(0)

(* Largest [lead_lag] over every unit. *)
let lead_lag_max worlds =
  List.fold_left
    (fun acc (w : Runner.world) ->
      let dep = w.Runner.dep in
      List.fold_left (fun acc p -> max acc (lead_lag dep p)) acc
        (List.init (Deployment.n_participants dep) Fun.id))
    0 worlds

let xs_staged worlds =
  List.fold_left
    (fun acc (w : Runner.world) ->
      let dep = w.Runner.dep in
      acc + sum_over (Deployment.n_participants dep) (fun p -> Api.xs_staged (Deployment.api dep p)))
    0 worlds

let mean_occupancy worlds =
  let occ =
    List.concat_map
      (fun (w : Runner.world) ->
        let dep = w.Runner.dep in
        List.init (Deployment.n_participants dep) (fun p ->
            Api.pipeline_occupancy (Deployment.api dep p)))
      worlds
  in
  match occ with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 occ /. float_of_int (List.length occ)

(* ---------- correctness ---------- *)

(* Per unit: every node's Local Log agrees on the common prefix
   ([Deployment.logs_agree], Lemma 1), and nodes that executed the same
   number of records hold the same app state. A node that lags behind
   its peers is a liveness fault, counted by [lead_lag_max]; a node whose
   state differs at equal length is a safety fault. *)
let unit_checks (w : Runner.world) =
  let dep = w.Runner.dep in
  List.concat
    (List.init (Deployment.n_participants dep) (fun p ->
         let nodes = Deployment.nodes_of dep p in
         let same_len_same_state =
           Array.for_all
             (fun a ->
               Array.for_all
                 (fun b ->
                   Bp_storage.Log_store.length (Unit_node.log a)
                   <> Bp_storage.Log_store.length (Unit_node.log b)
                   || String.equal (Unit_node.app_digest a) (Unit_node.app_digest b))
                 nodes)
             nodes
         in
         [
           (Printf.sprintf "unit%d.logs_agree" p, Deployment.logs_agree dep p);
           (Printf.sprintf "unit%d.app_digests_agree_at_equal_length" p, same_len_same_state);
         ]))

(* [Deployment.app_digests_agree] over every unit: false while some node
   lags behind its peers. Reported beside the checks, not as one. *)
let all_digests_agree (w : Runner.world) =
  let dep = w.Runner.dep in
  List.for_all (Deployment.app_digests_agree dep)
    (List.init (Deployment.n_participants dep) Fun.id)
