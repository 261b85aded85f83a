open Bp_sim
open Blockplane

(* A deployment with one participant measures pure local commitment: no
   wide-area traffic is involved (§VIII-A runs in Virginia alone). *)
let local_world ~knobs ~fi ~seed =
  Runner.fresh_world ~knobs ~fi ~seed ~n_participants:1 ()

let commit_loop world ~size ~n ~warmup =
  let api = Deployment.api world.Runner.dep 0 in
  Runner.sequential world.Runner.engine ~n ~warmup ~run_one:(fun i ~on_done ->
      let started = Engine.now world.Runner.engine in
      Api.log_commit api (Runner.payload ~size i) ~on_done:(fun () ->
          on_done (Time.to_ms (Time.diff (Engine.now world.Runner.engine) started))))

(* size (KB), measured batches, paper latency (ms), paper throughput (MB/s).
   Paper numbers from the §VIII-A text; "-" where the figure is not read
   out numerically in the text. *)
let fig4_points =
  [
    (1, 100, "<1", "~1.4");
    (10, 100, "<1", "-");
    (100, 100, "~1.2", "83");
    (500, 50, "-", "-");
    (1000, 30, "4.5", "~215");
    (2000, 20, "8.2", "~240");
  ]

(* Latency percentiles over every measured operation of an experiment,
   plus the units' mean pipeline occupancy — the bench JSON counters. *)
let op_metrics ~stats_list ~occupancies =
  let all = Bp_util.Stats.create () in
  List.iter
    (fun s -> Bp_util.Stats.add_list all (Array.to_list (Bp_util.Stats.samples s)))
    stats_list;
  let occ =
    match occupancies with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  [
    ("p50_ms", Bp_util.Stats.percentile all 50.0);
    ("p95_ms", Bp_util.Stats.percentile all 95.0);
    ("p99_ms", Bp_util.Stats.percentile all 99.0);
    ("pipeline_occupancy", occ);
  ]

(* One task per batch size: each point gets its own world and seed. *)
let fig4_task ~knobs ~scale (kb, batches, paper_lat, paper_thr) () =
  let world = local_world ~knobs ~fi:1 ~seed:(Int64.of_int (1000 + kb)) in
  let n = Runner.scaled scale batches in
  let warmup = Stdlib.max 1 (n / 10) in
  let stats = commit_loop world ~size:(kb * 1000) ~n ~warmup in
  let mean_ms = Bp_util.Stats.mean stats in
  let occ = Api.pipeline_occupancy (Deployment.api world.Runner.dep 0) in
  (* Group commit, one batch at a time: throughput = size/latency. *)
  let throughput_mbps = float_of_int kb /. 1000.0 /. (mean_ms /. 1000.0) in
  (kb, mean_ms, throughput_mbps, paper_lat, paper_thr, stats, occ)

let fig4_merge results =
  let lat_rows =
    List.map
      (fun (kb, mean_ms, _, paper_lat, _, _, _) ->
        [ Printf.sprintf "%d KB" kb; Report.ms mean_ms; paper_lat ])
      results
  in
  let thr_rows =
    List.map
      (fun (kb, _, thr, _, paper_thr, _, _) ->
        [ Printf.sprintf "%d KB" kb; Report.mbps thr; paper_thr ])
      results
  in
  let metrics =
    op_metrics
      ~stats_list:(List.map (fun (_, _, _, _, _, s, _) -> s) results)
      ~occupancies:(List.map (fun (_, _, _, _, _, _, o) -> o) results)
  in
  [
    {
      Report.id = "fig4a";
      title = "Local commitment latency vs batch size";
      paper_ref = "Fig. 4(a), SVIII-A: Virginia, fi=1, 4 nodes";
      header = [ "batch size"; "latency ms (measured)"; "latency ms (paper)" ];
      rows = lat_rows;
      metrics;
      notes =
        [
          "expected shape: ~1 ms up to 100 KB, then growing with NIC serialization";
        ];
    };
    {
      Report.id = "fig4b";
      title = "Local commitment throughput vs batch size";
      paper_ref = "Fig. 4(b), SVIII-A";
      header = [ "batch size"; "MB/s (measured)"; "MB/s (paper)" ];
      rows = thr_rows;
      metrics;
      notes =
        [
          "expected shape: steep growth to 100 KB (~60x from 1 KB), +~160% to 1 MB, ~+10% to 2 MB";
        ];
    };
  ]

let fig4_plan ~knobs ~scale =
  Runner.Plan
    {
      tasks = List.map (fun p -> fig4_task ~knobs ~scale p) fig4_points;
      merge = fig4_merge;
    }

let fig4 ?(scale = 1.0) () =
  Runner.run_plan (fig4_plan ~knobs:Knobs.default ~scale)

let table2_points =
  [ (1, "83", "1.2"); (2, "51", "1.9"); (3, "28", "3.5"); (4, "25", "4") ]

let table2_task ~knobs ~scale (fi, paper_thr, paper_lat) () =
  let world = local_world ~knobs ~fi ~seed:(Int64.of_int (2000 + fi)) in
  let n = Runner.scaled scale 50 in
  let warmup = Stdlib.max 1 (n / 10) in
  let stats = commit_loop world ~size:100_000 ~n ~warmup in
  let mean_ms = Bp_util.Stats.mean stats in
  let occ = Api.pipeline_occupancy (Deployment.api world.Runner.dep 0) in
  let thr = 0.1 /. (mean_ms /. 1000.0) in
  ( [
      Printf.sprintf "%d (fi=%d)" ((3 * fi) + 1) fi;
      Report.mbps thr;
      paper_thr;
      Report.ms mean_ms;
      paper_lat;
    ],
    stats,
    occ )

let table2_merge results =
  let rows = List.map (fun (row, _, _) -> row) results in
  [
    {
      Report.id = "table2";
      title = "Local commitment vs unit size (batch 100 KB)";
      paper_ref = "Table II, SVIII-A";
      header =
        [ "nodes"; "MB/s (measured)"; "MB/s (paper)"; "ms (measured)"; "ms (paper)" ];
      rows;
      metrics =
        op_metrics
          ~stats_list:(List.map (fun (_, s, _) -> s) results)
          ~occupancies:(List.map (fun (_, _, o) -> o) results);
      notes = [ "expected shape: throughput falls and latency rises with n" ];
    };
  ]

let table2_plan ~knobs ~scale =
  Runner.Plan
    {
      tasks = List.map (fun p -> table2_task ~knobs ~scale p) table2_points;
      merge = table2_merge;
    }

let table2 ?(scale = 1.0) () =
  Runner.run_plan (table2_plan ~knobs:Knobs.default ~scale)

(* ---------- pipeline-depth ablation (beyond the paper) ---------- *)

let pipeline_depths = [ 1; 2; 4; 8 ]

(* Modeled per-signature verification cost for the pipeline/verify
   ablations (Config.verify_cost). The value matches the measured
   hash-based signature verify on real hardware (~0.4 ms — see the
   "lamport verify" micro row in the bench), so the ablations study the
   regime the paper's middleware actually sits in when it runs a real
   asymmetric scheme. The golden experiments keep the cost at zero:
   crypto is free in simulated time there, exactly the seed model. *)
let verify_model_cost = Time.of_ms 0.4

(* Fig4-style local commitment, but closed-loop with several requests
   outstanding and [batch_max = 1], so the consensus pipeline depth is
   the only concurrency lever: at depth 1 the primary is the seed's
   stop-and-wait one; deeper pipelines overlap the three-phase rounds of
   successive 100 KB batches. Depth 1 is the honesty baseline the
   speedups are quoted against. Verification pays the modeled cost
   above, divided across [--verify-jobs] simulated cores (default 1):
   pipelining can only hide verification latency to the extent the
   verify resource keeps up, which is precisely what the companion
   ablation-verify sweep quantifies. *)
let pipeline_task ~knobs ~scale depth () =
  let world =
    Runner.fresh_world ~knobs ~fi:1 ~seed:(Int64.of_int (7000 + depth))
      ~n_participants:1 ~batch_max:1 ~max_in_flight:depth
      ~verify_cost:verify_model_cost ()
  in
  let api = Deployment.api world.Runner.dep 0 in
  let size = 100_000 in
  let total = Runner.scaled scale 60 in
  let stats, makespan =
    Runner.closed_loop world.Runner.engine ~total ~outstanding:16
      ~run_one:(fun i ~on_done ->
        let started = Engine.now world.Runner.engine in
        Api.log_commit api (Runner.payload ~size i) ~on_done:(fun () ->
            on_done
              (Time.to_ms (Time.diff (Engine.now world.Runner.engine) started))))
  in
  let span_s = Time.to_sec makespan in
  let thr_mbps =
    float_of_int total *. float_of_int size /. 1e6 /. Stdlib.max 1e-9 span_s
  in
  (depth, thr_mbps, stats, Api.pipeline_occupancy api)

let pipeline_merge results =
  let base_thr =
    match results with (1, thr, _, _) :: _ -> thr | _ -> 0.0
  in
  let rows =
    List.map
      (fun (depth, thr, stats, occ) ->
        [
          string_of_int depth;
          Report.mbps thr;
          (if base_thr > 0.0 then Printf.sprintf "%.2fx" (thr /. base_thr)
           else "-");
          Report.ms (Bp_util.Stats.mean stats);
          Report.ms (Bp_util.Stats.percentile stats 95.0);
          Printf.sprintf "%.2f" occ;
        ])
      results
  in
  let metrics =
    List.concat_map
      (fun (depth, thr, stats, occ) ->
        let d name = Printf.sprintf "d%d_%s" depth name in
        [
          (d "throughput_mbps", thr);
          (d "speedup_vs_d1", if base_thr > 0.0 then thr /. base_thr else 0.0);
          (d "p50_ms", Bp_util.Stats.percentile stats 50.0);
          (d "p95_ms", Bp_util.Stats.percentile stats 95.0);
          (d "p99_ms", Bp_util.Stats.percentile stats 99.0);
          (d "pipeline_occupancy", occ);
        ])
      results
  in
  [
    {
      Report.id = "pipeline";
      title = "Consensus pipeline depth (windowed multi-slot PBFT)";
      paper_ref = "beyond the paper; cf. Fig. 4 setup (SVIII-A), 100 KB batches";
      header =
        [ "depth"; "MB/s"; "speedup"; "mean ms"; "p95 ms"; "occupancy" ];
      rows;
      metrics;
      notes =
        [
          "closed loop, 16 outstanding 100 KB commits, batch_max=1: depth is the only concurrency lever";
          "depth 1 = the stop-and-wait baseline; execution stays in order at any depth";
        ];
    };
  ]

let pipeline_plan ~knobs ~scale =
  Runner.Plan
    {
      tasks = List.map (fun d -> pipeline_task ~knobs ~scale d) pipeline_depths;
      merge = pipeline_merge;
    }

let pipeline ?(scale = 1.0) () =
  Runner.run_plan (pipeline_plan ~knobs:Knobs.default ~scale)

(* ---------- verify-jobs ablation (beyond the paper) ---------- *)

(* jobs x depth grid. Depth 1 rows are each jobs level's own baseline, so
   the speedup column isolates how much of the pipeline's promise the
   verify resource lets through at that parallelism. *)
let verify_points =
  List.concat_map
    (fun jobs -> List.map (fun depth -> (jobs, depth)) [ 1; 2; 8 ])
    [ 1; 2; 4 ]

(* Same closed-loop workload as the pipeline ablation, but the world pins
   its own verify_jobs instead of inheriting the --verify-jobs default:
   the sweep is the knob. *)
let verify_task ~knobs ~scale (jobs, depth) () =
  let world =
    Runner.fresh_world ~knobs ~fi:1
      ~seed:(Int64.of_int (8000 + (10 * jobs) + depth))
      ~n_participants:1 ~batch_max:1 ~max_in_flight:depth
      ~verify_cost:verify_model_cost ~verify_jobs:jobs ()
  in
  let api = Deployment.api world.Runner.dep 0 in
  let size = 100_000 in
  let total = Runner.scaled scale 60 in
  let stats, makespan =
    Runner.closed_loop world.Runner.engine ~total ~outstanding:16
      ~run_one:(fun i ~on_done ->
        let started = Engine.now world.Runner.engine in
        Api.log_commit api (Runner.payload ~size i) ~on_done:(fun () ->
            on_done
              (Time.to_ms (Time.diff (Engine.now world.Runner.engine) started))))
  in
  let span_s = Time.to_sec makespan in
  let thr_mbps =
    float_of_int total *. float_of_int size /. 1e6 /. Stdlib.max 1e-9 span_s
  in
  (jobs, depth, thr_mbps, stats, Api.pipeline_occupancy api)

let verify_merge results =
  let base_thr jobs =
    List.fold_left
      (fun acc (j, d, thr, _, _) -> if j = jobs && d = 1 then thr else acc)
      0.0 results
  in
  let rows =
    List.map
      (fun (jobs, depth, thr, stats, occ) ->
        let base = base_thr jobs in
        [
          string_of_int jobs;
          string_of_int depth;
          Report.mbps thr;
          (if base > 0.0 then Printf.sprintf "%.2fx" (thr /. base) else "-");
          Report.ms (Bp_util.Stats.mean stats);
          Printf.sprintf "%.2f" occ;
        ])
      results
  in
  let metrics =
    List.concat_map
      (fun (jobs, depth, thr, stats, occ) ->
        let base = base_thr jobs in
        let m name = Printf.sprintf "j%d_d%d_%s" jobs depth name in
        [
          (m "throughput_mbps", thr);
          (m "speedup_vs_d1", if base > 0.0 then thr /. base else 0.0);
          (m "p95_ms", Bp_util.Stats.percentile stats 95.0);
          (m "pipeline_occupancy", occ);
        ])
      results
  in
  [
    {
      Report.id = "verify";
      title = "Verification parallelism vs pipeline depth";
      paper_ref = "beyond the paper; modeled in-replica verify cost, cf. SVIII-A setup";
      header = [ "jobs"; "depth"; "MB/s"; "speedup"; "mean ms"; "occupancy" ];
      rows;
      metrics;
      notes =
        [
          Printf.sprintf
            "each slot charges (batch + 2f) x %.2f ms of verification, served by `jobs` simulated cores"
            (Time.to_ms verify_model_cost);
          "speedup is vs the same jobs level at depth 1: it shows how much pipeline overlap the verify resource admits";
        ];
    };
  ]

let verify_plan ~knobs ~scale =
  Runner.Plan
    {
      tasks = List.map (fun p -> verify_task ~knobs ~scale p) verify_points;
      merge = verify_merge;
    }

let verify_ablation ?(scale = 1.0) () =
  Runner.run_plan (verify_plan ~knobs:Knobs.default ~scale)
