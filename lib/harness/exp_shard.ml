open Bp_sim
open Blockplane

(* Scale-out study: the keyspace partitioned across 1..16 independent
   Blockplane units at FIXED per-unit resources (every unit keeps its
   own 3fi+1 nodes, its own datacenter on the tiled Table I topology,
   and the d8mf16 batch-cut policy that won ablation-saturation), under
   open-loop load offered proportionally to the shard count. The 0%
   cross-shard series is the headline: units share nothing, so the
   aggregate knee should scale near-linearly. The 5%/20% series price
   the BFT two-phase commit (prepare/vote/decide each a committed record
   plus a WAN round), and the skewed series concentrates load zipf(0.99)
   on hot shards — the honest degradation cases. *)

let shard_counts = [ 1; 2; 4; 8; 16 ]

type series = { key : string; cross : float; skew : float }

let series_list =
  [
    { key = "x0"; cross = 0.0; skew = 0.0 };
    { key = "x5"; cross = 0.05; skew = 0.0 };
    { key = "x20"; cross = 0.20; skew = 0.0 };
    { key = "x5skew"; cross = 0.05; skew = 0.99 };
  ]

(* Offered rate per unit, just under the d8mf16 single-unit saturation
   knee (~162k/s in ablation-saturation): at 0% cross-shard every unit
   runs at its own knee, so the aggregate curve measures scale-out, not
   queueing collapse. *)
let per_unit_rate = 150_000.0

(* Each point offers its rate for a window of simulated time (the
   saturation sweep's discipline) — the count grows with the aggregate
   rate so every unit sees the same per-unit workload. *)
let window_ms = 8.0

let count_for ~scale nshards =
  Runner.scaled scale
    (Stdlib.max 400
       (int_of_float (per_unit_rate *. float_of_int nshards *. window_ms /. 1000.0)))

(* Range map with human-readable split points: shard i >= 1 owns keys
   from "s%02i"; Shard.key_for derives O(1) shard-targeted keys from the
   same splits, so the generator never rejection-samples. *)
let map_for nshards =
  Shard.make
    ~policy:
      (Shard.Range (Array.init (nshards - 1) (fun i -> Printf.sprintf "s%02d" (i + 1))))
    ~shards:nshards ()

(* Cross-shard transactions span two shards: the common case for a
   cross-partition write (move/transfer), and the cheapest point of the
   2PC price — wider transactions only add more of the same rounds. *)
let txn_keys = 2

let op_bytes = 1000

let op_payload ~client i =
  let stamp = Printf.sprintf "c%d;op%d;" client i in
  let b = Bytes.make op_bytes 'x' in
  Bytes.blit_string stamp 0 b 0 (Stdlib.min (String.length stamp) op_bytes);
  Bytes.unsafe_to_string b

let shard_task ~knobs ~scale ~series ~nshards ~seed () =
  let map = map_for nshards in
  let world =
    Runner.fresh_world ~knobs ~fi:1 ~seed ~n_participants:nshards ~shard_map:map
      ~max_in_flight:8 ~batch_min_fill:16 ~batch_hold:(Time.of_ms 0.25) ()
  in
  let engine = world.Runner.engine in
  let router = Deployment.shard_router world.Runner.dep in
  let count = count_for ~scale nshards in
  let gen =
    Loadgen.create
      ~rng:(Bp_util.Rng.split (Engine.rng engine))
      {
        Loadgen.process =
          Loadgen.Poisson { rate_per_sec = per_unit_rate *. float_of_int nshards };
        clients = 200_000;
        skew = knobs.Knobs.skew;
        count;
      }
  in
  let mix =
    Loadgen.mix
      ~rng:(Bp_util.Rng.split (Engine.rng engine))
      {
        Loadgen.shards = nshards;
        cross_fraction = series.cross;
        txn_keys;
        shard_skew = series.skew;
      }
  in
  let r =
    Loadgen.run engine ~gen ~submit:(fun i ~client ~on_done ->
        let targets = Loadgen.draw_targets mix in
        let ops =
          List.map
            (fun s -> (Shard.key_for map ~shard:s ~salt:i, op_payload ~client i))
            targets
        in
        (* An abort still completes the arrival — the downgrade is the
           deterministic no-op outcome, counted by the router's stats. *)
        Shard.submit router ~on_aborted:on_done ~on_done ops)
  in
  let staged_left =
    List.init nshards (fun p -> Api.xs_staged (Deployment.api world.Runner.dep p))
    |> List.fold_left ( + ) 0
  in
  (nshards, r, Shard.stats router, staged_left)

let shard_merge results =
  let nper = List.length shard_counts in
  let groups =
    List.mapi
      (fun si series ->
        let points = List.filteri (fun i _ -> i / nper = si) results in
        (series, points))
      series_list
  in
  let rows =
    List.concat_map
      (fun ((series : series), points) ->
        List.map
          (fun (nshards, r, (st : Shard.stats), _) ->
            let p pct = Bp_util.Stats.percentile r.Loadgen.latencies pct in
            [
              series.key;
              string_of_int nshards;
              Printf.sprintf "%.0f/s" (per_unit_rate *. float_of_int nshards);
              Printf.sprintf "%.0f/s" r.Loadgen.achieved_per_sec;
              Report.ms (p 50.0);
              Report.ms (p 99.0);
              string_of_int st.Shard.cross_shard;
              string_of_int st.Shard.aborted;
            ])
          points)
      groups
  in
  let achieved_at key n =
    List.concat_map
      (fun ((series : series), points) ->
        if String.equal series.key key then
          List.filter_map
            (fun (nshards, r, _, _) ->
              if nshards = n then Some r.Loadgen.achieved_per_sec else None)
            points
        else [])
      groups
  in
  let metrics =
    List.concat_map
      (fun ((series : series), points) ->
        List.concat_map
          (fun (nshards, r, (st : Shard.stats), staged_left) ->
            let m name = Printf.sprintf "%s_s%d_%s" series.key nshards name in
            [
              (m "achieved_rps", r.Loadgen.achieved_per_sec);
              (m "p99_ms", Bp_util.Stats.percentile r.Loadgen.latencies 99.0);
              (m "cross", float_of_int st.Shard.cross_shard);
              (m "aborted", float_of_int st.Shard.aborted);
              (m "timeouts", float_of_int st.Shard.timeouts);
              (m "staged_left", float_of_int staged_left);
            ])
          points)
      groups
    @
    match (achieved_at "x0" 1, achieved_at "x0" (List.fold_left Stdlib.max 1 shard_counts)) with
    | [ one ], [ top ] when one > 0.0 -> [ ("x0_scaleout", top /. one) ]
    | _ -> []
  in
  [
    {
      Report.id = "ablation-shard";
      title = "Keyspace sharding: 1..16 units, cross-shard BFT commit";
      paper_ref =
        "beyond the paper (ROADMAP: multi-unit sharding); per-unit config = \
         d8mf16 from ablation-saturation, topology = Table I tiled to one \
         DC per unit";
      header =
        [ "series"; "shards"; "offered"; "achieved"; "p50 ms"; "p99 ms"; "cross"; "abort" ];
      rows;
      metrics;
      notes =
        [
          Printf.sprintf
            "offered load = %.0f/s per unit (just under the d8mf16 knee); x0/x5/x20 = cross-shard fraction, x5skew adds zipf(0.99) shard popularity"
            per_unit_rate;
          "cross-shard txns span 2 shards; every 2PC step (prepare, vote, decide) is a committed record, votes/decides ride the communication path";
          "x0_scaleout = aggregate throughput at 16 units over the 1-unit point; single-core container: scale-out is in simulated time, wall-clock runs the units sequentially";
          "abort = timeout/NO-vote downgrades (deterministic no-ops); staged_left metrics must be 0 (every prepare decided)";
          "achieved = completions/makespan for the whole window INCLUDING the cross-shard drain tail (two WAN rounds, ~300 ms on tiled Table I), which is why any cross mix collapses it while p50 stays at the local-commit floor — steady-state single-shard capacity is the x0 row";
        ];
    };
  ]

let plan ~knobs ~scale =
  let tasks =
    List.concat
      (List.mapi
         (fun si series ->
           List.mapi
             (fun ci nshards ->
               let seed = Int64.of_int (11_000 + (100 * si) + ci) in
               fun () -> shard_task ~knobs ~scale ~series ~nshards ~seed ())
             shard_counts)
         series_list)
  in
  Runner.Plan { tasks; merge = shard_merge }

let shard ?(scale = 1.0) () =
  Runner.run_plan (plan ~knobs:Knobs.default ~scale)
