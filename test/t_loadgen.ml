(* Tests for the saturation-scale load generator: the zipf sampler's
   distribution and O(1) draw cost, the three arrival-process shapes'
   offered rates, the qcheck property pinning the streaming scheduler to
   the eager reference, the O(1) heap-occupancy telemetry, and
   bit-identical saturation sweeps at any --jobs. *)

open Bp_harness

let rng seed = Bp_util.Rng.create seed

(* --- zipf sampler --- *)

let test_zipf_skewed () =
  let z = Bp_util.Zipf.create ~n:100 ~s:1.0 in
  let r = rng 11L in
  let freq = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Bp_util.Zipf.sample z r in
    Alcotest.(check bool) "rank in range" true (k >= 0 && k < 100);
    freq.(k) <- freq.(k) + 1
  done;
  (* P(0) ~ 0.19 under s=1, n=100; P(50) ~ 0.004. *)
  Alcotest.(check bool) "rank 0 dominates" true (freq.(0) > 5 * freq.(50));
  let decade lo = Array.fold_left ( + ) 0 (Array.sub freq lo 10) in
  Alcotest.(check bool) "head decade >> tail decade" true
    (decade 0 > 5 * decade 90)

let test_zipf_uniform () =
  (* s = 0 degenerates to uniform: every 10-rank bucket near 1/10. *)
  let z = Bp_util.Zipf.create ~n:100 ~s:0.0 in
  let r = rng 12L in
  let freq = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let k = Bp_util.Zipf.sample z r in
    freq.(k / 10) <- freq.(k / 10) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform" i)
        true
        (c > 1_600 && c < 2_400))
    freq

let test_zipf_deterministic () =
  let draw seed =
    let z = Bp_util.Zipf.create ~n:1_000_000 ~s:0.99 in
    let r = rng seed in
    List.init 200 (fun _ -> Bp_util.Zipf.sample z r)
  in
  Alcotest.(check (list int)) "same seed, same ranks" (draw 13L) (draw 13L);
  Alcotest.(check bool) "different seed diverges" true (draw 13L <> draw 14L)

let test_zipf_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "n=0 rejected" true
    (invalid (fun () -> Bp_util.Zipf.create ~n:0 ~s:1.0));
  Alcotest.(check bool) "negative s rejected" true
    (invalid (fun () -> Bp_util.Zipf.create ~n:10 ~s:(-0.1)));
  Alcotest.(check bool) "nan s rejected" true
    (invalid (fun () -> Bp_util.Zipf.create ~n:10 ~s:Float.nan))

(* --- arrival processes: offered rate sanity --- *)

let empirical_rate spec seed =
  let arrivals = Loadgen.plan ~rng:(rng seed) spec in
  let last = arrivals.(Array.length arrivals - 1) in
  float_of_int (Array.length arrivals)
  /. (Bp_sim.Time.to_ms last.Loadgen.at /. 1000.0)

let test_poisson_rate () =
  let spec =
    {
      Loadgen.process = Loadgen.Poisson { rate_per_sec = 1000.0 };
      clients = 1;
      skew = 0.0;
      count = 5_000;
    }
  in
  let gen = Loadgen.create ~rng:(rng 21L) spec in
  Alcotest.(check (float 1e-9)) "offered = configured rate" 1000.0
    (Loadgen.offered_per_sec gen);
  let r = empirical_rate spec 22L in
  Alcotest.(check bool) "empirical near offered" true
    (r > 900.0 && r < 1100.0)

let test_bursty_rate () =
  (* Double intensity on half duty cycle: long-run offered rate 1000/s. *)
  let spec =
    {
      Loadgen.process = Loadgen.Bursty { rate_on = 2000.0; on_ms = 2.0; off_ms = 2.0 };
      clients = 50;
      skew = 0.99;
      count = 5_000;
    }
  in
  let gen = Loadgen.create ~rng:(rng 23L) spec in
  Alcotest.(check (float 1e-9)) "offered = rate_on * duty cycle" 1000.0
    (Loadgen.offered_per_sec gen);
  let r = empirical_rate spec 24L in
  Alcotest.(check bool) "empirical near offered" true (r > 800.0 && r < 1200.0)

let test_diurnal_rate_and_quiet () =
  (* One 4 ms cycle: 2 ms at full rate, 2 ms quiet -> offered = base/2,
     and no arrival may land inside a quiet segment. *)
  let trace = [| (2.0, 1.0); (2.0, 0.0) |] in
  let spec =
    {
      Loadgen.process = Loadgen.Diurnal { base_rate = 2000.0; trace };
      clients = 10;
      skew = 0.0;
      count = 2_000;
    }
  in
  let gen = Loadgen.create ~rng:(rng 25L) spec in
  Alcotest.(check (float 1e-9)) "offered = duty-weighted base" 1000.0
    (Loadgen.offered_per_sec gen);
  let r = empirical_rate spec 26L in
  Alcotest.(check bool) "empirical near offered" true (r > 800.0 && r < 1200.0);
  Array.iter
    (fun a ->
      let pos = Float.rem (Bp_sim.Time.to_ms a.Loadgen.at) 4.0 in
      (* Active window is [0, 2]; allow the ns-rounding boundary case. *)
      Alcotest.(check bool)
        (Printf.sprintf "arrival at %.6f ms cycle-pos outside quiet window" pos)
        true
        (pos <= 2.0 +. 1e-6))
    (Loadgen.plan ~rng:(rng 26L) spec)

let test_validation () =
  let invalid spec =
    try
      ignore (Loadgen.create ~rng:(rng 1L) spec);
      false
    with Invalid_argument _ -> true
  in
  let base =
    {
      Loadgen.process = Loadgen.Poisson { rate_per_sec = 100.0 };
      clients = 10;
      skew = 0.0;
      count = 10;
    }
  in
  Alcotest.(check bool) "zero rate" true
    (invalid { base with process = Loadgen.Poisson { rate_per_sec = 0.0 } });
  Alcotest.(check bool) "zero count" true (invalid { base with count = 0 });
  Alcotest.(check bool) "zero clients" true (invalid { base with clients = 0 });
  Alcotest.(check bool) "negative skew" true (invalid { base with skew = -1.0 });
  Alcotest.(check bool) "all-quiet diurnal trace" true
    (invalid
       {
         base with
         process =
           Loadgen.Diurnal { base_rate = 100.0; trace = [| (1.0, 0.0) |] };
       })

(* --- multi-key transaction mix --- *)

let test_mix_targets () =
  let mspec cross skew =
    { Loadgen.shards = 8; cross_fraction = cross; txn_keys = 3; shard_skew = skew }
  in
  let m0 = Loadgen.mix ~rng:(rng 21L) (mspec 0.0 0.0) in
  for _ = 1 to 200 do
    match Loadgen.draw_targets m0 with
    | [ s ] -> Alcotest.(check bool) "shard in range" true (s >= 0 && s < 8)
    | l -> Alcotest.failf "cross=0 drew %d targets" (List.length l)
  done;
  let m1 = Loadgen.mix ~rng:(rng 22L) (mspec 1.0 0.0) in
  for _ = 1 to 200 do
    let l = Loadgen.draw_targets m1 in
    Alcotest.(check int) "txn_keys distinct shards" 3
      (List.length (List.sort_uniq compare l));
    Alcotest.(check bool) "targets sorted" true (l = List.sort compare l)
  done;
  (* Shard skew concentrates singleton draws on the low ranks. *)
  let ms = Loadgen.mix ~rng:(rng 23L) (mspec 0.0 0.99) in
  let freq = Array.make 8 0 in
  for _ = 1 to 4000 do
    match Loadgen.draw_targets ms with
    | [ s ] -> freq.(s) <- freq.(s) + 1
    | _ -> ()
  done;
  Alcotest.(check bool) "hot shard dominates under skew" true
    (freq.(0) > 2 * freq.(7));
  let invalid spec =
    try
      ignore (Loadgen.mix ~rng:(rng 1L) spec);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "cross fraction > 1 rejected" true
    (invalid (mspec 1.5 0.0));
  Alcotest.(check bool) "txn_keys < 2 rejected" true
    (invalid { (mspec 0.5 0.0) with Loadgen.txn_keys = 1 });
  Alcotest.(check bool) "negative shard skew rejected" true
    (invalid (mspec 0.5 (-1.0)))

(* --- streaming scheduler == eager reference (qcheck) --- *)

let arbitrary_spec =
  let open QCheck in
  let process =
    oneof
      [
        map
          (fun r -> Loadgen.Poisson { rate_per_sec = float_of_int (1 + (r mod 5000)) })
          (make Gen.nat);
        map
          (fun (r, on, off) ->
            Loadgen.Bursty
              {
                rate_on = float_of_int (100 + (r mod 5000));
                on_ms = 0.5 +. float_of_int (on mod 5);
                off_ms = 0.5 +. float_of_int (off mod 5);
              })
          (triple (make Gen.nat) (make Gen.nat) (make Gen.nat));
        map
          (fun (r, d) ->
            Loadgen.Diurnal
              {
                base_rate = float_of_int (100 + (r mod 5000));
                trace =
                  [| (1.0 +. float_of_int (d mod 3), 1.5); (2.0, 0.5); (1.0, 0.0) |];
              })
          (pair (make Gen.nat) (make Gen.nat));
      ]
  in
  triple process (int_range 1 1000) (int_range 1 150)

let streaming_matches_eager =
  QCheck.Test.make ~count:60 ~name:"streaming run == eager plan"
    (QCheck.pair arbitrary_spec (QCheck.make QCheck.Gen.nat))
    (fun ((process, clients, count), seed) ->
      let seed = Int64.of_int seed in
      let spec = { Loadgen.process; clients; skew = 0.99; count } in
      let eager = Loadgen.plan ~rng:(rng seed) spec in
      let engine = Bp_sim.Engine.create ~seed:7L () in
      let gen = Loadgen.create ~rng:(rng seed) spec in
      let streamed = ref [] in
      let r =
        Loadgen.run engine ~gen ~submit:(fun i ~client ~on_done ->
            streamed :=
              { Loadgen.index = i; client; at = Bp_sim.Engine.now engine }
              :: !streamed;
            on_done ())
      in
      r.Loadgen.peak_arrivals_pending = 1
      && Array.to_list eager = List.rev !streamed)

(* --- O(1) heap occupancy at scale --- *)

let test_heap_occupancy () =
  (* 50k arrivals with in-flight service events: the generator itself
     still never holds more than one pending arrival, and total heap
     occupancy stays workload-bounded instead of O(count). *)
  let engine = Bp_sim.Engine.create ~seed:31L () in
  let gen =
    Loadgen.create ~rng:(rng 32L)
      {
        Loadgen.process = Loadgen.Poisson { rate_per_sec = 100_000.0 };
        clients = 1_000_000;
        skew = 0.99;
        count = 50_000;
      }
  in
  let r =
    Loadgen.run engine ~gen ~submit:(fun _ ~client:_ ~on_done ->
        ignore
          (Bp_sim.Engine.schedule engine ~after:(Bp_sim.Time.of_ms 0.2) on_done))
  in
  Alcotest.(check int) "all completed" 50_000
    (Bp_util.Stats.count r.Loadgen.latencies);
  Alcotest.(check int) "one pending arrival, ever" 1
    r.Loadgen.peak_arrivals_pending;
  (* 100k/s with 0.2 ms service -> ~20 overlapping service events; far
     below count, which an eager scheduler would put in the heap. *)
  Alcotest.(check bool) "engine heap stays workload-bounded" true
    (r.Loadgen.peak_engine_pending < 200)

(* --- saturation sweep: bit-identical at any --jobs --- *)

let test_saturation_jobs_deterministic () =
  let plan () = Exp_saturation.plan ~knobs:Knobs.default ~scale:0.05 in
  let render_all ?pool () =
    String.concat "" (List.map Report.render (Runner.run_plan ?pool (plan ())))
  in
  let seq = render_all () in
  let pool = Bp_parallel.Pool.create ~jobs:2 in
  let par =
    Fun.protect
      ~finally:(fun () -> Bp_parallel.Pool.shutdown pool)
      (fun () -> render_all ~pool ())
  in
  Alcotest.(check string) "jobs 1 == jobs 2, byte-identical" seq par

let suite =
  [
    ( "loadgen",
      let tc name f = Alcotest.test_case name `Quick f in
      [
        tc "zipf skewed distribution" test_zipf_skewed;
        tc "zipf uniform at s=0" test_zipf_uniform;
        tc "zipf deterministic" test_zipf_deterministic;
        tc "zipf validation" test_zipf_validation;
        tc "poisson offered rate" test_poisson_rate;
        tc "bursty offered rate" test_bursty_rate;
        tc "diurnal rate and quiet windows" test_diurnal_rate_and_quiet;
        tc "spec validation" test_validation;
        tc "transaction mix targets" test_mix_targets;
        QCheck_alcotest.to_alcotest streaming_matches_eager;
        tc "O(1) heap occupancy" test_heap_occupancy;
        tc "saturation bit-identical across jobs"
          test_saturation_jobs_deterministic;
      ] );
  ]
