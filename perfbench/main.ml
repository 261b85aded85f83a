(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--inject-fault]

   Runs one workload as a series of independent episodes (each a freshly
   set-up world with its own seed), checks every episode's outputs, pools
   the results, and prints every metric by name and unit. The last line
   of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.

   --trace 0 reports the end-to-end metrics. --trace 1 runs the same
   episodes twice, untraced then traced, checks that every virtual-clock
   result is identical, reports the per-layer metrics and the tracing
   overhead, and writes the spans to .bench_build/traces/.
   --inject-fault adds a failing check, for the self-test. See README.md
   in this directory for the workloads and metrics. *)

open Bp_sim
module Runner = Bp_harness.Runner

(* ---------- arguments ---------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--inject-fault]";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | "--inject-fault" :: rest ->
        Hashtbl.replace tbl "inject-fault" "1";
        go rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub flag 2 (String.length flag - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg name = match Hashtbl.find_opt args name with Some v -> v | None -> usage ()

let workload =
  let name = arg "workload" in
  match List.find_opt (fun (w : Workloads.t) -> String.equal w.Workloads.name name) Workloads.all with
  | Some w -> w
  | None ->
      prerr_endline ("unknown workload: " ^ name);
      exit 2

let seed = match int_of_string_opt (arg "seed") with Some s -> s | None -> usage ()

let seconds =
  match float_of_string_opt (arg "seconds") with Some s when s > 0.0 -> s | _ -> usage ()

let traced =
  match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()

let inject_fault = Hashtbl.mem args "inject-fault"

(* ---------- statistics ---------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) - 1)))

(* The highest percentile with at least ten samples beyond it (p99.67
   at 3000 samples, p98 at 500). *)
let tail_q n = 100.0 *. (1.0 -. (10.0 /. float_of_int (max n 20)))

let median l = pct (sorted (Array.of_list l)) 50.0

(* ---------- per-rung readings, pooled over episodes ---------- *)

(* A metric reads a list of rungs: the same rung of every episode. *)
(* Latency of every attempted request, ms. A failed request counts as
   missing any limit: its latency is censored at the deadline, the least
   it could have been. *)
let latencies gs =
  Array.concat
    (List.map
       (fun (g : Workloads.rung) ->
         let r = g.Workloads.r in
         Array.init r.Drive.issued (fun i ->
             let fin = r.Drive.fin.(i) in
             let until = if fin >= 0 then fin else g.Workloads.deadline in
             float_of_int (until - r.Drive.due.(i)) /. 1e6))
       gs)

let p50 gs = pct (sorted (latencies gs)) 50.0

let p_tail gs =
  let a = sorted (latencies gs) in
  pct a (tail_q (Array.length a))

(* Completions per virtual second inside the steady-state windows. *)
let goodput gs =
  let c = ref 0 and span = ref 0 in
  List.iter
    (fun (g : Workloads.rung) ->
      let r = g.Workloads.r in
      for i = 0 to r.Drive.issued - 1 do
        let f = r.Drive.fin.(i) in
        if f >= g.Workloads.w0 && f <= g.Workloads.w1 then incr c
      done;
      span := !span + (g.Workloads.w1 - g.Workloads.w0))
    gs;
  if !span <= 0 then 0.0 else float_of_int !c /. (float_of_int !span /. 1e9)

(* Mean of a gauge over a tenth of the window around its middle, and
   over its last tenth. *)
let mid_and_end (g : Workloads.rung) sampler =
  let w0 = g.Workloads.w0 and w1 = g.Workloads.w1 in
  let tenth = (w1 - w0) / 10 in
  let mid = w0 + ((w1 - w0) / 2) in
  ( Drive.sample_mean sampler ~t0:(mid - (tenth / 2)) ~t1:(mid + (tenth / 2)),
    Drive.sample_mean sampler ~t0:(w1 - tenth) ~t1:w1 )

(* The backlog grows when more requests are outstanding at the end of the
   window than at mid-window, by more than one full batch (64). Requests
   outstanding, not the primary queue alone: past the knee the first few
   hundred requests of backlog fill the pipeline's slots before the
   primary queue starts to grow. *)
let growing g =
  let at_mid, at_end = mid_and_end g g.Workloads.backlog in
  at_end > at_mid +. 64.0

let attempted gs = List.fold_left (fun acc g -> acc + g.Workloads.r.Drive.issued) 0 gs
let completed gs = List.fold_left (fun acc g -> acc + Drive.completed g.Workloads.r) 0 gs

(* ---------- one episode ---------- *)

type episode = {
  rungs : Workloads.rung list;
  setup_s : float;
  wall_s : float;
  events : int;
  slices : (int * float * float) list;
      (** per ~0.1 s slice: events, wall seconds, host speed factor *)
  peak_pending : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  counters : Probe.counters;
  occupancy : float;
  checks : (string * bool) list;
  layer : (string * float * string) list;
  view_changes : int;
  lead_lag_max : int;
  staged_left : int;
  digests_agree : bool;
}

(* Set-up wall time at reference host speed (see [Drive.calibrate]). *)
let timed_setup ~seed ~episode =
  Gc.compact ();
  let speed, _ = Drive.calibrate () in
  let t0 = Unix.gettimeofday () in
  let p = workload.Workloads.setup ~seed ~episode ~seconds in
  (p, (Unix.gettimeofday () -. t0) *. speed /. Drive.calib_ref_per_s)

let run_episode ~seed ~episode =
  let p, setup_s = timed_setup ~seed ~episode in
  let st = Drive.stepper () in
  let worlds = p.Workloads.worlds in
  let before = Probe.read worlds in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let outcome = p.Workloads.measure st in
  let wall_s = Unix.gettimeofday () -. t0 -. st.Drive.calib_s in
  let gc1 = Gc.quick_stat () in
  let counters = Probe.delta ~before ~after:(Probe.read worlds) in
  (* Let in-flight work land before the end-of-run checks. *)
  List.iter
    (fun (w : Runner.world) ->
      let e = w.Runner.engine in
      Engine.run ~until:(Time.add (Engine.now e) (Time.of_ms p.Workloads.settle_ms)) e)
    worlds;
  let checks = outcome.Workloads.checks () @ List.concat_map Probe.unit_checks worlds in
  {
    rungs = outcome.Workloads.rungs;
    setup_s;
    wall_s;
    events = st.Drive.events;
    slices = st.Drive.slices;
    peak_pending = st.Drive.peak_pending;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words -. st.Drive.calib_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    counters;
    occupancy = Probe.mean_occupancy worlds;
    checks;
    layer = outcome.Workloads.layer;
    view_changes = Probe.view_changes worlds;
    lead_lag_max = Probe.lead_lag_max worlds;
    staged_left = Probe.xs_staged worlds;
    digests_agree = List.for_all Probe.all_digests_agree worlds;
  }

(* A run: [episodes] independent episodes, each with its own seed. *)
let episode_seed e = (seed * 1000) + e

let run_episodes () =
  List.init (workload.Workloads.episodes ~seconds ~traced) (fun e ->
      Trace.episode := e;
      let ep = run_episode ~seed:(episode_seed e) ~episode:e in
      let att = attempted ep.rungs in
      Printf.printf
        "episode %d: attempted=%d failed=%d view_changes=%d lead_lag_max=%d wall=%.3fs\n%!" e att
        (att - completed ep.rungs) ep.view_changes ep.lead_lag_max ep.wall_s;
      ep)

(* ---------- pooled readings ---------- *)

let sum f eps = List.fold_left (fun acc e -> acc + f e) 0 eps
let fsum f eps = List.fold_left (fun acc e -> acc +. f e) 0.0 eps
let all_rungs eps = List.concat_map (fun e -> e.rungs) eps

(* Every rung, over all episodes, offered at [rate]. *)
let at_rate eps rate =
  List.filter (fun (g : Workloads.rung) -> Float.equal g.Workloads.rate rate) (all_rungs eps)
let wall eps = fsum (fun e -> e.wall_s) eps

(* Wall nanoseconds per engine event at reference host speed: each
   ~0.1 s slice of the measured phase has its wall time scaled by the
   host speed factor measured right after it (see [Drive.calibrate]);
   the plain figure when the phase is too short to slice. *)
let ns_per_event eps =
  match List.concat_map (fun e -> e.slices) eps with
  | [] -> wall eps *. 1e9 /. float_of_int (max 1 (sum (fun e -> e.events) eps))
  | slices ->
      let events = List.fold_left (fun acc (n, _, _) -> acc + n) 0 slices in
      let wall = List.fold_left (fun acc (_, w, speed) -> acc +. (w *. speed)) 0.0 slices in
      wall *. 1e9 /. float_of_int (max 1 events)

let host_speed eps =
  match List.concat_map (fun e -> List.map (fun (_, _, s) -> s) e.slices) eps with
  | [] -> 1.0
  | l -> median l

(* Completed requests per wall-second of the measured phase at reference
   host speed, its wall time taken as events x [ns_per_event]. *)
let ops_per_wall_s eps =
  let events = sum (fun e -> e.events) eps in
  float_of_int (completed (all_rungs eps)) /. (float_of_int events *. ns_per_event eps /. 1e9)

(* Everything the virtual clock decided, for the traced/untraced match. *)
let virtual_signature eps =
  let b = Buffer.create 4096 in
  List.iter
    (fun (g : Workloads.rung) ->
      let r = g.Workloads.r in
      for i = 0 to r.Drive.issued - 1 do
        Buffer.add_string b (Printf.sprintf "%d:%d;" r.Drive.due.(i) r.Drive.fin.(i))
      done)
    (all_rungs eps);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "ev%d;vc%d;lag%d;" e.events e.view_changes e.lead_lag_max))
    eps;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Set-up time: the median over episodes, with extra set-ups (whose
   worlds are discarded) when a run has fewer than [min_setups]
   episodes. *)
let min_setups = 15

let setup_median eps =
  let extra =
    List.init (max 0 (min_setups - List.length eps)) (fun k ->
        snd (timed_setup ~seed:(episode_seed (1000 + k)) ~episode:k))
  in
  median (List.map (fun e -> e.setup_s) eps @ extra)

(* ---------- output ---------- *)

let metrics : (string * float * string) list ref = ref []
let emit name value unit = metrics := (name, value, unit) :: !metrics

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "-1"

let print_result ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %16.6g %s\n" n v u) ms;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* One line per check name: ok only if it held in every episode. *)
let report_checks eps =
  let names =
    List.sort_uniq String.compare (List.concat_map (fun e -> List.map fst e.checks) eps)
  in
  let failed_in name =
    List.length
      (List.filter
         (fun e -> List.exists (fun (n, ok) -> String.equal n name && not ok) e.checks)
         eps)
  in
  List.iter
    (fun name ->
      let k = failed_in name in
      if k = 0 then Printf.printf "check %-48s ok\n" name
      else Printf.printf "check %-48s FAILED in %d of %d episodes\n" name k (List.length eps))
    names;
  Printf.printf "liveness: view_changes=%d lead_lag_max=%d all_app_digests_agree=%b\n"
    (sum (fun e -> e.view_changes) eps)
    (List.fold_left (fun m e -> max m e.lead_lag_max) 0 eps)
    (List.for_all (fun e -> e.digests_agree) eps);
  List.for_all (fun e -> List.for_all snd e.checks) eps

(* ---------- end-to-end ---------- *)

let end_to_end eps ~setup_s =
  let reference = at_rate eps workload.Workloads.reference_rate in
  let overload_rate = workload.Workloads.overload_rate in
  let is_overload (g : Workloads.rung) =
    match overload_rate with Some r -> Float.equal g.Workloads.rate r | None -> false
  in
  (* Failures are counted over every rung but the overload one. *)
  let counted = List.filter (fun g -> not (is_overload g)) (all_rungs eps) in
  let att = attempted counted and ok = completed counted in
  let knee, over =
    match overload_rate with
    | None ->
        (* A workload measured at one rung has no ladder: its knee reads
           as the goodput it sustained there, its overload figures as
           that rung's. *)
        (goodput reference, reference)
    | Some r ->
        let rates = List.sort_uniq Float.compare (List.map (fun g -> g.Workloads.rate) counted) in
        ( List.fold_left
            (fun acc rate ->
              let column = at_rate eps rate in
              if p_tail column <= workload.Workloads.latency_limit_ms
                 && not (List.exists growing column)
              then Float.max acc rate
              else acc)
            0.0 rates,
          at_rate eps r )
  in
  let all_done = completed (all_rungs eps) in
  List.iter
    (fun rate ->
      let column = at_rate eps rate in
      let means f = List.map (fun g -> mid_and_end g (f g)) column in
      let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
      let mid f = avg (List.map fst (means f)) and fin f = avg (List.map snd (means f)) in
      let q g = g.Workloads.qd and b g = g.Workloads.backlog in
      Printf.printf
        "rung %7.0f/s: %6d requests, p50 %.3f ms, p99 %.3f ms, goodput %.1f/s, outstanding mid %.1f end %.1f, primary queue mid %.1f end %.1f\n"
        rate (attempted column) (p50 column) (p_tail column) (goodput column) (mid b) (fin b)
        (mid q) (fin q))
    (List.sort_uniq Float.compare (List.map (fun g -> g.Workloads.rate) (all_rungs eps)));
  emit "p50_ms" (p50 reference) "ms";
  emit "p99_ms" (p_tail reference) "ms";
  emit "goodput_rps" (goodput reference) "1/s";
  emit "done_frac" (float_of_int ok /. float_of_int (max 1 att)) "frac";
  emit "knee_rps" knee "1/s";
  emit "overload_p99_ms" (p_tail over) "ms";
  emit "overload_goodput_rps" (goodput over) "1/s";
  emit "setup_s" setup_s "s";
  emit "wall_ops_per_s" (ops_per_wall_s eps) "1/s";
  emit "peak_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
    "MB";
  emit "alloc_words_per_op" (fsum (fun e -> e.minor_words) eps /. float_of_int (max 1 all_done))
    "words";
  Printf.printf "wall: %.3f s measured, %.0f ops per raw wall-second, host speed factor %.3f\n"
    (wall eps)
    (float_of_int all_done /. wall eps)
    (host_speed eps);
  let n = attempted reference in
  Printf.printf
    "%d episodes; reference rung: %d requests, tail percentile p%.2f; failed_frac=%.6f (%d of %d)\n"
    (List.length eps) n (tail_q n)
    (1.0 -. (float_of_int ok /. float_of_int (max 1 att)))
    (att - ok) att

(* ---------- per-layer ---------- *)

let span_ends name =
  let t = Hashtbl.create 4096 in
  List.iter
    (fun (s : Trace.span) ->
      if String.equal s.Trace.name name then Hashtbl.replace t s.Trace.req s.Trace.v1)
    (Trace.spans ());
  t

(* Median virtual gap, ms, between two boundaries of the same request;
   "submit" is the instant the request was due. *)
let stage_ms ~from_ ~to_ =
  let b = span_ends to_ in
  let a = if String.equal from_ "submit" then None else Some (span_ends from_) in
  let gaps =
    List.filter_map
      (fun (s : Trace.span) ->
        if not (String.equal s.Trace.name to_) then None
        else
          match a with
          | None -> Some (float_of_int (s.Trace.v1 - s.Trace.v0) /. 1e6)
          | Some a -> (
              match Hashtbl.find_opt a s.Trace.req with
              | Some v0 when s.Trace.v1 >= v0 && Hashtbl.find_opt b s.Trace.req = Some s.Trace.v1
                ->
                  Some (float_of_int (s.Trace.v1 - v0) /. 1e6)
              | _ -> None))
      (Trace.spans ())
  in
  match gaps with [] -> 0.0 | _ -> median gaps

let per_op n d = float_of_int n /. float_of_int (max 1 d)
let ratio hits misses = per_op hits (hits + misses)

let per_layer ~untraced ~traced ~overhead =
  let eps = traced in
  let c = Probe.get (Probe.total (List.map (fun e -> e.counters) eps)) in
  let rungs = all_rungs eps in
  let ops = completed rungs in
  let events = sum (fun e -> e.events) eps in
  emit "sim.events_per_op" (per_op events ops) "count";
  emit "sim.ns_per_event" (ns_per_event eps) "ns";
  emit "sim.peak_pending" (float_of_int (List.fold_left (fun m e -> max m e.peak_pending) 0 eps)) "count";
  emit "net.msgs_per_op" (per_op (c "net.sent") ops) "count";
  emit "net.bytes_per_op" (per_op (c "net.bytes") ops) "B";
  emit "net.wan_msgs_per_op" (per_op (c "net.wan_msgs") ops) "count";
  emit "net.wan_bytes_per_op" (per_op (c "net.wan_bytes") ops) "B";
  emit "transport.retransmits_per_op" (per_op (c "transport.retransmits") ops) "count";
  emit "transport.discards" (float_of_int (c "transport.discards")) "count";
  emit "pbft.batch_fill" (per_op (c "pbft.ops_proposed") (c "pbft.batches_cut")) "count";
  emit "pbft.window_stalls" (float_of_int (c "pbft.window_stalls")) "count";
  emit "pbft.hold_deferrals" (float_of_int (c "pbft.hold_deferrals")) "count";
  emit "pbft.pipeline_occupancy" (fsum (fun e -> e.occupancy) eps /. float_of_int (List.length eps)) "slots";
  let qd = List.concat_map (fun (g : Workloads.rung) -> List.map snd !(g.Workloads.qd.Drive.samples)) rungs in
  emit "pbft.queue_depth_mean" (per_op (List.fold_left ( + ) 0 qd) (List.length qd)) "count";
  emit "pbft.queue_depth_max" (float_of_int (List.fold_left max 0 qd)) "count";
  emit "pbft.order_ms" (stage_ms ~from_:"submit" ~to_:"exec.src") "ms";
  emit "pbft.view_changes" (float_of_int (sum (fun e -> e.view_changes) eps)) "count";
  emit "pbft.lead_lag_max" (float_of_int (List.fold_left (fun m e -> max m e.lead_lag_max) 0 eps)) "count";
  emit "crypto.verifies_per_op" (per_op (c "crypto.verify_hits" + c "crypto.verify_misses") ops) "count";
  emit "crypto.verify_hit_ratio" (ratio (c "crypto.verify_hits") (c "crypto.verify_misses")) "frac";
  emit "crypto.digests_per_op" (per_op (c "crypto.digest_hits" + c "crypto.digest_misses") ops) "count";
  emit "crypto.digest_hit_ratio" (ratio (c "crypto.digest_hits") (c "crypto.digest_misses")) "frac";
  emit "unit.verify_effort_per_op" (per_op (c "unit.verify_effort") ops) "count";
  (* The destination's lead node executes the Recv record and fires
     [Api.on_receive] at the same virtual instant, so this is the WAN leg
     of geo-send, of byzantized Paxos and of the 2PC messages alike. *)
  emit "comm.wan_remote_ms" (stage_ms ~from_:"exec.src" ~to_:"exec.dst") "ms";
  (* Only geo-send sees [Api.send]'s own [on_done]; it is not listed in
     BENCHMARK.json (see README.md), so these two are extra rows there. *)
  if String.equal workload.Workloads.name "geo-send" then begin
    emit "comm.local_commit_ms" (stage_ms ~from_:"submit" ~to_:"local_commit") "ms";
    emit "geo.mirror_wait_ms" (stage_ms ~from_:"exec.src" ~to_:"local_commit") "ms"
  end;
  emit "daemon.sends_per_msg" (per_op (c "daemon.sent") (attempted rungs)) "count";
  emit "daemon.retries" (float_of_int (c "daemon.retries")) "count";
  let layer name =
    fsum
      (fun e ->
        match List.find_opt (fun (n, _, _) -> String.equal n name) e.layer with
        | Some (_, v, _) -> v
        | None -> 0.0)
      eps
  in
  emit "shard.cross_frac" (layer "shard.cross_frac" /. float_of_int (List.length eps)) "frac";
  emit "shard.aborts" (layer "shard.aborts") "count";
  emit "shard.timeouts" (layer "shard.timeouts") "count";
  emit "shard.staged_left" (float_of_int (sum (fun e -> e.staged_left) eps)) "count";
  emit "storage.log_entries_per_op" (per_op (c "storage.lead_log_entries") ops) "count";
  (* GC figures from the untraced pass: spans allocate too. *)
  let u_ops = float_of_int (max 1 (completed (all_rungs untraced))) in
  emit "gc.minor_words_per_op" (fsum (fun e -> e.minor_words) untraced /. u_ops) "words";
  emit "gc.promoted_words_per_op" (fsum (fun e -> e.promoted_words) untraced /. u_ops) "words";
  emit "gc.major_collections" (float_of_int (sum (fun e -> e.major_collections) untraced)) "count";
  List.iter (fun (n, v, u) -> emit n v u) (Micro.rows ());
  emit "trace.overhead_frac" overhead "frac"

(* ---------- main ---------- *)

let write_spans () =
  let dir = ".bench_build/traces" in
  try
    if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/%s-seed%d.jsonl" dir workload.Workloads.name seed in
    Trace.write path;
    Printf.printf "spans written to %s\n" path
  with Sys_error e -> Printf.printf "spans not written: %s\n" e

let () =
  if Bp_crypto.Verify_batch.default_jobs () <> 1 then begin
    prerr_endline "verification worker domains must be off";
    exit 2
  end;
  let eps = run_episodes () in
  let correct = ref (report_checks eps) in
  if inject_fault then begin
    Printf.printf "check %-48s FAILED (injected)\n" "injected_fault";
    correct := false
  end;
  if not traced then end_to_end eps ~setup_s:(setup_median eps)
  else begin
    Trace.enable true;
    let t = run_episodes () in
    Trace.stop ();
    let same = String.equal (virtual_signature eps) (virtual_signature t) in
    Printf.printf "check %-48s %s\n" "trace.virtual_results_identical"
      (if same then "ok" else "FAILED");
    if not same then correct := false;
    (* Both passes drive the same events, so the ratio of their wall time
       per event at reference host speed is the ratio of their wall
       times with host drift taken out. *)
    let overhead = (ns_per_event t /. ns_per_event eps) -. 1.0 in
    Printf.printf
      "tracing overhead: untraced %.3f s, traced %.3f s raw; %+.1f%% at reference host speed; %d spans\n"
      (wall eps) (wall t) (100.0 *. overhead) !Trace.count;
    per_layer ~untraced:eps ~traced:t ~overhead;
    write_spans ()
  end;
  let rungs = all_rungs eps in
  let att = attempted rungs in
  print_result ~correct:!correct ~attempted:att ~failed:(att - completed rungs)
