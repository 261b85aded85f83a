open Bp_sim
open Cmdliner

type load_shape = [ `Poisson | `Bursty | `Diurnal ]

type t = {
  pipeline : int;
  verify_jobs : int;
  cluster_send : bool;
  load_shape : load_shape;
  load_rate : float option;
  skew : float;
  shards : int;
  batch_min_fill : int option;
  batch_hold : Time.t option;
  cache : bool;
}

let default =
  {
    pipeline = 1;
    verify_jobs = 1;
    cluster_send = false;
    load_shape = `Poisson;
    load_rate = None;
    skew = 0.99;
    shards = 1;
    batch_min_fill = None;
    batch_hold = None;
    cache = true;
  }

let validate k =
  let finite_pos r = r > 0.0 && Float.is_finite r in
  let for_all p = Option.fold ~none:true ~some:p in
  let positive_hold =
    match k.batch_hold with Some h -> Time.compare h Time.zero > 0 | None -> false
  in
  (* Each check carries the message for its failure; the first failing
     one is reported. The last is the pair rule Config.make enforces per
     world, judged here on the hold AFTER conversion to whole ns, so a
     sub-nanosecond hold cannot pass as positive and then cut nothing. *)
  let checks =
    [
      ( k.pipeline >= 1,
        Printf.sprintf "--pipeline must be at least 1, got %d" k.pipeline );
      ( k.verify_jobs >= 1,
        Printf.sprintf "--verify-jobs must be at least 1, got %d" k.verify_jobs );
      ( for_all finite_pos k.load_rate,
        Printf.sprintf "--load-rate must be positive and finite, got %g"
          (Option.value k.load_rate ~default:0.0) );
      ( k.skew >= 0.0 && Float.is_finite k.skew,
        Printf.sprintf "--skew must be non-negative and finite, got %g" k.skew );
      ( k.shards >= 1,
        Printf.sprintf "--shards must be at least 1, got %d" k.shards );
      ( for_all (fun m -> m >= 1) k.batch_min_fill,
        "--batch-min-fill must be at least 1" );
      ( for_all (fun m -> m <= 1 || positive_hold) k.batch_min_fill,
        "--batch-min-fill above 1 needs a --batch-hold that rounds to at \
         least 1 ns: a batch below the fill target needs a timer to cut it" );
    ]
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | None -> Ok k
  | Some (_, msg) -> Error msg

(* "inf" and "nan" parse as floats; no knob means either. *)
let parse_finite s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "expected a finite number, got %S" s)

let finite = Arg.conv' (parse_finite, Format.pp_print_float)

(* Milliseconds on the command line, whole nanoseconds in the knob (a
   Time.t is never negative). *)
let millis =
  let parse s =
    match parse_finite s with
    | Ok ms when ms >= 0.0 -> Ok (Time.of_ms ms)
    | Ok _ -> Error (Printf.sprintf "expected a non-negative duration, got %S" s)
    | Error _ as e -> e
  in
  Arg.conv' (parse, fun ppf h -> Format.pp_print_float ppf (Time.to_ms h))

let pipeline =
  let doc =
    "Consensus pipeline depth: how many PBFT slots each primary keeps in \
     flight concurrently. 1 (the default) is the stop-and-wait baseline \
     and reproduces the pre-pipeline tables byte-for-byte; deeper values \
     overlap successive three-phase rounds. The ablation-pipeline \
     experiment sweeps its own depths regardless of this flag."
  in
  Arg.(value & opt int default.pipeline & info [ "pipeline" ] ~docv:"DEPTH" ~doc)

let verify_jobs =
  let doc =
    "Verification parallelism: fans in-replica batch crypto across this \
     many worker domains (and sets the modeled verify parallelism for \
     worlds that charge simulated verification time). Every experiment \
     table except the ablation-verify/ablation-pipeline cost models is \
     bit-identical at any value; only wall time changes."
  in
  Arg.(value & opt int default.verify_jobs & info [ "verify-jobs" ] ~docv:"N" ~doc)

let cluster_send =
  let doc =
    "Inter-participant WAN path: $(b,off) (the default) ships fi+1 \
     signature bundles per record, $(b,on) switches every world to \
     expected-constant byzantine cluster-sending (chain-head probes with \
     one signature each, receiver-side local agreement and intra-unit \
     dispersal). The golden paper tables are recorded under $(b,off); \
     the ablation-clustersend experiment sweeps both modes regardless."
  in
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) default.cluster_send
    & info [ "cluster-send" ] ~docv:"on|off" ~doc)

let load_rate =
  let doc =
    "Probe a single open-loop offered rate (requests/s) instead of the \
     saturation sweep's built-in rate list. Only Loadgen-driven \
     experiments (ablation-saturation) consult it."
  in
  Arg.(
    value
    & opt (some finite) default.load_rate
    & info [ "load-rate" ] ~docv:"RATE" ~doc)

let load_shape =
  let doc =
    "Arrival-process shape for Loadgen-driven experiments: $(b,poisson) \
     (the default), $(b,bursty) (Markov-modulated on/off phases) or \
     $(b,diurnal) (a compressed day-curve rate trace). All shapes offer \
     the same long-run rate."
  in
  Arg.(
    value
    & opt
        (enum [ ("poisson", `Poisson); ("bursty", `Bursty); ("diurnal", `Diurnal) ])
        default.load_shape
    & info [ "load-trace" ] ~docv:"SHAPE" ~doc)

let skew =
  let doc =
    "Zipf exponent over the modeled client population for Loadgen-driven \
     experiments: 0 is uniform, 0.99 (the default) the classic YCSB skew."
  in
  Arg.(value & opt finite default.skew & info [ "skew" ] ~docv:"S" ~doc)

let shards =
  let doc =
    "Keyspace shards for worlds that do not build their own shard map: \
     each shard is an independent Blockplane unit owning a slice of the \
     keyspace, with cross-shard transactions committed through the BFT \
     two-phase protocol. 1 (the default) reproduces the unsharded tables \
     byte-for-byte; the value is clamped to each world's participant \
     count. The ablation-shard experiment sweeps 1..16 regardless."
  in
  Arg.(value & opt int default.shards & info [ "shards" ] ~docv:"N" ~doc)

let batch_min_fill =
  let doc =
    "Adaptive batch-cut fill target: a primary holds a non-empty batch \
     open until it has at least this many requests (or the $(b,--batch-hold) \
     timer fires). 1 (the seed behaviour) cuts on any signal. Values \
     above 1 require a positive $(b,--batch-hold)."
  in
  Arg.(
    value
    & opt (some int) default.batch_min_fill
    & info [ "batch-min-fill" ] ~docv:"N" ~doc)

let batch_hold =
  let doc =
    "Adaptive batch-cut hold timer in milliseconds: the longest a \
     non-empty batch below the fill target waits before being cut anyway. \
     Bounds the latency cost of $(b,--batch-min-fill)."
  in
  Arg.(
    value
    & opt (some millis) default.batch_hold
    & info [ "batch-hold" ] ~docv:"MS" ~doc)

let no_cache =
  Arg.(
    value
    & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the per-node verification/digest caches and \
           content-addressed signing. Every experiment table is \
           bit-identical either way; only wall time changes.")

let term =
  let make pipeline verify_jobs cluster_send load_rate load_shape skew shards
      batch_min_fill batch_hold no_cache =
    validate
      {
        pipeline;
        verify_jobs;
        cluster_send;
        load_shape;
        load_rate;
        skew;
        shards;
        batch_min_fill;
        batch_hold;
        cache = not no_cache;
      }
  in
  Term.(
    term_result' ~usage:true
      (const make $ pipeline $ verify_jobs $ cluster_send $ load_rate
     $ load_shape $ skew $ shards $ batch_min_fill $ batch_hold $ no_cache))

let jobs =
  let doc =
    "Number of worker domains to fan independent simulation tasks across. \
     Results are bit-identical at any job count; only wall time changes. \
     Defaults to the number of cores; 1 runs everything inline."
  in
  let positive j =
    if j >= 1 then Ok j
    else Error (Printf.sprintf "--jobs must be at least 1, got %d" j)
  in
  Term.(
    term_result' ~usage:true
      (const positive
      $ Arg.(
          value
          & opt int (Bp_parallel.Pool.default_jobs ())
          & info [ "j"; "jobs" ] ~docv:"N" ~doc)))

let shape_name = function
  | `Poisson -> "poisson"
  | `Bursty -> "bursty"
  | `Diurnal -> "diurnal"

let fields k =
  let or_null f = Option.fold ~none:"null" ~some:f in
  [
    ("pipeline", string_of_int k.pipeline);
    ("verify_jobs", string_of_int k.verify_jobs);
    ("cluster_send", string_of_bool k.cluster_send);
    ("shards", string_of_int k.shards);
    (* null = the seed's cut-on-any-signal behaviour. *)
    ( "batch",
      Printf.sprintf "{ \"min_fill\": %s, \"hold_ms\": %s }"
        (or_null string_of_int k.batch_min_fill)
        (or_null (fun h -> Printf.sprintf "%g" (Time.to_ms h)) k.batch_hold) );
    (* rate is null when a sweep's own rate list runs. *)
    ( "load",
      Printf.sprintf "{ \"trace\": \"%s\", \"rate\": %s, \"skew\": %g }"
        (shape_name k.load_shape)
        (or_null (Printf.sprintf "%g") k.load_rate)
        k.skew );
    ("cache_enabled", string_of_bool k.cache);
  ]

let with_runtime ~jobs k f =
  Bp_crypto.Verify_cache.set_enabled k.cache;
  Bp_crypto.Verify_batch.set_default_jobs k.verify_jobs;
  let pool = if jobs > 1 then Some (Bp_parallel.Pool.create ~jobs) else None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Bp_parallel.Pool.shutdown pool;
      (* Joins the global batch-verify workers, if any were spawned. *)
      Bp_crypto.Verify_batch.set_default_jobs 1)
    (fun () -> f pool)
