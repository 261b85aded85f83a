(* The benchmark workloads (BENCHMARK.json lists all but geo-send, see
   below). Each builds its worlds through [Runner.fresh_world] (and so
   [Deployment.create]) in [setup], then drives requests through the
   public [Api], [Shard] and [Byz_paxos] calls in [measure]. All inputs (arrival times, clients, pairs, shard
   targets, payloads) come from generators seeded by the benchmark's
   [--seed]; the program sees only the generated requests.

   Sizes are in virtual time and follow [--seconds] through the constants
   below, so the same (seed, seconds) pair always runs the same requests
   however fast the host is. Wall cost therefore differs by workload: at
   [--seconds 10] on a 2-core x86-64 container an untraced run takes about
   10 s (local-commit, paxos-replicate), 15-20 s (geo-send) or 40-60 s
   (xshard-2pc). A traced run measures its episodes twice; where they
   repeat one set-up it takes half of them, so it costs about what an
   untraced run does (local-commit's rungs are all kept, about twice).
   README.md lists the measured figures. *)

open Bp_sim
open Blockplane
module Runner = Bp_harness.Runner
module Loadgen = Bp_harness.Loadgen
module Rng = Bp_util.Rng

type rung = {
  rate : float;  (** offered requests per virtual second; 0 = closed loop *)
  r : Drive.reqs;
  deadline : int;  (** virtual ns; requests unresolved by then failed *)
  w0 : int;  (** steady-state window, virtual ns: warm-up excluded ... *)
  w1 : int;  (** ... and the drain tail after the last arrival too *)
  qd : Drive.sampler;  (** primary queue depth, max over units *)
  backlog : Drive.sampler;  (** requests issued and not yet resolved *)
}

type outcome = {
  rungs : rung list;
  checks : unit -> (string * bool) list;
      (** read after the settle, so late faults are caught too; not kept
          past it, as it may hold on to the episode's world *)
  layer : (string * float * string) list;  (** workload-specific readings *)
}

type prepared = {
  worlds : Runner.world list;
  measure : Drive.stepper -> outcome;
  settle_ms : float;  (** virtual time to run after measuring, before checks *)
}

type t = {
  name : string;
  reference_rate : float;  (** the rung p50/p99/goodput are read at; 0 = closed loop *)
  overload_rate : float option;  (** the rung past the knee, if any *)
  latency_limit_ms : float;  (** p99 limit defining the knee *)
  episodes : seconds:float -> traced:bool -> int;
      (** independent episodes per run, each a fresh world (set-up) and
          its own seed; results are pooled *)
  setup : seed:int -> episode:int -> seconds:float -> prepared;
}

(* Episodes that repeat one set-up: a traced run measures them twice,
   untraced then traced, so it takes half of them (at least one). *)
let episodes_per ~each_s ~seconds ~traced =
  let n = max 1 (int_of_float (Float.round (seconds /. each_s))) in
  if traced then max 1 (n / 2) else n

(* Generated-input streams: one per purpose, all derived from the seed. *)
let rng ~seed k = Rng.create (Int64.of_int ((seed * 7919) + k))
let world_seed ~seed k = Int64.of_int ((seed * 104_729) + k)

(* Request payloads are about 1 KB: 900 to 1100 bytes, drawn per request
   from the seed, so serialization times differ between seeds. *)
let op_size sizes = 900 + Rng.int sizes 201
let ms_ns ms = int_of_float (ms *. 1e6)
let clients = 200_000

(* d8mf16: pipeline depth 8, hold a cut until 16 requests queue, bounded
   by a 0.25 ms hold timer (the policy ablation-saturation picked). *)
let d8mf16_world ~seed ~n_participants ?shard_map () =
  Runner.fresh_world ~fi:1 ~seed ~n_participants ?shard_map ~max_in_flight:8
    ~batch_min_fill:16 ~batch_hold:(Time.of_ms 0.25) ()

let poisson ~seed ~k ~rate ~count =
  Loadgen.create ~rng:(rng ~seed k)
    { Loadgen.process = Loadgen.Poisson { rate_per_sec = rate }; clients; skew = 0.99; count }

let units_max_queue dep () =
  let m = ref 0 in
  for p = 0 to Deployment.n_participants dep - 1 do
    m := max !m (Api.queue_depth (Deployment.api dep p))
  done;
  !m

(* Traced run only: a span from "due" to the first time the request's
   record executes at a unit's lead node, named by [classify]. *)
let trace_executed (w : Runner.world) (r : Drive.reqs) ~classify =
  if !Trace.on then begin
    let dep = w.Runner.dep in
    let seen = Hashtbl.create 1024 in
    for p = 0 to Deployment.n_participants dep - 1 do
      Unit_node.add_executed_hook (Deployment.node dep p 0) (fun ~pos:_ record ->
          match classify ~participant:p record with
          | None -> ()
          | Some (name, parent, payload) -> (
              match Drive.id_of payload with
              | Some i when i < r.Drive.issued && not (Hashtbl.mem seen (name, i)) ->
                  Hashtbl.replace seen (name, i) ();
                  Trace.mark ~name ~req:i ~parent ~v0:r.Drive.due.(i)
                    ~v1:(Drive.now_ns w.Runner.engine)
              | _ -> ()))
    done
  end

(* Wall time of the submit call itself, as a span (traced run only). *)
let traced_submit engine i f =
  if !Trace.on then begin
    let w0 = Unix.gettimeofday () in
    f ();
    let v = Drive.now_ns engine in
    Trace.add ~name:"submit" ~req:i ~parent:"" ~v0:v ~v1:v ~w0 ~w1:(Unix.gettimeofday ())
  end
  else f ()

let span_at engine (r : Drive.reqs) ~name ~parent i =
  Trace.mark ~name ~req:i ~parent ~v0:r.Drive.due.(i) ~v1:(Drive.now_ns engine)

(* Run one open-loop rung on [w]: [count] arrivals from [gen], handed to
   [submit], then stepped until all resolve or the deadline passes. The
   steady-state window drops the first fifth of the arrival span
   (warm-up) and everything after the last arrival (the drain tail). *)
let open_rung st (w : Runner.world) ~rate ~count ~gen ~window_ms ~drain_ms ~sample_ms
    ~submit =
  let engine = w.Runner.engine in
  let r = Drive.reqs count in
  let start = Engine.now engine in
  let qd = Drive.sampler engine ~every_ms:sample_ms (units_max_queue w.Runner.dep) in
  let backlog = Drive.sampler engine ~every_ms:sample_ms (Drive.outstanding r) in
  Drive.open_loop engine r ~gen ~start ~submit:(submit r);
  let deadline = Time.to_ns start + ms_ns (window_ms +. drain_ms) in
  Drive.run st engine ~deadline ~stop:(fun () -> r.Drive.resolved = count);
  Drive.close r;
  Drive.stop_sampler qd;
  Drive.stop_sampler backlog;
  let n = r.Drive.issued in
  let first = if n > 0 then r.Drive.due.(0) else Time.to_ns start in
  let last = if n > 0 then r.Drive.due.(n - 1) else first in
  { rate; r; deadline; w0 = first + ((last - first) / 5); w1 = last; qd; backlog }

let single_rung ~checks ~layer rung = { rungs = [ rung ]; checks; layer }

(* Set-up warm-up: [n] requests submitted at once through [submit],
   stepped until all complete (at most 5 virtual seconds), so pipelines,
   caches and daemons are warm before the measured phase and set-up time
   is simulation work rather than a fraction of a millisecond of
   allocation. Warm-up payloads carry no measured request's id.
   [submit] may hand [on_done] to whichever callback ends the request. *)
let warm_payload = String.make 1000 'w'

let warm_up (w : Runner.world) ~n ~submit =
  let engine = w.Runner.engine in
  let left = ref n in
  for i = 0 to n - 1 do
    submit i ~on_done:(fun () -> decr left)
  done;
  let until = Time.add (Engine.now engine) (Time.of_sec 5.0) in
  while !left > 0 && Time.( < ) (Engine.now engine) until && Engine.step engine do
    ()
  done

let dup_check (r : Drive.reqs) = ("requests.completed_at_most_once", r.Drive.dups = 0)

(* ---------- local-commit ---------- *)

(* One unit, open loop at a fixed rate ladder plus an overload rung. Each
   rung is an episode of its own with a fresh world, so no backlog
   carries over and only one rung's world is alive at a time. *)
let lc_ladder = [ 50_000.0; 100_000.0; 150_000.0; 200_000.0 ]
let lc_overload = 300_000.0
let lc_rates = lc_ladder @ [ lc_overload ]
let lc_reference = 150_000.0

(* p99 limit defining the knee: ~5x the unloaded local-commit p99. *)
let lc_limit_ms = 10.0

let local_commit =
  let setup ~seed ~episode ~seconds =
    let rate = List.nth lc_rates (episode mod List.length lc_rates) in
    let w = d8mf16_world ~seed:(world_seed ~seed 0) ~n_participants:1 () in
    let api = Deployment.api w.Runner.dep 0 in
    warm_up w ~n:64 ~submit:(fun _ ~on_done -> Api.log_commit api warm_payload ~on_done);
    (* 2.5 ms of arrivals per rung per second of budget. *)
    let window_ms = 2.5 *. seconds in
    let measure st =
      let engine = w.Runner.engine in
      let count = max 50 (int_of_float (rate *. window_ms /. 1000.0)) in
      let gen = poisson ~seed ~k:100 ~rate ~count in
      let sizes = rng ~seed 150 in
      let rung =
        open_rung st w ~rate ~count ~gen ~window_ms ~drain_ms:50.0
          ~sample_ms:(window_ms /. 200.0)
          ~submit:(fun r i ~client ->
            if i = 0 then
              trace_executed w r ~classify:(fun ~participant:_ -> function
                | Record.Commit s -> Some ("exec.src", "submit", s)
                | _ -> None);
            let payload =
              Drive.payload ~size:(op_size sizes) ~extra:(Printf.sprintf "c%d;" client) i
            in
            traced_submit engine i (fun () ->
                Api.log_commit api payload
                  ~on_rejected:(fun () -> Drive.fail r i)
                  ~on_done:(fun () ->
                    Drive.complete r engine i;
                    span_at engine r ~name:"done" ~parent:"exec.src" i)))
      in
      single_rung rung ~checks:(fun () -> [ dup_check rung.r ]) ~layer:[]
    in
    { worlds = [ w ]; measure; settle_ms = 20.0 }
  in
  {
    name = "local-commit";
    reference_rate = lc_reference;
    overload_rate = Some lc_overload;
    latency_limit_ms = lc_limit_ms;
    episodes = (fun ~seconds:_ ~traced:_ -> List.length lc_rates);
    setup;
  }

(* ---------- geo-send ---------- *)

(* Four participants on Table I, fi = 1, fg = 1; 1 KB sends spread
   uniformly over the 12 ordered pairs at a modest fixed rate. A request
   runs from [Api.send] to [Api.on_receive] at the destination.

   Runnable, but not listed in BENCHMARK.json: on most seeds the
   destination commits a received transmission more than once, so
   [on_receive] fires again and the at-most-once and pair-order checks
   fail (README.md, "Duplicate delivery"). It goes back on the list once
   the receive path is fixed. *)
let gs_participants = 4

(* 500/s in 1 s episodes (shorter below 2 s of budget), about 3 s of
   wall time each, six a run. At 300/s too many runs saw under 1% of
   their requests stall, so the tail percentile jumped between the
   stalled and the unstalled regime from seed to seed; longer episodes
   made the failed share swing instead. *)
let gs_rate = 500.0
let gs_episode_ms ~seconds = Float.min 1000.0 (500.0 *. seconds)

(* Warm-up messages carry their own tag, so a late or repeated warm-up
   delivery is recognised as one rather than taken for a foreign message. *)
let gs_warm_tag = "wu#"

let geo_send =
  let setup ~seed ~episode:_ ~seconds =
    let w =
      Runner.fresh_world ~fi:1 ~fg:1 ~seed:(world_seed ~seed 0)
        ~n_participants:gs_participants ()
    in
    let dep = w.Runner.dep and np = gs_participants in
    (* Deliveries are watched from before the warm-up. Warm-up message k
       goes on the k-th ordered pair and counts as done when it is
       received at its destination, so none lands in the measured phase. *)
    let warm_n = np * (np - 1) in
    let warm_src k = k / (np - 1) in
    let warm_dest k = (warm_src k + 1 + (k mod (np - 1))) mod np in
    let warm_done = Array.make warm_n ignore and warm_seen = Array.make warm_n 0 in
    let foreign = ref 0 in
    let measured = ref (fun ~src:_ ~dest:_ _ -> incr foreign) in
    for p = 0 to np - 1 do
      Api.on_receive (Deployment.api dep p) (fun ~src payload ->
          match Drive.id_of ~tag:gs_warm_tag payload with
          | Some k when k < warm_n && warm_src k = src && warm_dest k = p ->
              warm_seen.(k) <- warm_seen.(k) + 1;
              if warm_seen.(k) = 1 then warm_done.(k) ()
          | Some _ -> incr foreign
          | None -> !measured ~src ~dest:p payload)
    done;
    warm_up w ~n:warm_n ~submit:(fun k ~on_done ->
        warm_done.(k) <- on_done;
        Api.send (Deployment.api dep (warm_src k)) ~dest:(warm_dest k)
          (Drive.payload ~tag:gs_warm_tag ~size:1000 k)
          ~on_done:ignore);
    let window_ms = gs_episode_ms ~seconds in
    let measure st =
      let engine = w.Runner.engine in
      let count = max 20 (int_of_float (gs_rate *. window_ms /. 1000.0)) in
      let src_of = Array.make count 0 and dst_of = Array.make count 0 in
      let pairs = rng ~seed 201 and sizes = rng ~seed 202 in
      let last = Array.make (np * np) (-1) in
      let out_of_order = ref 0 in
      let table = ref (Drive.reqs 0) in
      (measured :=
         fun ~src ~dest payload ->
           let r = !table in
           match Drive.id_of payload with
           | Some i when i < r.Drive.issued && src_of.(i) = src && dst_of.(i) = dest ->
               if i <= last.((src * np) + dest) then incr out_of_order
               else last.((src * np) + dest) <- i;
               Drive.complete r engine i;
               span_at engine r ~name:"deliver" ~parent:"exec.dst" i
           | _ -> incr foreign);
      let gen = poisson ~seed ~k:200 ~rate:gs_rate ~count in
      let rung =
        open_rung st w ~rate:gs_rate ~count ~gen ~window_ms ~drain_ms:3000.0 ~sample_ms:10.0
          ~submit:(fun r i ~client:_ ->
            if i = 0 then begin
              table := r;
              trace_executed w r ~classify:(fun ~participant -> function
                | Record.Comm c -> Some ("exec.src", "submit", c.Record.payload)
                | Record.Recv t when t.Record.tdest = participant ->
                    Some ("exec.dst", "exec.src", t.Record.tpayload)
                | _ -> None)
            end;
            let src = Rng.int pairs np in
            let dest = (src + 1 + Rng.int pairs (np - 1)) mod np in
            src_of.(i) <- src;
            dst_of.(i) <- dest;
            traced_submit engine i (fun () ->
                Api.send (Deployment.api dep src) ~dest
                  (Drive.payload ~size:(op_size sizes) i)
                  ~on_rejected:(fun () -> Drive.fail r i)
                  ~on_done:(fun () -> span_at engine r ~name:"local_commit" ~parent:"exec.src" i)))
      in
      single_rung rung ~checks:(fun () ->
          [
            dup_check rung.r;
            ( "geo_send.warm_up_delivered_at_most_once",
              Array.for_all (fun n -> n <= 1) warm_seen );
            ("geo_send.delivered_in_pair_order", !out_of_order = 0);
            ("geo_send.no_foreign_delivery", !foreign = 0);
          ])
        ~layer:[]
    in
    { worlds = [ w ]; measure; settle_ms = 2000.0 }
  in
  {
    name = "geo-send";
    reference_rate = gs_rate;
    overload_rate = None;
    latency_limit_ms = Float.infinity;
    episodes = episodes_per ~each_s:1.67;
    setup;
  }

(* ---------- xshard-2pc ---------- *)

(* Four units on Table I, range shard map, d8mf16; 20% of requests are
   2-key cross-shard transactions, uniform shard popularity. A request
   runs from [Shard.submit] to [on_done]; [on_aborted] counts as failed.
   2k/s per unit rather than 2.5k/s, so that two episodes fit a run. *)
let xs_rate_per_unit = 2000.0
let xs_units = 4
let xs_cross = 0.2
let xs_txn_keys = 2
(* 1 s of virtual time per episode (shorter below 10 s of budget),
   about 20 s of wall time, nearly all of it in the arrival window rather
   than the drain: the stall needs most of a second to set in. *)
let xs_episode_ms ~seconds = Float.min 1000.0 (100.0 *. seconds)

let xshard_2pc =
  let setup ~seed ~episode:_ ~seconds =
    let map =
      Shard.make
        ~policy:(Shard.Range (Array.init (xs_units - 1) (fun i -> Printf.sprintf "s%02d" (i + 1))))
        ~shards:xs_units ()
    in
    let w = d8mf16_world ~seed:(world_seed ~seed 0) ~n_participants:xs_units ~shard_map:map () in
    (* 16 single-shard ops on every shard *)
    warm_up w ~n:(16 * xs_units) ~submit:(fun i ~on_done ->
        let key = Shard.key_for map ~shard:(i mod xs_units) ~salt:(1_000_000 + i) in
        Shard.submit (Deployment.shard_router w.Runner.dep) [ (key, warm_payload) ] ~on_done);
    let window_ms = xs_episode_ms ~seconds in
    let measure st =
      let engine = w.Runner.engine and dep = w.Runner.dep in
      let router = Deployment.shard_router dep in
      let rate = xs_rate_per_unit *. float_of_int xs_units in
      let count = max 50 (int_of_float (rate *. window_ms /. 1000.0)) in
      let mix =
        Loadgen.mix ~rng:(rng ~seed 301)
          { Loadgen.shards = xs_units; cross_fraction = xs_cross; txn_keys = xs_txn_keys; shard_skew = 0.0 }
      in
      let gen = poisson ~seed ~k:300 ~rate ~count in
      let sizes = rng ~seed 302 in
      let parts = Array.make count [] in
      let rung =
        open_rung st w ~rate ~count ~gen ~window_ms ~drain_ms:4000.0 ~sample_ms:5.0
          ~submit:(fun r i ~client ->
            if i = 0 then
              trace_executed w r ~classify:(fun ~participant -> function
                | Record.Commit s -> Some ("exec.src", "submit", s)
                | Record.Recv t when t.Record.tdest = participant ->
                    Some ("exec.dst", "exec.src", t.Record.tpayload)
                | _ -> None);
            let targets = Loadgen.draw_targets mix in
            parts.(i) <- targets;
            let payload =
              Drive.payload ~size:(op_size sizes) ~extra:(Printf.sprintf "c%d;" client) i
            in
            let ops = List.map (fun s -> (Shard.key_for map ~shard:s ~salt:i, payload)) targets in
            traced_submit engine i (fun () ->
                Shard.submit router ops
                  ~on_aborted:(fun () ->
                    Drive.fail r i;
                    span_at engine r ~name:"aborted" ~parent:"submit" i)
                  ~on_done:(fun () ->
                    Drive.complete r engine i;
                    span_at engine r ~name:"done" ~parent:"submit" i)))
      in
      let s = Shard.stats router in
      (* A cross-shard transaction stages its slice on each of its shards
         until the decide executes there. One that completed has its
         decides executed by f+1 replicas of every shard, so a node 0 that
         has caught up with its peers has executed them too: after the
         settle, such a unit may only hold slices of transactions that
         failed or are still unresolved. A unit whose node 0 lags is left
         to [pbft.lead_lag_max]. *)
      let staged_within_unfinished () =
        List.for_all
          (fun u ->
            let unfinished = ref 0 in
            for i = 0 to rung.r.Drive.issued - 1 do
              if rung.r.Drive.fin.(i) < 0 && List.length parts.(i) > 1 && List.mem u parts.(i)
              then incr unfinished
            done;
            Probe.lead_lag dep u > 0 || Api.xs_staged (Deployment.api dep u) <= !unfinished)
          (List.init xs_units Fun.id)
      in
      single_rung rung
        ~checks:(fun () ->
          [ dup_check rung.r; ("shard.staged_left_within_unfinished_txns", staged_within_unfinished ()) ])
        ~layer:
          [
            ( "shard.cross_frac",
              float_of_int s.Shard.cross_shard
              /. float_of_int (max 1 (s.Shard.cross_shard + s.Shard.single_shard)),
              "frac" );
            ("shard.aborts", float_of_int s.Shard.aborted, "count");
            ("shard.timeouts", float_of_int s.Shard.timeouts, "count");
          ]
    in
    { worlds = [ w ]; measure; settle_ms = 4000.0 }
  in
  {
    name = "xshard-2pc";
    reference_rate = xs_rate_per_unit *. float_of_int xs_units;
    overload_rate = None;
    latency_limit_ms = Float.infinity;
    episodes = episodes_per ~each_s:6.0;
    setup;
  }

(* ---------- paxos-replicate ---------- *)

(* Byzantized Paxos with the leader in California: a closed loop with
   one outstanding [Byz_paxos.replicate], because the leader's caller
   waits for each result. The election is part of set-up. *)
let px_participants = 4
(* 4 s of virtual time per episode, about 0.5 s of wall time. *)
let px_episode_ms = 4000.0

let paxos_replicate =
  let setup ~seed ~episode:_ ~seconds:_ =
    let w =
      Runner.fresh_world ~seed:(world_seed ~seed 0) ~n_participants:px_participants
        ~app:(fun () -> App.make (module Bp_apps.Byz_paxos.Protocol))
        ()
    in
    let drivers =
      Array.init px_participants (fun p ->
          Bp_apps.Byz_paxos.attach (Deployment.api w.Runner.dep p) ~n_participants:px_participants)
    in
    let elected = ref false in
    Bp_apps.Byz_paxos.elect drivers.(0) ~on_elected:(fun ok -> elected := ok);
    Engine.run ~until:(Time.add (Engine.now w.Runner.engine) (Time.of_sec 5.0)) w.Runner.engine;
    let window_ms = px_episode_ms in
    let measure st =
      let engine = w.Runner.engine in
      let count = max 10 (int_of_float (window_ms /. 50.0)) in
      let sizes = rng ~seed 401 and think = rng ~seed 402 in
      let r = Drive.reqs count in
      trace_executed w r ~classify:(fun ~participant -> function
        | Record.Comm c when participant = 0 -> Some ("exec.src", "submit", c.Record.payload)
        | Record.Recv t when t.Record.tdest = participant ->
            Some ("exec.dst", "exec.src", t.Record.tpayload)
        | _ -> None);
      let qd = Drive.sampler engine ~every_ms:10.0 (units_max_queue w.Runner.dep) in
      let backlog = Drive.sampler engine ~every_ms:10.0 (Drive.outstanding r) in
      let start = Drive.now_ns engine in
      let until = start + ms_ns window_ms in
      if !elected then
        Drive.closed_loop engine r ~until ~submit:(fun i ~next ->
            traced_submit engine i (fun () ->
                Bp_apps.Byz_paxos.replicate drivers.(0)
                  (Drive.payload ~size:(op_size sizes) i)
                  ~on_result:(fun ok ->
                    if ok then Drive.complete r engine i else Drive.fail r i;
                    span_at engine r ~name:"done" ~parent:"submit" i;
                    (* the caller thinks for 0 to 5 ms before the next one *)
                    ignore (Engine.schedule engine ~after:(Time.of_us (Rng.int think 5000)) next))));
      let deadline = until + ms_ns 5000.0 in
      Drive.run st engine ~deadline ~stop:(fun () ->
          r.Drive.resolved = r.Drive.issued && Drive.now_ns engine >= until);
      Drive.close r;
      Drive.stop_sampler qd;
      Drive.stop_sampler backlog;
      (* The loop stops issuing when a request never returns, so the
         steady-state window ends at the last request issued. *)
      let last = if r.Drive.issued > 0 then r.Drive.due.(r.Drive.issued - 1) else start in
      let rung = { rate = 0.0; r; deadline; w0 = start + ((last - start) / 5); w1 = last; qd; backlog }
      in
      single_rung rung ~checks:(fun () -> [ dup_check r; ("paxos.leader_elected", !elected) ]) ~layer:[]
    in
    { worlds = [ w ]; measure; settle_ms = 2000.0 }
  in
  {
    name = "paxos-replicate";
    reference_rate = 0.0;
    overload_rate = None;
    latency_limit_ms = Float.infinity;
    episodes = episodes_per ~each_s:0.5;
    setup;
  }

let all = [ local_commit; geo_send; xshard_2pc; paxos_replicate ]
