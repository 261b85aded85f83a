(** Shared experiment machinery: deterministic worlds over the paper's
    AWS topology and CPS-style measurement loops (the simulator is
    event-driven, so sequential workloads are chained through callbacks). *)

type world = {
  engine : Bp_sim.Engine.t;
  net : Bp_sim.Network.t;
  dep : Blockplane.Deployment.t;
}

val fresh_world :
  ?knobs:Knobs.t ->
  ?fi:int ->
  ?fg:int ->
  ?seed:int64 ->
  ?n_participants:int ->
  ?topology:Bp_sim.Topology.t ->
  ?batch_max:int ->
  ?batch_min_fill:int ->
  ?batch_hold:Bp_sim.Time.t ->
  ?max_in_flight:int ->
  ?verify_cost:Bp_sim.Time.t ->
  ?verify_jobs:int ->
  ?cluster_send:bool ->
  ?shards:int ->
  ?shard_map:Blockplane.Shard.map ->
  ?prepare_timeout:Bp_sim.Time.t ->
  ?app:(unit -> Blockplane.App.instance) ->
  unit ->
  world
(** A deterministic world: engine, network and deployment. [topology]
    defaults to the paper's Table I; when [n_participants] exceeds its
    four regions the default becomes {!Bp_sim.Topology.tiled} over it,
    so scale-out worlds get one datacenter per unit at fixed per-unit
    resources. [knobs] (default {!Knobs.default}) fills every pipeline,
    verify-jobs, cluster-send, batch-cut and shard parameter the caller
    leaves out; an explicit argument always wins. [shards] / [shard_map]
    select the keyspace partition (explicit map wins; neither = the
    [shards] knob clamped to the participant count, while an explicit
    [shards] above the participants raises); [prepare_timeout] bounds
    the cross-shard vote wait (see {!Blockplane.Shard.router}). *)

val payload : size:int -> int -> string
(** Deterministic batch contents of the given byte size (the index makes
    successive batches distinct). *)

val sequential :
  Bp_sim.Engine.t ->
  n:int ->
  warmup:int ->
  run_one:(int -> on_done:(float -> unit) -> unit) ->
  Bp_util.Stats.t
(** Run [warmup + n] operations strictly one after another; [run_one i]
    must eventually call [on_done latency_ms]. Returns the statistics of
    the measured (post-warmup) operations. Drives the engine itself. *)

val closed_loop :
  Bp_sim.Engine.t ->
  total:int ->
  outstanding:int ->
  run_one:(int -> on_done:(float -> unit) -> unit) ->
  Bp_util.Stats.t * Bp_sim.Time.t
(** Run [total] operations keeping up to [outstanding] in flight at
    once (each completion launches the next). Returns the per-operation
    latency statistics and the makespan in simulated time — the basis
    for throughput under concurrency, where {!sequential} can only
    measure stop-and-wait latency. Drives the engine itself. *)

val scaled : float -> int -> int
(** [scaled s n] = max 1 (round (s * n)) — workload scaling. *)

type plan =
  | Plan : {
      tasks : (unit -> 'a) list;
      merge : 'a list -> Report.t list;
    }
      -> plan
(** An experiment as a list of independent closed tasks plus a merge of
    their results. Each task must be self-contained: it builds its own
    engine, network and deployment from its own fixed seed and shares no
    mutable state with any other task, so the tasks can run on worker
    domains in any order. [merge] always receives the results in
    task-index order — which is why parallel output is bit-identical to
    sequential. *)

val run_plan : ?pool:Bp_parallel.Pool.t -> plan -> Report.t list
(** Execute a plan's tasks — sequentially in task order when [pool] is
    absent, on the pool's worker domains otherwise — and merge the
    results. The two modes produce identical reports by construction. *)
