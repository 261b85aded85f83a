(** The harness-wide deployment knobs: one explicit, validated value.

    A knob fills a gap, it never overrides: {!Runner.fresh_world} uses a
    knob only for the parameters a world does not pick itself, so an
    experiment that sweeps a parameter (the pipeline ablation's depths,
    the shard ablation's maps) keeps its own values under any flags.
    Both executables parse the knobs with the one {!term} below. *)

type load_shape = [ `Poisson | `Bursty | `Diurnal ]
(** Arrival-process families (see {!Loadgen.process}). *)

type t = {
  pipeline : int;
      (** [--pipeline]: PBFT slots each primary keeps in flight. 1 is
          the stop-and-wait seed, byte-identical to the pre-pipeline
          tables. *)
  verify_jobs : int;
      (** [--verify-jobs]: modeled in-replica verify parallelism (only
          observable where a world sets [verify_cost]); the executables
          also size the real [Bp_crypto.Verify_batch] fan-out from it. *)
  cluster_send : bool;
      (** [--cluster-send]: expected-constant cluster-sending instead of
          fi+1-signature bundles on the inter-participant path. *)
  load_shape : load_shape;  (** [--load-trace]: Loadgen arrival process. *)
  load_rate : float option;
      (** [--load-rate]: one probed offered rate replacing a Loadgen
          sweep's own rate list; [None] keeps the sweep. *)
  skew : float;
      (** [--skew]: zipf exponent over the modeled client population;
          0 is uniform. *)
  shards : int;
      (** [--shards]: keyspace shards for worlds without their own shard
          map, clamped per world to its participant count. *)
  batch_min_fill : int option;
      (** [--batch-min-fill]: batch-cut fill target; [None] keeps the
          seed's cut-on-any-signal policy. *)
  batch_hold : Bp_sim.Time.t option;
      (** [--batch-hold]: batch-cut hold timer. *)
  cache : bool;
      (** [--no-cache] clears it: the process-wide
          [Bp_crypto.Verify_cache] mode. *)
}

val default : t
(** Every flag at its default: the seed-identical configuration. *)

val validate : t -> (t, string) result
(** The one validation step: positive counts, a positive finite rate, a
    finite non-negative skew, and the [Bp_pbft.Config.make] pair rule
    judged on the converted hold — a fill target above 1 needs a hold of
    at least 1 ns. The error names the offending flag. *)

val term : t Cmdliner.Term.t
(** All ten knob flags, converted and validated. Non-finite numbers and
    invalid values are Cmdliner usage errors (exit 124). *)

val jobs : int Cmdliner.Term.t
(** [-j]/[--jobs]: worker domains for a {!Runner.plan}'s tasks. Not a
    knob — results are identical at any value. *)

val fields : t -> (string * string) list
(** The knobs as [(name, JSON value)] pairs, in bench-JSON header
    order. The bench prints them as its banner and as its JSON header
    fields. *)

val with_runtime : jobs:int -> t -> (Bp_parallel.Pool.t option -> 'a) -> 'a
(** Apply the two process-level knobs ([verify_jobs] to the
    [Verify_batch] fan-out, [cache] to [Verify_cache]), run [f] with a
    [jobs]-domain pool ([None] at 1), then shut the pool and the batch
    verify workers down. Executables only: library code takes knobs as
    a value. *)
