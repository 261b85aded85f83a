(** §VIII-A — local commitment performance.

    Fig. 4(a)/(b): latency and throughput of [log-commit] while varying
    the batch size (single datacenter, fi = 1).
    Table II: the same at 100 KB while varying the unit size
    n ∈ {4, 7, 10, 13} (fi 1..4). *)

val fig4_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per batch size. *)

val fig4 : ?scale:float -> unit -> Report.t list
(** Returns the fig4a (latency) and fig4b (throughput) reports. *)

val table2_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per unit size (fi 1..4). *)

val table2 : ?scale:float -> unit -> Report.t list

val pipeline_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** Pipeline-depth ablation (beyond the paper): closed-loop 100 KB
    commits with [batch_max = 1] at depths 1/2/4/8, one task per depth.
    Depth 1 reproduces the stop-and-wait baseline; the report's metrics
    carry per-depth throughput, speedup vs depth 1, p50/p95/p99 latency
    and mean pipeline occupancy. *)

val pipeline : ?scale:float -> unit -> Report.t list

val verify_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** Verification-parallelism ablation (beyond the paper): the pipeline
    workload swept over a (verify_jobs, depth) grid with the modeled
    per-signature verification cost enabled — one task per grid point,
    each pinning its own [verify_jobs]. The report's metrics carry
    [j<jobs>_d<depth>_throughput_mbps] and [..._speedup_vs_d1] (vs the
    same jobs level at depth 1). *)

val verify_ablation : ?scale:float -> unit -> Report.t list
