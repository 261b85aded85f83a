(** Saturation sweep (beyond the paper): open-loop offered rate x
    consensus pipeline depth, driven by {!Loadgen}'s streaming arrival
    processes over a zipf-skewed 200k-client modeled population.

    For each series (depths 1/2/4/8 under the seed's cut-on-any-signal
    batch policy, plus depth 8 under the min-fill/hold adaptive policy)
    the sweep reports achieved throughput and p50/p95/p99 latency at
    each offered rate, the mean batch fill the cut policy achieved, and
    the {e saturation knee} — the highest offered rate whose p99 still
    meets the SLO — as [<series>_saturation_knee_rps] metrics in the
    bench JSON. [peak_arrivals_pending] certifies the generator's
    O(1)-per-process heap occupancy. *)

val slo_p99_ms : float
(** The tail SLO defining the knee. *)

val plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per (series, rate) point — 25 independent worlds. *)

val saturation : ?scale:float -> unit -> Report.t list
