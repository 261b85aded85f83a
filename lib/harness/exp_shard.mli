(** Keyspace-sharding scale-out study (beyond the paper; ROADMAP:
    multi-unit sharding): 1..16 independent Blockplane units at fixed
    per-unit resources — each unit keeps its own 3fi+1 nodes, its own
    datacenter ({!Bp_sim.Topology.tiled} over Table I) and the d8mf16
    batch-cut policy — under open-loop load offered proportionally to
    the shard count ({!Loadgen}, with its multi-key transaction mix
    targeting shards through {!Blockplane.Shard.key_for}).

    Series: 0% / 5% / 20% cross-shard transaction mix (uniform shard
    popularity) plus 5% with zipf(0.99) shard skew. The 0% series is the
    scale-out headline ([x0_scaleout] = aggregate throughput at 16 units
    over the 1-unit point); the others price the cross-shard BFT
    two-phase commit and hot-shard contention honestly, including abort
    downgrades. Per-point metrics land in the bench JSON as
    [<series>_s<shards>_{achieved_rps,p99_ms,cross,aborted,timeouts,
    staged_left}]. *)

val plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per (series, shard-count) point — 20 independent worlds. *)

val shard : ?scale:float -> unit -> Report.t list
