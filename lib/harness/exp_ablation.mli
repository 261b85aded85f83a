(** Ablations beyond the paper's figures — each isolates one design
    choice that DESIGN.md calls out:

    - [reads]: the three read strategies of §VI-A (read-1, 2f+1 quorum,
      linearizable) — what each level of read safety costs.
    - [batching]: §VI-C group commit — throughput with and without
      request batching under concurrent load.
    - [signatures]: HMAC-registry vs real hash-based (Lamport/Merkle)
      signatures — the wire-size and CPU cost of full crypto fidelity.
    - [loss]: commit latency under increasing network loss — what the
      reliable-transport layer absorbs. *)

val reads : ?scale:float -> unit -> Report.t list
val batching : ?scale:float -> unit -> Report.t list
val signatures : ?scale:float -> unit -> Report.t list
val loss : ?scale:float -> unit -> Report.t list

val load : ?scale:float -> unit -> Report.t list
(** Open-loop offered load vs commit latency: the queueing/batching knee
    of group commit (§VI-C) under a Poisson arrival process. *)

(** Plan decompositions for the domain pool: [reads] is one task (its
    three strategies share a populated world); [batching] and
    [signatures] are one task per configuration; [loss] and [load] one
    task per rate. *)

val reads_plan : knobs:Knobs.t -> scale:float -> Runner.plan
val batching_plan : scale:float -> Runner.plan
val signatures_plan : scale:float -> Runner.plan
val loss_plan : scale:float -> Runner.plan
val load_plan : scale:float -> Runner.plan
