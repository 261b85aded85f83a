(** The locality claim, quantified.

    The paper's central design argument (§III-A, §IX) is that Blockplane
    "performs as much computation as possible locally and only
    communicates across the wide-area link when necessary". This
    experiment runs the same consensus workload (one leader election plus
    replicated commands) under Blockplane-Paxos and under flat geo-PBFT,
    and reports where the bytes actually went: intra-datacenter vs
    wide-area, per system. *)

val locality_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** Two tasks: the Blockplane-Paxos and flat-PBFT runs. *)

val locality : ?scale:float -> unit -> Report.t list
