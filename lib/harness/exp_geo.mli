(** §VIII-B and §VIII-E — geo-correlated fault tolerance.

    Fig. 5: [log-commit] latency at each datacenter while varying fg from
    1 to 3 (fi = 1).
    Fig. 8(a): per-batch latency with fi = fg = 1, primary California,
    when the closest backup (Oregon) fails mid-run.
    Fig. 8(b): the same when the *primary* fails and Virginia takes over. *)

val fig5_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per (datacenter, fg) scenario — 12 worlds. *)

val fig5 : ?scale:float -> unit -> Report.t list

val fig8_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** Two tasks: the backup-failure and primary-failure runs. *)

val fig8 : ?scale:float -> unit -> Report.t list
