(** §VIII-C — communication performance (Fig. 6): the latency of sending
    a message through [send], committing it at the destination through
    [receive], and acknowledging receipt back at the source, for every
    pair of datacenters; plus the overhead relative to the raw RTT. *)

val fig6_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per datacenter pair — 6 worlds. *)

val fig6 : ?scale:float -> unit -> Report.t list

(** Table I is reproduced for completeness (the topology inputs). *)
val table1 : unit -> Report.t list

val table1_plan : unit -> Runner.plan
