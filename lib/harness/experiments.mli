(** The experiment registry: every table and figure of §VIII, by id.

    Each experiment is registered as a {!Runner.plan} factory — a sweep
    decomposed into independent single-simulation tasks — so a run can
    be executed sequentially or fanned out over a {!Bp_parallel.Pool}
    with bit-identical output. The factory takes the {!Knobs.t} its
    worlds run under, so plans built from different knob sets can share
    one process and one pool. *)

type t = {
  id : string;
  title : string;
  plan : knobs:Knobs.t -> scale:float -> Runner.plan;
}

val all : t list
(** In paper order: table1, fig4, table2, fig5, fig6, fig7, fig8 — then
    the extensions: ablation-reads, -batch, -sig, -loss, -load,
    -saturation, -pipeline, -verify, -shard and -clustersend, then
    locality and costs. *)

val find : string -> t option

val run :
  ?pool:Bp_parallel.Pool.t -> ?knobs:Knobs.t -> t -> scale:float -> Report.t list
(** Execute one experiment under [knobs] (default {!Knobs.default}) —
    on the pool's worker domains when [pool] is given, inline otherwise.
    Output is identical either way. *)
