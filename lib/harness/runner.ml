open Bp_sim

type world = {
  engine : Engine.t;
  net : Network.t;
  dep : Blockplane.Deployment.t;
}

(* An explicit per-world value wins; the knob fills only the gaps. The
   batch pair stays optional on both sides so an experiment's own policy
   and a world passing nothing compose instead of resetting each other:
   [Bp_pbft.Config.make] judges the min-fill/hold pair rule on the
   COMPOSED values. The default shard count clamps to [n_participants]
   so small fixed-size worlds (the fig4 unit, the two-participant comm
   studies) stay valid under --shards 16; an EXPLICIT [?shards] is never
   clamped — more shards than participants raises in Deployment. *)
let fresh_world ?(knobs = Knobs.default) ?(fi = 1) ?(fg = 0) ?(seed = 4242L)
    ?(n_participants = 4) ?topology ?batch_max ?batch_min_fill ?batch_hold
    ?max_in_flight ?verify_cost ?verify_jobs ?cluster_send ?shards ?shard_map
    ?prepare_timeout
    ?(app = fun () -> Blockplane.App.make (module Blockplane.App.Null)) () =
  let engine = Engine.create ~seed () in
  (* More participants than the paper's four regions: tile the Table I
     topology (metro twins per region) so every unit still gets its own
     datacenter. Deployments within the first four sites are unchanged. *)
  let topology =
    match topology with
    | Some topo -> topo
    | None ->
        if n_participants <= Topology.num_dcs Topology.aws_paper then
          Topology.aws_paper
        else Topology.tiled Topology.aws_paper ~sites:n_participants
  in
  let net = Network.create engine topology () in
  let or_knob v k = if Option.is_some v then v else k in
  let shard_map =
    match (shard_map, shards) with
    | Some m, _ -> m
    | None, Some s -> Blockplane.Shard.make ~shards:s ()
    | None, None ->
        Blockplane.Shard.make ~shards:(Stdlib.min knobs.Knobs.shards n_participants) ()
  in
  let dep =
    Blockplane.Deployment.create ~network:net ~n_participants ~fi ~fg ?batch_max
      ?batch_min_fill:(or_knob batch_min_fill knobs.batch_min_fill)
      ?batch_hold:(or_knob batch_hold knobs.batch_hold)
      ~max_in_flight:(Option.value max_in_flight ~default:knobs.pipeline)
      ?verify_cost
      ~verify_jobs:(Option.value verify_jobs ~default:knobs.verify_jobs)
      ~cluster_send:(Option.value cluster_send ~default:knobs.cluster_send)
      ~shard_map ?prepare_timeout ~app ()
  in
  { engine; net; dep }

let payload ~size i =
  if size <= 0 then ""
  else begin
    let stamp = Printf.sprintf "batch-%d;" i in
    let b = Bytes.make size 'x' in
    Bytes.blit_string stamp 0 b 0 (Stdlib.min (String.length stamp) size);
    Bytes.unsafe_to_string b
  end

let sequential engine ~n ~warmup ~run_one =
  let stats = Bp_util.Stats.create () in
  let total = warmup + n in
  let finished = ref false in
  let rec go i =
    if i >= total then finished := true
    else
      run_one i ~on_done:(fun latency_ms ->
          if i >= warmup then Bp_util.Stats.add stats latency_ms;
          go (i + 1))
  in
  go 0;
  (* Step until the workload completes — the deployment's periodic timers
     (reserve probes, daemon retries) never drain the queue on their own. *)
  let guard = ref 0 in
  while (not !finished) && Engine.step engine do
    incr guard;
    if !guard > 200_000_000 then
      failwith "Runner.sequential: runaway simulation"
  done;
  if not !finished then
    failwith "Runner.sequential: workload did not finish (deadlock in protocol?)";
  stats

let closed_loop engine ~total ~outstanding ~run_one =
  let stats = Bp_util.Stats.create () in
  let next = ref 0 in
  let completed = ref 0 in
  let finished = ref false in
  let t0 = Engine.now engine in
  let rec launch () =
    if !next < total then begin
      let i = !next in
      incr next;
      run_one i ~on_done:(fun latency_ms ->
          Bp_util.Stats.add stats latency_ms;
          incr completed;
          if !completed >= total then finished := true else launch ())
    end
  in
  (* Prime the window; each completion immediately launches a successor,
     keeping [outstanding] operations in flight until the tail. *)
  for _ = 1 to Stdlib.min outstanding total do
    launch ()
  done;
  let guard = ref 0 in
  while (not !finished) && Engine.step engine do
    incr guard;
    if !guard > 200_000_000 then failwith "Runner.closed_loop: runaway simulation"
  done;
  if not !finished then
    failwith "Runner.closed_loop: workload did not finish (deadlock in protocol?)";
  (stats, Time.diff (Engine.now engine) t0)

let scaled s n = Stdlib.max 1 (int_of_float (Float.round (s *. float_of_int n)))

(* An experiment decomposed for the domain pool: independent closed
   tasks (each builds its own engine/network/deployment from its own
   seed — nothing is shared) plus a merge over the results in task-index
   order. The existential keeps per-experiment result types out of the
   registry. *)
type plan =
  | Plan : {
      tasks : (unit -> 'a) list;
      merge : 'a list -> Report.t list;
    }
      -> plan

let run_plan ?pool (Plan { tasks; merge }) =
  let results =
    match pool with
    | None -> List.map (fun task -> task ()) tasks
    | Some pool -> Bp_parallel.Pool.run pool tasks
  in
  merge results
