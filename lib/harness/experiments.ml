type t = {
  id : string;
  title : string;
  plan : knobs:Knobs.t -> scale:float -> Runner.plan;
}

(* Experiments that build their own deployments consult no knob. *)
let fixed plan ~knobs:_ ~scale = plan ~scale

let all =
  [
    {
      id = "table1";
      title = "RTT matrix between the four datacenters (simulator input)";
      plan = (fun ~knobs:_ ~scale:_ -> Exp_comm.table1_plan ());
    };
    {
      id = "fig4";
      title = "Local commitment latency/throughput vs batch size";
      plan = Exp_local.fig4_plan;
    };
    {
      id = "table2";
      title = "Local commitment vs number of nodes";
      plan = Exp_local.table2_plan;
    };
    {
      id = "fig5";
      title = "Geo-correlated fault tolerance latency";
      plan = Exp_geo.fig5_plan;
    };
    {
      id = "fig6";
      title = "Communication latency between participants";
      plan = Exp_comm.fig6_plan;
    };
    {
      id = "fig7";
      title = "Byzantized paxos vs baselines";
      plan = Exp_consensus.fig7_plan;
    };
    {
      id = "fig8";
      title = "Reacting to failures";
      plan = Exp_geo.fig8_plan;
    };
    (* Ablations beyond the paper's figures. *)
    {
      id = "ablation-reads";
      title = "Read strategies (SVI-A) latency";
      plan = Exp_ablation.reads_plan;
    };
    {
      id = "ablation-batch";
      title = "Group commit (SVI-C) on/off";
      plan = fixed Exp_ablation.batching_plan;
    };
    {
      id = "ablation-sig";
      title = "HMAC vs hash-based signatures";
      plan = fixed Exp_ablation.signatures_plan;
    };
    {
      id = "ablation-loss";
      title = "Commit latency under packet loss";
      plan = fixed Exp_ablation.loss_plan;
    };
    {
      id = "ablation-load";
      title = "Offered load vs latency (open loop)";
      plan = fixed Exp_ablation.load_plan;
    };
    {
      id = "ablation-saturation";
      title = "Saturation sweep: open-loop rate x pipeline depth";
      plan = Exp_saturation.plan;
    };
    {
      id = "ablation-pipeline";
      title = "Consensus pipeline depth (windowed multi-slot PBFT)";
      plan = Exp_local.pipeline_plan;
    };
    {
      id = "ablation-verify";
      title = "Verification parallelism vs pipeline depth";
      plan = Exp_local.verify_plan;
    };
    {
      id = "ablation-shard";
      title = "Keyspace sharding: 1..16 units, cross-shard BFT commit";
      plan = Exp_shard.plan;
    };
    {
      id = "ablation-clustersend";
      title = "Cluster-sending vs fi+1-signature bundles";
      plan = fixed Exp_clustersend.plan;
    };
    {
      id = "locality";
      title = "Intra-DC vs wide-area traffic share (SIII-A)";
      plan = Exp_locality.locality_plan;
    };
    {
      id = "costs";
      title = "Resource costs of byzantizing (SVI-D)";
      plan = fixed Exp_costs.costs_plan;
    };
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

let run ?pool ?(knobs = Knobs.default) e ~scale =
  Runner.run_plan ?pool (e.plan ~knobs ~scale)
