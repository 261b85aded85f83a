open Bp_sim
open Blockplane

let table1 () =
  let topo = Topology.aws_paper in
  let n = Topology.num_dcs topo in
  let initial name = String.make 1 name.[0] in
  let header =
    "" :: List.init n (fun j -> initial (Topology.name topo j))
  in
  let rows =
    List.init n (fun i ->
        initial (Topology.name topo i)
        :: List.init n (fun j ->
               Printf.sprintf "%.0f" (if i = j then 0.0 else Time.to_ms (Topology.rtt topo i j))))
  in
  [
    {
      Report.id = "table1";
      title = "Round-trip times between the four datacenters (ms)";
      paper_ref = "Table I (these are the simulator's inputs)";
      header;
      rows;
      metrics = [];
      notes = [ "C=California O=Oregon V=Virginia I=Ireland" ];
    };
  ]

(* Paper readings for Fig. 6 (from the SVIII-C text). *)
let pairs =
  [
    (Topology.dc_california, Topology.dc_oregon, "23.4", "23%");
    (Topology.dc_california, Topology.dc_virginia, "64-80", "1-7%");
    (Topology.dc_california, Topology.dc_ireland, ">135", "1-7%");
    (Topology.dc_oregon, Topology.dc_virginia, "64-80", "1-7%");
    (Topology.dc_oregon, Topology.dc_ireland, ">135", "1-7%");
    (Topology.dc_virginia, Topology.dc_ireland, "64-80", "1-7%");
  ]

let measure_pair ~knobs ~scale ~src ~dst ~seed =
  let world = Runner.fresh_world ~knobs ~seed () in
  let api = Deployment.api world.Runner.dep src in
  let daemon = Deployment.daemon world.Runner.dep ~src ~dest:dst in
  let n = Runner.scaled scale 10 in
  let waiting : (int, float -> unit) Hashtbl.t = Hashtbl.create 8 in
  let started : (int, Time.t) Hashtbl.t = Hashtbl.create 8 in
  Comm_daemon.on_acked daemon (fun frontier ->
      (* Cumulative: resolve everything at or below the frontier. *)
      let ready =
        Hashtbl.fold (fun seq k acc -> if seq <= frontier then (seq, k) :: acc else acc)
          waiting []
      in
      List.iter
        (fun (seq, k) ->
          Hashtbl.remove waiting seq;
          let t0 = Hashtbl.find started seq in
          k (Time.to_ms (Time.diff (Engine.now world.Runner.engine) t0)))
        (* Sort by sequence only: the snd components are closures, which
           polymorphic compare would inspect (and crash on) if two seqs
           ever tied. *)
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) ready));
  Runner.sequential world.Runner.engine ~n ~warmup:2 ~run_one:(fun _i ~on_done ->
      let seq = Api.next_comm_seq api ~dest:dst in
      Hashtbl.replace started seq (Engine.now world.Runner.engine);
      Hashtbl.replace waiting seq on_done;
      Api.send api ~dest:dst (Runner.payload ~size:1000 seq) ~on_done:ignore)

(* One task per datacenter pair; [i] fixes the seed. *)
let fig6_task ~knobs ~scale i (src, dst, paper_lat, paper_ovh) () =
  let topo = Topology.aws_paper in
  let stats = measure_pair ~knobs ~scale ~src ~dst ~seed:(Int64.of_int (3000 + i)) in
  let mean = Bp_util.Stats.mean stats in
  let rtt = Time.to_ms (Topology.rtt topo src dst) in
  let overhead = (mean -. rtt) /. rtt *. 100.0 in
  [
    Printf.sprintf "%c%c"
      (Topology.name topo src).[0]
      (Topology.name topo dst).[0];
    Report.ms mean;
    paper_lat;
    Printf.sprintf "%.0f%%" overhead;
    paper_ovh;
  ]

let fig6_merge rows =
  [
    {
      Report.id = "fig6";
      title = "Communication latency between participants (send -> receive -> ack)";
      paper_ref = "Fig. 6, SVIII-C: fi=1, fg=0";
      header =
        [
          "pair";
          "ms (measured)";
          "ms (paper)";
          "overhead vs RTT";
          "overhead (paper)";
        ];
      rows;
      metrics = [];
      notes =
        [
          "overhead = the two local commitments + signature round on top of the raw RTT";
          "expected shape: overhead largest for the closest pair (C-O), negligible for far pairs";
        ];
    };
  ]

let fig6_plan ~knobs ~scale =
  Runner.Plan
    {
      tasks = List.mapi (fun i p -> fig6_task ~knobs ~scale i p) pairs;
      merge = fig6_merge;
    }

let fig6 ?(scale = 1.0) () =
  Runner.run_plan (fig6_plan ~knobs:Knobs.default ~scale)

(* Table I is a pure topology readout — a single trivial task. *)
let table1_plan () =
  Runner.Plan { tasks = [ (fun () -> table1 ()) ]; merge = List.concat }
