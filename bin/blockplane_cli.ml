(* Command-line entry point: run any of the paper's experiments. *)

open Cmdliner
module Knobs = Bp_harness.Knobs

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let scale_arg =
  let doc =
    "Workload scale factor: 1.0 reproduces the full configured workload, \
     smaller values shrink batch counts proportionally for quick runs."
  in
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-8s %s\n" e.Bp_harness.Experiments.id
          e.Bp_harness.Experiments.title)
      Bp_harness.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments")
    Term.(const run $ const ())

(* Run [experiments] under one knob set, printing every report. *)
let run_experiments experiments scale jobs verbose knobs =
  setup_logs verbose;
  Knobs.with_runtime ~jobs knobs (fun pool ->
      List.iter
        (fun e ->
          List.iter
            (fun r -> print_string (Bp_harness.Report.render r))
            (Bp_harness.Experiments.run ?pool ~knobs e ~scale))
        experiments)

let run_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see `list`).")
  in
  (* Fully applied, so every flag is converted and validated first. *)
  let run id scale jobs verbose knobs =
    match Bp_harness.Experiments.find id with
    | None ->
        Printf.eprintf "unknown experiment %S; try `blockplane-cli list`\n" id;
        exit 1
    | Some e -> run_experiments [ e ] scale jobs verbose knobs
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment and print its paper-vs-measured table")
    Term.(const run $ id_arg $ scale_arg $ Knobs.jobs $ verbose_arg $ Knobs.term)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every table and figure of the evaluation")
    Term.(
      const (run_experiments Bp_harness.Experiments.all)
      $ scale_arg $ Knobs.jobs $ verbose_arg $ Knobs.term)

let () =
  let info =
    Cmd.info "blockplane-cli" ~version:"0.1.0"
      ~doc:"Blockplane (ICDE 2019) reproduction — experiment driver"
  in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd ]))
