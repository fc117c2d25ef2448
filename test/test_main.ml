(* Aggregated test runner: `dune runtest` executes every suite. *)

let () =
  Alcotest.run "lepts"
    [ ("util", Test_util.suite);
      ("prng", Test_prng.suite);
      ("par", Test_par.suite);
      ("optim", Test_optim.suite);
      ("power", Test_power.suite);
      ("task", Test_task.suite);
      ("preempt", Test_preempt.suite);
      ("waterfall", Test_waterfall.suite);
      ("objective", Test_objective.suite);
      ("solver", Test_solver.suite);
      ("structure", Test_structure.suite);
      ("warm", Test_warm.suite);
      ("validate", Test_validate.suite);
      ("dvs", Test_dvs.suite);
      ("sim", Test_sim.suite);
      ("robust", Test_robust.suite);
      ("adaptive", Test_adaptive.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("serve", Test_serve.suite);
      ("transport", Test_transport.suite);
      ("daemon", Test_daemon.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("yds", Test_yds.suite);
      ("trace", Test_trace.suite);
      ("nonpreemptive", Test_nonpreemptive.suite);
      ("export", Test_export.suite);
      ("properties", Test_properties.suite);
      ("ablations", Test_ablations.suite);
      ("obs", Test_obs.suite);
      ("golden", Test_golden.suite) ]
