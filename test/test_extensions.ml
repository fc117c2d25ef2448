(* Extensions beyond the paper's headline algorithm: the paper-literal
   NLP formulation, the probability-weighted (stochastic) objective,
   and discrete voltage levels. *)

open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy
module Levels = Lepts_power.Levels

let power = Model.ideal ~v_min:1. ~v_max:4. ()

let motivation_ts () =
  Task_set.create
    [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
      Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
      Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ]

let motivation_plan () = Plan.expand (motivation_ts ())

let preemptive_plan () =
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  ( Plan.expand
      (Task_set.scale_wcec_to_utilization
         (Task_set.create
            [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
              Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
              Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
         ~power ~target:0.7),
    power )

let test_literal_nlp_matches_slack_formulation () =
  (* Both formulations encode the same mathematical program; on the
     motivational example both must find the (10, 15, 20) optimum. *)
  let plan = motivation_plan () in
  match Literal_nlp.solve ~mode:Objective.Average ~plan ~power () with
  | Error e -> Alcotest.failf "literal solve failed: %a" Solver.pp_error e
  | Ok (schedule, stats) ->
    Alcotest.(check bool) "feasible" true (Validate.is_feasible schedule);
    Alcotest.(check (float 0.2)) "e1" 10. schedule.Static_schedule.end_times.(0);
    Alcotest.(check (float 0.2)) "e2" 15. schedule.Static_schedule.end_times.(1);
    Alcotest.(check (float 0.2)) "e3" 20. schedule.Static_schedule.end_times.(2);
    Alcotest.(check (float 1.)) "same optimum as slack form" 120. stats.Solver.objective

let test_literal_nlp_wcs () =
  let plan = motivation_plan () in
  match Literal_nlp.solve ~mode:Objective.Worst ~plan ~power () with
  | Error e -> Alcotest.failf "literal WCS failed: %a" Solver.pp_error e
  | Ok (schedule, stats) ->
    Alcotest.(check bool) "feasible" true (Validate.is_feasible schedule);
    Alcotest.(check (float 1.)) "worst optimum 540" 540. stats.Solver.objective;
    ignore schedule

let test_literal_nlp_preemptive_agreement () =
  (* On a small preemptive instance, both formulations should land
     within a few percent of each other. *)
  let plan, power = preemptive_plan () in
  let slack, slack_stats = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  match Literal_nlp.solve ~mode:Objective.Average ~plan ~power () with
  | Error e -> Alcotest.failf "literal solve failed: %a" Solver.pp_error e
  | Ok (literal, literal_stats) ->
    Alcotest.(check bool) "both feasible" true
      (Validate.is_feasible slack && Validate.is_feasible literal);
    let gap =
      Float.abs (slack_stats.Solver.objective -. literal_stats.Solver.objective)
      /. slack_stats.Solver.objective
    in
    if gap > 0.10 then
      Alcotest.failf "formulations disagree: slack %g vs literal %g"
        slack_stats.Solver.objective literal_stats.Solver.objective

let test_stochastic_solver_feasible () =
  let plan, power = preemptive_plan () in
  match Solver.solve_stochastic ~scenarios:8 ~seed:3 ~plan ~power () with
  | Error e -> Alcotest.failf "stochastic solve failed: %a" Solver.pp_error e
  | Ok (schedule, stats) ->
    Alcotest.(check bool) "feasible" true (Validate.is_feasible schedule);
    Alcotest.(check bool) "violation resolved" true (stats.Solver.max_violation < 1e-3)

let test_stochastic_close_to_acs_on_simulation () =
  (* The stochastic objective optimises exactly what the simulation
     measures, so it must perform at least comparably to ACS. *)
  let plan, power = preemptive_plan () in
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let warm = [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ] in
  let acs, _ = Result.get_ok (Solver.solve_acs ~warm_starts:warm ~plan ~power ()) in
  let sto, _ =
    Result.get_ok (Solver.solve_stochastic ~warm_starts:warm ~scenarios:12 ~seed:5 ~plan ~power ())
  in
  let mean schedule =
    (Lepts_sim.Runner.simulate ~rounds:300 ~schedule ~policy:Policy.Greedy
       ~rng:(Lepts_prng.Xoshiro256.create ~seed:11) ())
      .Lepts_sim.Runner.mean_energy
  in
  let e_acs = mean acs and e_sto = mean sto in
  (* Allow 10% slack: both optimise closely related objectives. *)
  Alcotest.(check bool) "stochastic competitive with ACS" true
    (e_sto <= 1.10 *. e_acs)

let test_stochastic_deterministic () =
  let plan, power = preemptive_plan () in
  let run () =
    let s, _ = Result.get_ok (Solver.solve_stochastic ~scenarios:4 ~seed:9 ~plan ~power ()) in
    s.Static_schedule.end_times
  in
  Alcotest.(check (array (float 1e-12))) "same seed, same schedule" (run ()) (run ())

let test_stochastic_invalid () =
  let plan, power = preemptive_plan () in
  Alcotest.check_raises "scenarios positive"
    (Invalid_argument "Solver.solve_stochastic: scenarios") (fun () ->
      ignore (Solver.solve_stochastic ~scenarios:0 ~plan ~power ()))

let test_quantized_policy_energy_and_deadlines () =
  let plan, power = preemptive_plan () in
  let acs, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  let levels = Levels.of_range ~v_min:0.5 ~v_max:4. ~steps:8 in
  let rng () = Lepts_prng.Xoshiro256.create ~seed:21 in
  let continuous =
    Lepts_sim.Runner.simulate ~rounds:200 ~schedule:acs ~policy:Policy.Greedy
      ~rng:(rng ()) ()
  in
  let quantized =
    Lepts_sim.Runner.simulate ~rounds:200 ~schedule:acs
      ~policy:(Policy.Greedy_quantized levels) ~rng:(rng ()) ()
  in
  Alcotest.(check int) "quantized meets deadlines" 0
    quantized.Lepts_sim.Runner.deadline_misses;
  Alcotest.(check bool) "quantized costs at least continuous" true
    (quantized.mean_energy >= continuous.mean_energy -. 1e-9);
  (* With 8 levels the overhead should stay moderate. *)
  Alcotest.(check bool) "overhead bounded" true
    (quantized.mean_energy <= 1.6 *. continuous.mean_energy)

let test_quantized_worst_case () =
  let plan, power = preemptive_plan () in
  let acs, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  let levels = Levels.of_range ~v_min:0.5 ~v_max:4. ~steps:5 in
  let totals = Lepts_sim.Sampler.fixed plan ~value:`Wcec in
  let o =
    Lepts_sim.Event_sim.run ~schedule:acs ~policy:(Policy.Greedy_quantized levels)
      ~totals ()
  in
  Alcotest.(check int) "worst case meets deadlines" 0 o.Lepts_sim.Outcome.deadline_misses

let test_quantized_pp () =
  let levels = Levels.of_range ~v_min:1. ~v_max:4. ~steps:4 in
  Alcotest.(check string) "printer" "greedy-quantized(4 levels)"
    (Format.asprintf "%a" Policy.pp (Policy.Greedy_quantized levels))

let suite =
  [ ("literal NLP: ACS motivation", `Quick, test_literal_nlp_matches_slack_formulation);
    ("literal NLP: WCS motivation", `Quick, test_literal_nlp_wcs);
    ("literal NLP: preemptive agreement", `Slow, test_literal_nlp_preemptive_agreement);
    ("stochastic solver feasible", `Slow, test_stochastic_solver_feasible);
    ("stochastic competitive with ACS", `Slow, test_stochastic_close_to_acs_on_simulation);
    ("stochastic deterministic", `Slow, test_stochastic_deterministic);
    ("quantized policy energy & deadlines", `Quick, test_quantized_policy_energy_and_deadlines);
    ("quantized worst case", `Quick, test_quantized_worst_case);
    ("quantized printer", `Quick, test_quantized_pp) ]
