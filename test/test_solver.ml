open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model

let power = Model.ideal ~v_min:1. ~v_max:4. ()

let motivation_ts () =
  Task_set.create
    [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
      Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
      Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ]

let preemptive_ts () =
  Task_set.scale_wcec_to_utilization
    (Task_set.create
       [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
         Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
         Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
    ~power:(Model.ideal ~v_min:0.5 ~v_max:4. ())
    ~target:0.7

let solve_pair plan power =
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let acs, _ =
    Result.get_ok
      (Solver.solve_acs
         ~warm_starts:[ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
         ~plan ~power ())
  in
  (wcs, acs)

let test_initial_point_feasible () =
  let plan = Plan.expand (preemptive_ts ()) in
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  match Solver.initial_point ~plan ~power with
  | Error _ -> Alcotest.fail "schedulable set rejected"
  | Ok (e, q) ->
    let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
    Alcotest.(check bool) "greedy fill is feasible" true (Validate.is_feasible schedule)

let test_initial_point_unschedulable () =
  let ts =
    Task_set.create
      [ Task.create ~name:"a" ~period:4 ~wcec:10. ~acec:5. ~bcec:0.;
        Task.create ~name:"b" ~period:4 ~wcec:10. ~acec:5. ~bcec:0. ]
  in
  let plan = Plan.expand ts in
  (match Solver.initial_point ~plan ~power with
  | Error Solver.Unschedulable -> ()
  | Error (Solver.Solver_stalled _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "overloaded set accepted");
  (match Solver.solve_acs ~plan ~power () with
  | Error Solver.Unschedulable -> ()
  | Error (Solver.Solver_stalled _) | Ok _ -> Alcotest.fail "solve must reject too")

let test_wcs_motivation_optimum () =
  (* The known closed-form optimum: uniform 3 V, ends at 6.67/13.33/20,
     energy 540. *)
  let plan = Plan.expand (motivation_ts ()) in
  let wcs, stats = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  Alcotest.(check (float 0.05)) "e1" (20. /. 3.) wcs.Static_schedule.end_times.(0);
  Alcotest.(check (float 0.05)) "e2" (40. /. 3.) wcs.Static_schedule.end_times.(1);
  Alcotest.(check (float 0.05)) "e3" 20. wcs.Static_schedule.end_times.(2);
  Alcotest.(check (float 0.5)) "worst energy" 540. stats.Solver.objective

let test_acs_motivation_optimum () =
  (* The paper's "another schedule": ends 10/15/20, average energy 120,
     worst-case 720. *)
  let plan = Plan.expand (motivation_ts ()) in
  let _, acs = solve_pair plan power in
  Alcotest.(check (float 0.05)) "e1" 10. acs.Static_schedule.end_times.(0);
  Alcotest.(check (float 0.05)) "e2" 15. acs.Static_schedule.end_times.(1);
  Alcotest.(check (float 0.05)) "e3" 20. acs.Static_schedule.end_times.(2);
  Alcotest.(check (float 0.5)) "average energy" 120.
    (Static_schedule.predicted_energy acs ~mode:Objective.Average);
  Alcotest.(check (float 1.)) "worst energy" 720.
    (Static_schedule.predicted_energy acs ~mode:Objective.Worst)

let test_both_feasible_preemptive () =
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let plan = Plan.expand (preemptive_ts ()) in
  let wcs, acs = solve_pair plan power in
  Alcotest.(check bool) "WCS feasible" true (Validate.is_feasible wcs);
  Alcotest.(check bool) "ACS feasible" true (Validate.is_feasible acs)

let test_acs_beats_wcs_on_average () =
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let plan = Plan.expand (preemptive_ts ()) in
  let wcs, acs = solve_pair plan power in
  let avg s = Static_schedule.predicted_energy s ~mode:Objective.Average in
  Alcotest.(check bool) "ACS <= WCS on average objective" true
    (avg acs <= avg wcs +. 1e-6)

let test_wcs_beats_acs_on_worst () =
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let plan = Plan.expand (preemptive_ts ()) in
  let wcs, acs = solve_pair plan power in
  let worst s = Static_schedule.predicted_energy s ~mode:Objective.Worst in
  Alcotest.(check bool) "WCS <= ACS on worst objective" true
    (worst wcs <= worst acs +. 1e-6)

let test_quota_sums () =
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let ts = preemptive_ts () in
  let plan = Plan.expand ts in
  let _, acs = solve_pair plan power in
  Array.iteri
    (fun i per_instance ->
      let wcec = (Task_set.task ts i).Task.wcec in
      Array.iter
        (fun idxs ->
          Alcotest.(check (float 1e-6)) "quota sum = WCEC" wcec
            (Array.fold_left
               (fun acc k -> acc +. acs.Static_schedule.quotas.(k))
               0. idxs))
        per_instance)
    plan.Plan.instance_subs

let test_end_times_within_segments () =
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let plan = Plan.expand (preemptive_ts ()) in
  let wcs, acs = solve_pair plan power in
  List.iter
    (fun s ->
      Array.iteri
        (fun k (sub : Lepts_preempt.Sub_instance.t) ->
          let e = s.Static_schedule.end_times.(k) in
          Alcotest.(check bool) "within segment" true
            (e >= sub.Lepts_preempt.Sub_instance.release -. 1e-9
             && e <= sub.Lepts_preempt.Sub_instance.boundary +. 1e-9))
        plan.Plan.order)
    [ wcs; acs ]

let test_random_sets_solve_and_validate () =
  (* Property over generated task sets: both solves succeed, validate,
     and ACS never loses on the average objective. *)
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:123 in
  for i = 0 to 4 do
    let n = 2 + (i mod 3) in
    let config = Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio:0.3 in
    (* Cap the size to keep the test quick. *)
    let config = { config with Lepts_workloads.Random_gen.max_sub_instances = 120 } in
    match Lepts_workloads.Random_gen.generate config ~power ~rng with
    | Error msg -> Alcotest.failf "generation failed: %s" msg
    | Ok ts ->
      let plan = Plan.expand ts in
      let wcs, acs = solve_pair plan power in
      Alcotest.(check bool) "wcs feasible" true (Validate.is_feasible wcs);
      Alcotest.(check bool) "acs feasible" true (Validate.is_feasible acs);
      let avg s = Static_schedule.predicted_energy s ~mode:Objective.Average in
      Alcotest.(check bool) "acs no worse" true (avg acs <= avg wcs +. 1e-6)
  done

let test_tight_boundaries_feasible () =
  (* Segments barely longer than their worst-case work at v_max: the
     solved ACS schedule must still validate. *)
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let ts =
    Task_set.create
      [ Task.with_ratio ~name:"x" ~period:6 ~wcec:5. ~ratio:0.5;
        Task.with_ratio ~name:"y" ~period:8 ~wcec:5. ~ratio:0.5;
        Task.with_ratio ~name:"z" ~period:24 ~wcec:10. ~ratio:0.5 ]
  in
  let plan = Plan.expand ts in
  let _, acs = solve_pair plan power in
  Alcotest.(check bool) "feasible" true (Validate.is_feasible acs)

let check_bits_arr msg expect got =
  Alcotest.(check int) (msg ^ ": length") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float got.(i)))
      then Alcotest.failf "%s.(%d): %h <> %h" msg i x got.(i))
    expect

let test_parallel_multistart_bit_identical () =
  (* Without a wall budget the multi-start is deterministic: every
     [jobs] value must return exactly the same schedule and stats on
     both the simple and the preemptive set. Each solve runs two
     starts, so [jobs > 1] really uses the pool: WCS gets the ALAP
     push-right of the greedy point as a warm start, ACS the WCS
     solution. *)
  let run_set ts power =
    let plan = Plan.expand ts in
    let e0, q0 = Result.get_ok (Solver.initial_point ~plan ~power) in
    let t_max = Model.cycle_time power ~v:power.Model.v_max in
    let alap = (Reference.alap_end_times plan ~t_max ~e:e0 ~q:q0, q0) in
    let two_starts solve =
      let sink = Lepts_obs.Telemetry.solve_sink ~label:"starts" () in
      let result = Result.get_ok (solve ~telemetry:sink) in
      Alcotest.(check int) "two starts" 2 (Array.length sink.Lepts_obs.Telemetry.starts);
      result
    in
    let solve jobs =
      let wcs, _ =
        two_starts (fun ~telemetry ->
            Solver.solve_wcs ~telemetry ~jobs ~warm_starts:[ alap ] ~plan ~power ())
      in
      let acs, stats =
        two_starts (fun ~telemetry ->
            Solver.solve_acs ~telemetry ~jobs
              ~warm_starts:
                [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
              ~plan ~power ())
      in
      (wcs, acs, stats)
    in
    let wcs1, acs1, stats1 = solve 1 in
    List.iter
      (fun jobs ->
        let wcsj, acsj, statsj = solve jobs in
        check_bits_arr "wcs end-times" wcs1.Static_schedule.end_times
          wcsj.Static_schedule.end_times;
        check_bits_arr "wcs quotas" wcs1.Static_schedule.quotas
          wcsj.Static_schedule.quotas;
        check_bits_arr "acs end-times" acs1.Static_schedule.end_times
          acsj.Static_schedule.end_times;
        check_bits_arr "acs quotas" acs1.Static_schedule.quotas
          acsj.Static_schedule.quotas;
        check_bits_arr "objective" [| stats1.Solver.objective |]
          [| statsj.Solver.objective |];
        Alcotest.(check int) "outer iterations" stats1.Solver.outer_iterations
          statsj.Solver.outer_iterations)
      [ 2; 4 ]
  in
  run_set (motivation_ts ()) power;
  run_set (preemptive_ts ()) (Model.ideal ~v_min:0.5 ~v_max:4. ())

let test_wall_budget_returns () =
  (* A tiny wall budget must still return a usable schedule (at least
     one start always runs), and a generous one matches the unbudgeted
     result. *)
  let plan = Plan.expand (motivation_ts ()) in
  let wall_budget b = { Solver.default_budget with wall_budget = Some b } in
  (match Solver.solve_acs ~budget:(wall_budget 1e-9) ~plan ~power () with
  | Error e -> Alcotest.failf "budgeted solve failed: %a" Solver.pp_error e
  | Ok (schedule, _) ->
    Alcotest.(check bool) "feasible under tiny budget" true
      (Validate.is_feasible schedule));
  let unbudgeted, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  let generous, _ =
    Result.get_ok (Solver.solve_acs ~budget:(wall_budget 3600.) ~plan ~power ())
  in
  check_bits_arr "generous budget = no budget"
    unbudgeted.Static_schedule.end_times generous.Static_schedule.end_times

let test_stats_reported () =
  (* A cold solve runs one descent from the greedy start, plus one per
     warm start; [stats] describes the start it returns. *)
  let plan = Plan.expand (motivation_ts ()) in
  let starts solve =
    let sink = Lepts_obs.Telemetry.solve_sink ~label:"starts" () in
    let result = Result.get_ok (solve ~telemetry:sink) in
    (result, Array.length sink.Lepts_obs.Telemetry.starts)
  in
  let (wcs, _), wcs_starts =
    starts (fun ~telemetry -> Solver.solve_wcs ~telemetry ~plan ~power ())
  in
  Alcotest.(check int) "cold WCS starts" 1 wcs_starts;
  let (_, stats), acs_starts =
    starts (fun ~telemetry ->
        Solver.solve_acs ~telemetry
          ~warm_starts:[ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
          ~plan ~power ())
  in
  Alcotest.(check int) "ACS starts: greedy and WCS seed" 2 acs_starts;
  Alcotest.(check bool) "outer > 0" true (stats.Solver.outer_iterations > 0);
  Alcotest.(check bool) "violation small" true (stats.Solver.max_violation < 1e-3)

let suite =
  [ ("initial point feasible", `Quick, test_initial_point_feasible);
    ("unschedulable rejected", `Quick, test_initial_point_unschedulable);
    ("WCS motivation optimum", `Quick, test_wcs_motivation_optimum);
    ("ACS motivation optimum", `Quick, test_acs_motivation_optimum);
    ("both feasible (preemptive)", `Quick, test_both_feasible_preemptive);
    ("ACS <= WCS on average", `Quick, test_acs_beats_wcs_on_average);
    ("WCS <= ACS on worst", `Quick, test_wcs_beats_acs_on_worst);
    ("quota sums equal WCEC", `Quick, test_quota_sums);
    ("end-times within segments", `Quick, test_end_times_within_segments);
    ("random sets solve + validate", `Slow, test_random_sets_solve_and_validate);
    ("tight boundaries stay feasible", `Quick, test_tight_boundaries_feasible);
    ("stats reported", `Quick, test_stats_reported);
    ("parallel multi-start bit-identical", `Slow, test_parallel_multistart_bit_identical);
    ("wall budget returns a schedule", `Quick, test_wall_budget_returns) ]
