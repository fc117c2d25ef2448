(* Warm re-solve (Solver.solve_warm): bit-identity on converged
   instances, never-worse under exhausted budgets, and the two cold
   branches for plans that cannot be continued. *)

open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Continuation = Lepts_experiments.Continuation

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let preemptive_ts () =
  Task_set.scale_wcec_to_utilization
    (Task_set.create
       [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
         Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
         Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
    ~power ~target:0.7

(* Same structure (periods, WCECs) as [preemptive_ts], different ACECs:
   the serve-cache / adaptive-estimator case solve_warm's continuation
   is for. *)
let acec_shifted_ts () =
  Task_set.scale_wcec_to_utilization
    (Task_set.create
       [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.6;
         Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.6;
         Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.6 ])
    ~power ~target:0.7

let check_bits name expected got =
  Alcotest.(check int)
    (name ^ " length") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i x ->
      Alcotest.(check int64)
        (Printf.sprintf "%s[%d]" name i)
        (Int64.bits_of_float x)
        (Int64.bits_of_float got.(i)))
    expected

let check_schedule_bits name (a : Static_schedule.t) (b : Static_schedule.t) =
  check_bits (name ^ " end_times") a.Static_schedule.end_times
    b.Static_schedule.end_times;
  check_bits (name ^ " quotas") a.Static_schedule.quotas
    b.Static_schedule.quotas

let solve_cold ?jobs ~mode plan =
  Result.get_ok (Solver.solve ?jobs ~mode ~plan ~power ())

let test_warm_converged_bit_identical () =
  (* Drive an instance to the warm fixpoint (each accepted continuation
     must improve by more than 1e-6 relative, so this terminates), then
     check that re-solving the converged instance returns the previous
     schedule bit for bit, with outer = inner = 0 marking "seed kept". *)
  let plan = Plan.expand (preemptive_ts ()) in
  List.iter
    (fun mode ->
      let prev = ref (fst (solve_cold ~mode plan)) in
      let converged = ref false in
      for _ = 1 to 10 do
        if not !converged then begin
          let next, stats =
            Result.get_ok (Solver.solve_warm ~mode ~prev:!prev ~plan ~power ())
          in
          if stats.Solver.outer_iterations = 0 then converged := true;
          prev := next
        end
      done;
      Alcotest.(check bool) "reached the warm fixpoint" true !converged;
      let warm, stats =
        Result.get_ok (Solver.solve_warm ~mode ~prev:!prev ~plan ~power ())
      in
      check_schedule_bits "warm = prev" !prev warm;
      Alcotest.(check int) "outer = 0 (seed kept)" 0 stats.Solver.outer_iterations;
      Alcotest.(check int) "inner = 0 (seed kept)" 0 stats.Solver.inner_iterations)
    [ Objective.Average; Objective.Worst ]

let test_warm_never_worse_than_seed () =
  (* Continuing an Average solve from the WCS optimum: whatever the
     descent does, the result may not be worse than the seed evaluated
     under the current (Average) objective. *)
  let plan = Plan.expand (preemptive_ts ()) in
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let seed_energy =
    Static_schedule.predicted_energy wcs ~mode:Objective.Average
  in
  let warm, stats =
    Result.get_ok
      (Solver.solve_warm ~mode:Objective.Average ~prev:wcs ~plan ~power ())
  in
  Alcotest.(check bool) "feasible" true (Validate.is_feasible warm);
  Alcotest.(check bool) "never worse than seed" true
    (stats.Solver.objective <= seed_energy +. 1e-9)

let test_warm_exhausted_budget_returns_seed () =
  (* With no budget left the continuation cannot run; the seed must
     come back unchanged rather than an error or a worse point. *)
  let plan = Plan.expand (preemptive_ts ()) in
  let prev, _ = solve_cold ~mode:Objective.Average plan in
  let warm, stats =
    Result.get_ok
      (Solver.solve_warm
         ~budget:{ Solver.default_budget with wall_budget = Some 0. }
         ~mode:Objective.Average ~prev ~plan ~power ())
  in
  check_schedule_bits "seed returned" prev warm;
  Alcotest.(check bool) "never worse" true
    (stats.Solver.objective
    <= Static_schedule.predicted_energy prev ~mode:Objective.Average +. 1e-9)

let test_warm_jobs_independent () =
  (* The continuation is a single descent: [jobs] must not change its
     bits (it only parallelises the cold branches). *)
  let plan = Plan.expand (preemptive_ts ()) in
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let w1, s1 =
    Result.get_ok
      (Solver.solve_warm ~jobs:1 ~mode:Objective.Average ~prev:wcs ~plan
         ~power ())
  in
  let w4, s4 =
    Result.get_ok
      (Solver.solve_warm ~jobs:4 ~mode:Objective.Average ~prev:wcs ~plan
         ~power ())
  in
  check_schedule_bits "jobs 1 = jobs 4" w1 w4;
  Alcotest.(check int64) "objective bits" (Int64.bits_of_float s1.Solver.objective)
    (Int64.bits_of_float s4.Solver.objective)

let test_warm_acec_change () =
  (* Only the ACECs moved: the warm path must apply (a single
     continuation descent), stay feasible, and never be worse than the
     previous solution re-evaluated under the new workloads. *)
  let plan1 = Plan.expand (preemptive_ts ()) in
  let prev, _ = solve_cold ~mode:Objective.Average plan1 in
  let plan2 = Plan.expand (acec_shifted_ts ()) in
  let seed_energy =
    Static_schedule.predicted_energy
      (Static_schedule.create ~plan:plan2 ~power
         ~end_times:prev.Static_schedule.end_times
         ~quotas:prev.Static_schedule.quotas)
      ~mode:Objective.Average
  in
  let next, stats =
    Result.get_ok
      (Solver.solve_warm ~mode:Objective.Average ~prev ~plan:plan2 ~power ())
  in
  Alcotest.(check bool) "feasible under new plan" true
    (Validate.is_feasible next);
  Alcotest.(check bool) "never worse than carried-over seed" true
    (stats.Solver.objective <= seed_energy +. 1e-9)

let test_warm_structural_fallback () =
  (* Task count changed: nothing to continue from, so the warm re-solve
     must degrade to the plain cold solve, bit for bit. *)
  let plan1 = Plan.expand (preemptive_ts ()) in
  let prev, _ = solve_cold ~mode:Objective.Average plan1 in
  let ts2 =
    Task_set.create
      [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
        Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ]
  in
  let plan2 = Plan.expand ts2 in
  let inc, _ =
    Result.get_ok
      (Solver.solve_warm ~mode:Objective.Average ~prev ~plan:plan2 ~power ())
  in
  let cold, _ = solve_cold ~mode:Objective.Average plan2 in
  check_schedule_bits "fallback = cold" cold inc

let random_plan seed =
  let rng = Lepts_prng.Xoshiro256.create ~seed in
  let config = Lepts_workloads.Random_gen.default_config ~n_tasks:3 ~ratio:0.3 in
  Plan.expand
    (Result.get_ok (Lepts_workloads.Random_gen.generate config ~power ~rng))

let test_warm_shifted_windows () =
  (* Two random sets whose plans have the same order length (18 subs)
     but different windows: the previous schedule cannot be continued,
     yet it joins the cold multi-start as a second start. *)
  let plan1 = random_plan 7 and plan2 = random_plan 15 in
  Alcotest.(check int) "same order length" (Plan.size plan1) (Plan.size plan2);
  let prev, _ = solve_cold ~mode:Objective.Average plan1 in
  let sink = Lepts_obs.Telemetry.solve_sink ~label:"shifted" () in
  let inc, inc_stats =
    Result.get_ok
      (Solver.solve_warm ~telemetry:sink ~mode:Objective.Average ~prev
         ~plan:plan2 ~power ())
  in
  Alcotest.(check int) "greedy and prev starts" 2
    (Array.length sink.Lepts_obs.Telemetry.starts);
  let cold, cold_stats =
    Result.get_ok
      (Solver.solve
         ~warm_starts:
           [ (prev.Static_schedule.end_times, prev.Static_schedule.quotas) ]
         ~mode:Objective.Average ~plan:plan2 ~power ())
  in
  check_schedule_bits "shifted = cold with prev start" cold inc;
  Alcotest.(check int64) "objective bits"
    (Int64.bits_of_float cold_stats.Solver.objective)
    (Int64.bits_of_float inc_stats.Solver.objective)

let test_continuation_sweep () =
  (* Warm and cold ratio sweeps agree bit-for-bit on the (always cold)
     first point; every warm point stays feasible and never worse than
     chaining would allow; the [continued] flags record the order. *)
  let build ~ratio =
    Task_set.scale_wcec_to_utilization
      (Task_set.create
         [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio;
           Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio;
           Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio ])
      ~power ~target:0.6
  in
  let ratios = [ 0.2; 0.5; 0.8 ] in
  let cold =
    Result.get_ok (Continuation.run ~warm:false ~ratios ~build ~power ())
  in
  let warm =
    Result.get_ok (Continuation.run ~warm:true ~ratios ~build ~power ())
  in
  Alcotest.(check int) "points" 3 (List.length warm.Continuation.points);
  Alcotest.(check (list bool)) "continued flags" [ false; true; true ]
    (List.map
       (fun p -> p.Continuation.continued)
       warm.Continuation.points);
  let first l = List.hd l.Continuation.points in
  Alcotest.(check int64) "first point bits equal"
    (Int64.bits_of_float (first cold).Continuation.predicted_energy)
    (Int64.bits_of_float (first warm).Continuation.predicted_energy);
  List.iter2
    (fun (c : Continuation.point) (w : Continuation.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.1f warm close to cold" c.Continuation.ratio)
        true
        (w.Continuation.predicted_energy
        <= c.Continuation.predicted_energy *. 1.05 +. 1e-9))
    cold.Continuation.points warm.Continuation.points

let suite =
  [ ("warm re-solve of converged instance is bit-identical", `Quick,
     test_warm_converged_bit_identical);
    ("warm solve never worse than seed", `Quick, test_warm_never_worse_than_seed);
    ("exhausted budget returns the seed", `Quick,
     test_warm_exhausted_budget_returns_seed);
    ("warm result independent of jobs", `Quick, test_warm_jobs_independent);
    ("incremental re-solve after ACEC change", `Quick,
     test_warm_acec_change);
    ("incremental re-solve structural fallback", `Quick,
     test_warm_structural_fallback);
    ("incremental re-solve with shifted windows", `Quick,
     test_warm_shifted_windows);
    ("continuation ratio sweep", `Quick, test_continuation_sweep) ]
