(* Non-preemptive plans: the paper's motivational setting generalised
   to multiple periods. The same NLP machinery applies; feasibility is
   simply harder because whole jobs must fit between end-times. *)

open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model

let power = Model.ideal ~v_min:1. ~v_max:4. ()

let test_equal_periods_same_as_preemptive () =
  (* With one shared period the preemptive expansion has no splits, so
     both constructions coincide. *)
  let ts =
    Task_set.create
      [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
        Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
        Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ]
  in
  let p = Plan.expand ts and np = Plan.expand_nonpreemptive ts in
  Alcotest.(check int) "same size" (Plan.size p) (Plan.size np);
  Array.iteri
    (fun k (s : Sub.t) ->
      let s' = np.Plan.order.(k) in
      Alcotest.(check int) "same task order" s.Sub.task s'.Sub.task;
      Alcotest.(check (float 0.)) "same release" s.Sub.release s'.Sub.release)
    p.Plan.order

let test_one_sub_per_instance () =
  let ts =
    Task_set.create
      [ Task.create ~name:"a" ~period:4 ~wcec:1. ~acec:0.5 ~bcec:0.;
        Task.create ~name:"b" ~period:8 ~wcec:2. ~acec:1. ~bcec:0. ]
  in
  let np = Plan.expand_nonpreemptive ts in
  Alcotest.(check int) "3 jobs" 3 (Plan.size np);
  Array.iter
    (Array.iter (fun idxs -> Alcotest.(check int) "singleton" 1 (Array.length idxs)))
    np.Plan.instance_subs;
  Array.iter
    (fun (s : Sub.t) ->
      Alcotest.(check (float 0.)) "boundary is deadline" s.Sub.deadline s.Sub.boundary)
    np.Plan.order

let test_edf_order () =
  (* At a common release, the shorter-deadline job runs first. *)
  let ts =
    Task_set.create
      [ Task.create ~name:"long" ~period:12 ~wcec:2. ~acec:1. ~bcec:0.;
        Task.create ~name:"short" ~period:4 ~wcec:1. ~acec:0.5 ~bcec:0. ]
  in
  let np = Plan.expand_nonpreemptive ts in
  (* RM priority order puts "short" at level 0; at release 0 its
     deadline (4) precedes "long"'s (12). *)
  Alcotest.(check int) "EDF first at t=0" 0 np.Plan.order.(0).Sub.task;
  Alcotest.(check (float 0.)) "its deadline" 4. np.Plan.order.(0).Sub.deadline

let test_motivation_nonpreemptive_solve () =
  (* The paper's motivational example is natively non-preemptive; the
     solver must reproduce the same (10, 15, 20) optimum through the
     non-preemptive constructor too. *)
  let ts =
    Task_set.create
      [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
        Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
        Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ]
  in
  let plan = Plan.expand_nonpreemptive ts in
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let acs, _ =
    Result.get_ok
      (Solver.solve_acs
         ~warm_starts:[ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
         ~plan ~power ())
  in
  Alcotest.(check (float 0.05)) "e1" 10. acs.Static_schedule.end_times.(0);
  Alcotest.(check (float 0.05)) "e2" 15. acs.Static_schedule.end_times.(1);
  Alcotest.(check (float 0.05)) "e3" 20. acs.Static_schedule.end_times.(2)

let test_multi_period_solve_and_execute () =
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let ts =
    Task_set.create
      [ Task.with_ratio ~name:"a" ~period:10 ~wcec:6. ~ratio:0.2;
        Task.with_ratio ~name:"b" ~period:20 ~wcec:10. ~ratio:0.2 ]
  in
  let plan = Plan.expand_nonpreemptive ts in
  let acs, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  Alcotest.(check bool) "feasible" true (Validate.is_feasible acs);
  (* The order-faithful executor is exact for non-preemptive plans. *)
  List.iter
    (fun value ->
      let totals = Lepts_sim.Sampler.fixed plan ~value in
      let o = Reference.Sequence.run ~schedule:acs ~totals in
      Alcotest.(check int) "meets deadlines" 0 o.Lepts_sim.Outcome.deadline_misses)
    [ `Bcec; `Acec; `Wcec ]

let test_nonpreemptive_harder_than_preemptive () =
  (* A set schedulable preemptively but not non-preemptively: a long
     low-priority job spanning several short-task periods. *)
  let power = Model.ideal ~v_min:0.5 ~v_max:4. () in
  let ts =
    Task_set.create
      [ Task.with_ratio ~name:"fast" ~period:4 ~wcec:4. ~ratio:0.5;
        Task.with_ratio ~name:"bulk" ~period:16 ~wcec:28. ~ratio:0.5 ]
  in
  (* Preemptive: fits (utilisation = 4/16 + 28/64 < 1 at v_max). *)
  (match Solver.solve_wcs ~plan:(Plan.expand ts) ~power () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "preemptive should fit: %a" Solver.pp_error e);
  (* Non-preemptive: the 7 ms bulk job cannot run without making some
     4 ms-deadline job miss. *)
  match Solver.solve_wcs ~plan:(Plan.expand_nonpreemptive ts) ~power () with
  | Error Solver.Unschedulable -> ()
  | Error (Solver.Solver_stalled _) -> ()
  | Ok (s, _) ->
    (* If a schedule comes back it must at least be validated
       infeasible — but really the initial fill should have failed. *)
    Alcotest.(check bool) "must not validate" false (Validate.is_feasible s)

let suite =
  [ ("equal periods = preemptive", `Quick, test_equal_periods_same_as_preemptive);
    ("one sub-instance per job", `Quick, test_one_sub_per_instance);
    ("EDF order at common release", `Quick, test_edf_order);
    ("motivational example (non-preemptive)", `Quick, test_motivation_nonpreemptive_solve);
    ("multi-period solve & execute", `Quick, test_multi_period_solve_and_execute);
    ("non-preemptive harder", `Quick, test_nonpreemptive_harder_than_preemptive) ]
