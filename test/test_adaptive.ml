(* The online estimator/re-solve loop (doc/ADAPTATION.md): estimator
   edge cases, the consumed-cycle accounting it observes, and the
   determinism of the full adaptive campaign. *)

open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy
module Event_sim = Lepts_sim.Event_sim
module Outcome = Lepts_sim.Outcome
module Sampler = Lepts_sim.Sampler
module Estimator = Lepts_sim.Estimator
module Metrics = Lepts_obs.Metrics
module Fault_injector = Lepts_robust.Fault_injector
module Adaptive = Lepts_robust.Adaptive

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

(* One task, one instance per hyper-period: the estimator's per-task
   sample equals the consumed array, so predictions are exact. *)
let single_plan =
  Plan.expand
    (Task_set.create
       [ Task.create ~name:"t" ~period:10 ~wcec:20. ~acec:10. ~bcec:0. ])

let three_task_set =
  Task_set.scale_wcec_to_utilization
    (Task_set.create
       [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
         Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
         Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
    ~power ~target:0.7

let acs_schedule plan = fst (Result.get_ok (Solver.solve_acs ~plan ~power ()))

let config ?(alpha = 1.0) ?(threshold = 0.1) ?(hysteresis = 0.) ?(budget = 8) () =
  { Estimator.alpha; drift_threshold = threshold; hysteresis;
    resolve_budget = budget }

let check_floats = Alcotest.(check (array (float 1e-9)))

(* --- estimator edge cases ------------------------------------------------ *)

let test_zero_observation_start () =
  let est = Estimator.create (config ()) ~plan:single_plan in
  Alcotest.(check int) "no observations" 0 (Estimator.observations est);
  check_floats "estimate = offline ACEC" [| 10. |] (Estimator.estimates est);
  Alcotest.(check (float 0.)) "no drift" 0. (Estimator.drift est);
  match Estimator.decide est with
  | _, Estimator.Keep -> ()
  | _ -> Alcotest.fail "zero observations must keep the plan"

let test_ewma_fold_and_clamp () =
  let est = Estimator.create (config ~alpha:0.5 ()) ~plan:single_plan in
  (* Seeded at the offline ACEC: 10 -> 0.5*14 + 0.5*10 = 12. *)
  let est = Estimator.observe est ~consumed:[| 14. |] in
  check_floats "ewma step" [| 12. |] (Estimator.estimates est);
  (* Observations beyond the WCEC (an overrun run) clamp to it. *)
  let est = Estimator.observe est ~consumed:[| 100. |] in
  check_floats "clamped to wcec" [| 20. |] (Estimator.estimates est);
  (* The fold is pure: the pre-observation state is untouched. *)
  let fresh = Estimator.create (config ()) ~plan:single_plan in
  let _ = Estimator.observe fresh ~consumed:[| 3. |] in
  check_floats "observe does not mutate" [| 10. |] (Estimator.estimates fresh)

let test_drift_exactly_at_threshold_keeps () =
  let est = Estimator.create (config ~threshold:0.1 ()) ~plan:single_plan in
  (* alpha = 1: estimate = last sample = 11, drift = |11-10|/10 = 0.1. *)
  let est = Estimator.observe est ~consumed:[| 11. |] in
  Alcotest.(check (float 1e-15)) "drift at threshold" 0.1 (Estimator.drift est);
  (match Estimator.decide est with
  | _, Estimator.Keep -> ()
  | _ -> Alcotest.fail "drift exactly at the threshold must not re-solve");
  (* One ulp past the threshold fires. *)
  let est = Estimator.observe est ~consumed:[| 11.001 |] in
  match Estimator.decide est with
  | _, Estimator.Resolve acecs -> check_floats "resolve target" [| 11.001 |] acecs
  | _ -> Alcotest.fail "drift past the threshold must re-solve"

let test_budget_exhaustion () =
  let est = Estimator.create (config ~budget:1 ()) ~plan:single_plan in
  let est = Estimator.observe est ~consumed:[| 15. |] in
  let est, d1 = Estimator.decide est in
  let acecs = match d1 with
    | Estimator.Resolve a -> a
    | _ -> Alcotest.fail "first drift event should resolve"
  in
  let est = Estimator.committed est ~acecs in
  Alcotest.(check int) "budget spent" 1 (Estimator.resolves_done est);
  (* Hysteresis 0: the trigger re-arms as soon as drift <= threshold,
     which holds right after the commit (drift is 0 vs the new
     baseline). *)
  let est, d2 = Estimator.decide est in
  (match d2 with
  | Estimator.Keep -> ()
  | _ -> Alcotest.fail "no drift right after commit");
  Alcotest.(check bool) "re-armed" true (Estimator.armed est);
  (* Drift again: the budget is spent, so the estimator reports
     exhaustion and the caller stays on the static plan. *)
  let est = Estimator.observe est ~consumed:[| 19.9 |] in
  match Estimator.decide est with
  | _, Estimator.Exhausted -> ()
  | _ -> Alcotest.fail "over-budget drift must report Exhausted"

let test_hysteresis_disarms_and_rearms () =
  let est =
    Estimator.create (config ~threshold:0.1 ~hysteresis:0.5 ()) ~plan:single_plan
  in
  let est = Estimator.observe est ~consumed:[| 15. |] in
  let est, d = Estimator.decide est in
  let acecs = match d with
    | Estimator.Resolve a -> a
    | _ -> Alcotest.fail "should resolve"
  in
  let est = Estimator.committed est ~acecs in
  Alcotest.(check bool) "disarmed after commit" false (Estimator.armed est);
  (* Drift 0.08 vs the new baseline of 15: above the 0.05 re-arm level,
     so the trigger stays disarmed and nothing fires even at the next
     check... *)
  let est = Estimator.observe est ~consumed:[| 16.2 |] in
  let est, d = Estimator.decide est in
  (match d with Estimator.Keep -> () | _ -> Alcotest.fail "disarmed: keep");
  Alcotest.(check bool) "still disarmed" false (Estimator.armed est);
  (* ...until drift falls to the re-arm level (15.6 -> 0.04 < 0.05). *)
  let est = Estimator.observe est ~consumed:[| 15.6 |] in
  let est, d = Estimator.decide est in
  (match d with Estimator.Keep -> () | _ -> Alcotest.fail "re-arm check keeps");
  Alcotest.(check bool) "re-armed below the hysteresis level" true
    (Estimator.armed est);
  (* Armed again: the next over-threshold drift fires. *)
  let est = Estimator.observe est ~consumed:[| 19.9 |] in
  match Estimator.decide est with
  | _, Estimator.Resolve _ -> ()
  | _ -> Alcotest.fail "re-armed trigger must fire"

let test_plan_with_acecs_structurally_identical () =
  let plan = Plan.expand three_task_set in
  let n = Task_set.size plan.Plan.task_set in
  let acecs =
    Array.init n (fun i ->
        let t = Task_set.task plan.Plan.task_set i in
        (* Deliberately out of range: must clamp into [bcec, wcec]. *)
        if i = 0 then t.Task.wcec *. 2. else t.Task.acec *. 0.9)
  in
  let plan' = Estimator.plan_with_acecs plan ~acecs in
  Alcotest.(check int) "same order length" (Array.length plan.Plan.order)
    (Array.length plan'.Plan.order);
  Array.iteri
    (fun k (s : Lepts_preempt.Sub_instance.t) ->
      let s' = plan'.Plan.order.(k) in
      Alcotest.(check bool) "same segment" true
        (s.Lepts_preempt.Sub_instance.task = s'.Lepts_preempt.Sub_instance.task
        && s.Lepts_preempt.Sub_instance.release
           = s'.Lepts_preempt.Sub_instance.release
        && s.Lepts_preempt.Sub_instance.boundary
           = s'.Lepts_preempt.Sub_instance.boundary))
    plan.Plan.order;
  let t0 = Task_set.task plan'.Plan.task_set 0 in
  Alcotest.(check (float 0.)) "clamped to wcec" t0.Task.wcec t0.Task.acec

(* --- consumed-cycle accounting ------------------------------------------- *)

let test_consumed_matches_totals_clean () =
  let plan = Plan.expand three_task_set in
  let schedule = acs_schedule plan in
  let totals = Sampler.fixed plan ~value:`Acec in
  let o = Event_sim.run ~schedule ~policy:Policy.Greedy ~totals () in
  Array.iteri
    (fun i per_instance ->
      let expect = Array.fold_left ( +. ) 0. per_instance in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "task %d consumed = its totals" i)
        expect o.Outcome.consumed.(i))
    totals

let no_faults plan =
  { Event_sim.release_offsets =
      Array.map (Array.map (fun _ -> 0.)) plan.Plan.instance_subs;
    enforce_budget = false;
    deny_transition = (fun ~task:_ ~instance:_ ~sub:_ ~now:_ ~requested:_ -> false) }

let test_consumed_counts_overrun_residue_once () =
  let plan = Plan.expand three_task_set in
  let schedule = acs_schedule plan in
  (* Every instance takes 1.5x its WCEC; with budget enforcement off
     the residue beyond the quota sum executes at v_max. The consumed
     cycles must equal the actual totals exactly — the residue counted
     once, not once per quota and once at escalation. *)
  let totals =
    Array.map (Array.map (fun w -> w *. 1.5)) (Sampler.fixed plan ~value:`Wcec)
  in
  let o =
    Event_sim.run ~faults:(no_faults plan) ~schedule ~policy:Policy.Greedy
      ~totals ()
  in
  Array.iteri
    (fun i per_instance ->
      let expect = Array.fold_left ( +. ) 0. per_instance in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "task %d consumed = overrun totals" i)
        expect o.Outcome.consumed.(i))
    totals

let test_consumed_excludes_shed_residue () =
  let plan = Plan.expand three_task_set in
  let schedule = acs_schedule plan in
  let totals = Sampler.fixed plan ~value:`Acec in
  (* Shed instance 0 of task 0 at its first dispatch: its cycles must
     not appear in the consumed observation at all. *)
  let control (d : Event_sim.dispatch) =
    if d.Event_sim.d_task = 0 && d.Event_sim.d_instance = 0 then Event_sim.Shed
    else Event_sim.Run d.Event_sim.d_base_voltage
  in
  let o = Event_sim.run ~control ~schedule ~policy:Policy.Greedy ~totals () in
  Alcotest.(check int) "one instance shed" 1 o.Outcome.shed_instances;
  let expect =
    Array.fold_left ( +. ) 0. totals.(0) -. totals.(0).(0)
  in
  Alcotest.(check (float 1e-6)) "shed residue not consumed" expect
    o.Outcome.consumed.(0)

(* --- the adaptive campaign ----------------------------------------------- *)

let drifting_spec =
  (* Heavy overruns: the actual mean rises well above the offline ACEC,
     so the estimator must drift and re-solve. *)
  { Fault_injector.seed = 7; overrun_prob = 0.4; overrun_factor = 1.8;
    jitter_prob = 0.; jitter_frac = 0.; denial_prob = 0. }

let adaptive_config ?(budget = 8) () =
  { Adaptive.estimator =
      { Estimator.alpha = 0.3;
        drift_threshold = 0.05; hysteresis = 0.; resolve_budget = budget };
    resolve_every = 10 }

let run_point ~jobs ?(budget = 8) () =
  let plan = Plan.expand three_task_set in
  let schedule = acs_schedule plan in
  Adaptive.run ~rounds:60 ~jobs ~config:(adaptive_config ~budget ())
    ~spec:drifting_spec ~schedule ~policy:Policy.Greedy ~seed:11 ()

let test_adaptive_loop_resolves_and_observes_each_round_once () =
  let c = Metrics.counter Metrics.default "lepts_adapt_observations_total" in
  let before = Metrics.counter_value c in
  let p = run_point ~jobs:1 () in
  (* Every round folded exactly once, re-solve plan swaps included —
     the double-counting audit for mid-run schedule replacement. *)
  Alcotest.(check int) "one observation per round" 60
    (Metrics.counter_value c - before);
  Alcotest.(check bool) "estimator re-solved" true (p.Adaptive.counters.Adaptive.resolves >= 1);
  Alcotest.(check int) "no failures" 0 p.Adaptive.counters.Adaptive.resolve_failures;
  Alcotest.(check bool) "drift events cover resolves" true
    (p.Adaptive.counters.Adaptive.drift_events >= p.Adaptive.counters.Adaptive.resolves)

let test_adaptive_budget_zero_falls_back_to_static () =
  let p = run_point ~jobs:1 ~budget:0 () in
  Alcotest.(check int) "no resolves" 0 p.Adaptive.counters.Adaptive.resolves;
  Alcotest.(check bool) "exhaustion counted" true
    (p.Adaptive.counters.Adaptive.exhausted >= 1);
  (* Without a single re-solve the adaptive arm runs the static
     schedule throughout: the two summaries must agree bit for bit. *)
  Alcotest.(check int64) "fallback is the static arm"
    (Int64.bits_of_float p.Adaptive.static_summary.Lepts_sim.Runner.mean_energy)
    (Int64.bits_of_float p.Adaptive.adaptive_summary.Lepts_sim.Runner.mean_energy)

let test_adaptive_bit_identical_across_jobs () =
  let a = run_point ~jobs:1 () and b = run_point ~jobs:4 () in
  let bits s =
    List.map Int64.bits_of_float
      [ s.Lepts_sim.Runner.mean_energy; s.Lepts_sim.Runner.stddev_energy;
        s.Lepts_sim.Runner.min_energy; s.Lepts_sim.Runner.max_energy;
        s.Lepts_sim.Runner.p95_energy; s.Lepts_sim.Runner.p99_energy ]
  in
  Alcotest.(check (list int64)) "static summary bits" (bits a.Adaptive.static_summary)
    (bits b.Adaptive.static_summary);
  Alcotest.(check (list int64)) "adaptive summary bits"
    (bits a.Adaptive.adaptive_summary) (bits b.Adaptive.adaptive_summary);
  Alcotest.(check (array int64)) "estimates bits"
    (Array.map Int64.bits_of_float a.Adaptive.estimates)
    (Array.map Int64.bits_of_float b.Adaptive.estimates);
  Alcotest.(check int) "same resolves" a.Adaptive.counters.Adaptive.resolves
    b.Adaptive.counters.Adaptive.resolves;
  Alcotest.(check int) "same drift events" a.Adaptive.counters.Adaptive.drift_events
    b.Adaptive.counters.Adaptive.drift_events

let test_config_validation () =
  let bad c =
    Alcotest.check_raises "rejected" (Invalid_argument "x") (fun () ->
        try Estimator.validate c with Invalid_argument _ -> raise (Invalid_argument "x"))
  in
  bad (config ~alpha:0. ());
  bad (config ~alpha:Float.nan ());
  bad (config ~threshold:0. ());
  bad (config ~hysteresis:1.5 ());
  bad (config ~budget:(-1) ());
  Estimator.validate (config ())

let suite =
  [ Alcotest.test_case "zero-observation start predicts offline ACEC" `Quick
      test_zero_observation_start;
    Alcotest.test_case "EWMA fold, clamping, purity" `Quick test_ewma_fold_and_clamp;
    Alcotest.test_case "drift exactly at threshold keeps the plan" `Quick
      test_drift_exactly_at_threshold_keeps;
    Alcotest.test_case "re-solve budget exhaustion" `Quick test_budget_exhaustion;
    Alcotest.test_case "hysteresis disarms then re-arms" `Quick
      test_hysteresis_disarms_and_rearms;
    Alcotest.test_case "plan_with_acecs keeps the structure" `Quick
      test_plan_with_acecs_structurally_identical;
    Alcotest.test_case "consumed = totals on a clean round" `Quick
      test_consumed_matches_totals_clean;
    Alcotest.test_case "overrun residue consumed exactly once" `Quick
      test_consumed_counts_overrun_residue_once;
    Alcotest.test_case "shed residue never consumed" `Quick
      test_consumed_excludes_shed_residue;
    Alcotest.test_case "adaptive loop observes each round once and re-solves"
      `Quick test_adaptive_loop_resolves_and_observes_each_round_once;
    Alcotest.test_case "budget 0 falls back to the static plan" `Quick
      test_adaptive_budget_zero_falls_back_to_static;
    Alcotest.test_case "adaptive run bit-identical at -j1 vs -j4" `Quick
      test_adaptive_bit_identical_across_jobs;
    Alcotest.test_case "estimator config validation" `Quick test_config_validation ]
