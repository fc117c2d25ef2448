open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy
module Event_sim = Lepts_sim.Event_sim
module Outcome = Lepts_sim.Outcome
module Runner = Lepts_sim.Runner
module Sampler = Lepts_sim.Sampler
module Rng = Lepts_prng.Xoshiro256
module Fault_injector = Lepts_robust.Fault_injector
module Containment = Lepts_robust.Containment
module Robust_solver = Lepts_robust.Robust_solver
module Campaign = Lepts_robust.Campaign

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let preemptive_acs () =
  let ts =
    Task_set.scale_wcec_to_utilization
      (Task_set.create
         [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
           Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
           Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
      ~power ~target:0.7
  in
  let plan = Plan.expand ts in
  let acs, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  (plan, acs)

let moderate_spec =
  { Fault_injector.seed = 42; overrun_prob = 0.3; overrun_factor = 2.;
    jitter_prob = 0.3; jitter_frac = 0.2; denial_prob = 0.1 }

(* --- Fault injector ------------------------------------------------------ *)

(* Bits of a per-instance array, and the counters as one line. *)
let bits a =
  Array.to_list
    (Array.map
       (fun row ->
         String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") row)))
       a)

let counts (c : Fault_injector.counters) =
  Printf.sprintf "overruns %d jitters %d denials %d" c.Fault_injector.overruns
    c.Fault_injector.jitters c.Fault_injector.denials

let test_injector_deterministic () =
  let plan, acs = preemptive_acs () in
  let totals = Sampler.fixed plan ~value:`Acec in
  (* Simulating each draw makes the denial stream count too. *)
  let draw round =
    let counters = Fault_injector.fresh_counters () in
    let s = Fault_injector.perturb moderate_spec ~counters ~round plan ~totals in
    let o =
      Event_sim.run ~faults:s.Fault_injector.faults ~schedule:acs
        ~policy:Policy.Greedy ~totals:s.Fault_injector.totals ()
    in
    ( (Printf.sprintf "energy %h" o.Outcome.energy :: counts counters
       :: bits s.Fault_injector.totals)
      @ bits s.Fault_injector.faults.Event_sim.release_offsets,
      counters )
  in
  let a, ca = draw 3 and b, _ = draw 3 in
  Alcotest.(check (list string)) "same scenario, counters and outcome" a b;
  Alcotest.(check bool) "every fault class drawn" true
    (ca.Fault_injector.overruns > 0 && ca.Fault_injector.jitters > 0
    && ca.Fault_injector.denials > 0);
  (* Different rounds reseed the generator. *)
  let c, _ = draw 4 in
  Alcotest.(check bool) "round changes the draw" true (a <> c)

let test_injector_zero_is_identity () =
  let plan, _ = preemptive_acs () in
  let totals = Sampler.fixed plan ~value:`Acec in
  let counters = Fault_injector.fresh_counters () in
  let s = Fault_injector.perturb Fault_injector.zero ~counters ~round:3 plan ~totals in
  Alcotest.(check (list string)) "totals unchanged" (bits totals)
    (bits s.Fault_injector.totals);
  Alcotest.(check (list string)) "no release offsets"
    (bits (Array.map (Array.map (fun _ -> 0.)) totals))
    (bits s.Fault_injector.faults.Event_sim.release_offsets);
  Alcotest.(check string) "no faults counted" "overruns 0 jitters 0 denials 0"
    (counts counters);
  Alcotest.(check bool) "budget still enforced" true
    s.Fault_injector.faults.Event_sim.enforce_budget

let test_injector_overruns_exceed_wcec () =
  let plan, _ = preemptive_acs () in
  let ts = plan.Plan.task_set in
  let totals = Sampler.fixed plan ~value:`Wcec in
  let spec = { moderate_spec with overrun_prob = 1.; jitter_prob = 0.; denial_prob = 0. } in
  let counters = Fault_injector.fresh_counters () in
  let s = Fault_injector.perturb spec ~counters ~round:0 plan ~totals in
  let instances =
    Array.fold_left (fun acc per -> acc + Array.length per) 0 totals
  in
  Alcotest.(check int) "every instance overruns" instances
    counters.Fault_injector.overruns;
  Array.iteri
    (fun i per ->
      let wcec = (Task_set.task ts i).Task.wcec in
      Array.iter
        (fun w ->
          Alcotest.(check (float 1e-9)) "actual = factor * wcec"
            (spec.Fault_injector.overrun_factor *. wcec) w)
        per)
    s.Fault_injector.totals;
  Alcotest.(check bool) "budget enforcement off" false
    s.Fault_injector.faults.Event_sim.enforce_budget

let test_injector_validates_spec () =
  let bad = { moderate_spec with overrun_prob = 1.5 } in
  Alcotest.(check bool) "rejects out-of-range probability" true
    (try
       Fault_injector.validate bad;
       false
     with Invalid_argument _ -> true)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_injector_validation_names_each_field () =
  (* Every field has its own rejection, the message names the offending
     field, and NaN never slips through a comparison. *)
  let rejected ~field spec =
    match Fault_injector.validate spec with
    | () -> Alcotest.failf "field %s: bad value accepted" field
    | exception Invalid_argument msg ->
      if not (contains ~sub:field msg) then
        Alcotest.failf "field %s: message %S does not name it" field msg
  in
  let nan = Float.nan in
  rejected ~field:"overrun_prob" { moderate_spec with overrun_prob = -0.1 };
  rejected ~field:"overrun_prob" { moderate_spec with overrun_prob = 1.1 };
  rejected ~field:"overrun_prob" { moderate_spec with overrun_prob = nan };
  rejected ~field:"jitter_prob" { moderate_spec with jitter_prob = -1. };
  rejected ~field:"jitter_prob" { moderate_spec with jitter_prob = 2. };
  rejected ~field:"jitter_prob" { moderate_spec with jitter_prob = nan };
  rejected ~field:"denial_prob" { moderate_spec with denial_prob = -0.5 };
  rejected ~field:"denial_prob" { moderate_spec with denial_prob = 1.5 };
  rejected ~field:"denial_prob" { moderate_spec with denial_prob = nan };
  rejected ~field:"overrun_factor" { moderate_spec with overrun_factor = 0.5 };
  rejected ~field:"overrun_factor" { moderate_spec with overrun_factor = -1. };
  rejected ~field:"overrun_factor" { moderate_spec with overrun_factor = infinity };
  rejected ~field:"overrun_factor" { moderate_spec with overrun_factor = nan };
  rejected ~field:"jitter_frac" { moderate_spec with jitter_frac = -0.1 };
  rejected ~field:"jitter_frac" { moderate_spec with jitter_frac = 1. };
  rejected ~field:"jitter_frac" { moderate_spec with jitter_frac = nan };
  (* Boundary values are legal. *)
  Fault_injector.validate
    { moderate_spec with overrun_prob = 0.; jitter_prob = 1.; denial_prob = 1.;
      overrun_factor = 1.; jitter_frac = 0. }

(* --- Zero-rate scenario is bit-identical --------------------------------- *)

let test_runner_zero_spec_identity () =
  let plan, acs = preemptive_acs () in
  let scenario ~round ~totals =
    let s = Fault_injector.perturb Fault_injector.zero ~round plan ~totals in
    (s.Fault_injector.totals, Some s.Fault_injector.faults)
  in
  let run ?scenario () =
    let rng = Rng.create ~seed:17 in
    Runner.summarize
      (Array.init 40 (fun r ->
           Runner.round ?scenario ~schedule:acs ~policy:Policy.Greedy ~rng ~round:r ()))
  in
  let plain = run () and faulted = run ~scenario () in
  Alcotest.(check (float 0.)) "mean identical" plain.Runner.mean_energy
    faulted.Runner.mean_energy;
  Alcotest.(check (float 0.)) "stddev identical" plain.Runner.stddev_energy
    faulted.Runner.stddev_energy;
  Alcotest.(check (float 0.)) "p95 identical" plain.Runner.p95_energy
    faulted.Runner.p95_energy;
  Alcotest.(check (float 0.)) "p99 identical" plain.Runner.p99_energy
    faulted.Runner.p99_energy;
  Alcotest.(check int) "misses identical" plain.Runner.deadline_misses
    faulted.Runner.deadline_misses;
  Alcotest.(check int) "nothing shed" 0 faulted.Runner.shed_instances

(* --- Containment regression ----------------------------------------------- *)

(* The shipped regression scenario for the containment guarantee: a
   severe (10x WCEC) overrun on the first instance of the
   highest-priority task. Unprotected, the unbudgeted residue hogs the
   processor at top priority and drags several other instances past
   their deadlines; contained, the hopeless instance is shed at its
   first dispatch and only it misses. *)
let severe_overrun_scenario () =
  let plan, acs = preemptive_acs () in
  let ts = plan.Plan.task_set in
  let totals = Sampler.fixed plan ~value:`Wcec in
  totals.(0).(0) <- 10. *. (Task_set.task ts 0).Task.wcec;
  let faults =
    { Event_sim.release_offsets = Array.map (Array.map (fun _ -> 0.)) totals;
      enforce_budget = false;
      deny_transition = (fun ~task:_ ~instance:_ ~sub:_ ~now:_ ~requested:_ -> false) }
  in
  (acs, faults, totals)

let test_containment_fewer_misses () =
  let acs, faults, totals = severe_overrun_scenario () in
  let unprotected =
    Event_sim.run ~faults ~schedule:acs ~policy:Policy.Greedy ~totals ()
  in
  let counters = Containment.fresh_counters () in
  let control = Containment.control ~power ~counters () in
  let contained =
    Event_sim.run ~faults ~control ~schedule:acs ~policy:Policy.Greedy ~totals ()
  in
  Alcotest.(check bool) "overrun cascades without containment" true
    (unprotected.Outcome.deadline_misses > 1);
  Alcotest.(check bool) "containment strictly reduces misses" true
    (contained.Outcome.deadline_misses < unprotected.Outcome.deadline_misses);
  Alcotest.(check int) "hopeless instance shed" 1 contained.Outcome.shed_instances;
  Alcotest.(check int) "shed counter agrees" 1 counters.Containment.shed_instances;
  (* Only the shed instance misses: its residue no longer steals time. *)
  Alcotest.(check int) "one miss under containment" 1
    contained.Outcome.deadline_misses

let test_containment_escalates_recoverable_overrun () =
  (* A mild overrun that still fits before the deadline at v_max must be
     escalated, not shed: the instance completes and nothing misses. *)
  let plan, acs = preemptive_acs () in
  let ts = plan.Plan.task_set in
  let totals = Sampler.fixed plan ~value:`Bcec in
  totals.(0).(0) <- 1.2 *. (Task_set.task ts 0).Task.wcec;
  let faults =
    { Event_sim.release_offsets = Array.map (Array.map (fun _ -> 0.)) totals;
      enforce_budget = false;
      deny_transition = (fun ~task:_ ~instance:_ ~sub:_ ~now:_ ~requested:_ -> false) }
  in
  let counters = Containment.fresh_counters () in
  let control = Containment.control ~power ~counters () in
  let o = Event_sim.run ~faults ~control ~schedule:acs ~policy:Policy.Greedy ~totals () in
  Alcotest.(check int) "nothing shed" 0 o.Outcome.shed_instances;
  Alcotest.(check int) "no misses" 0 o.Outcome.deadline_misses;
  Alcotest.(check bool) "overrun was escalated" true
    (counters.Containment.escalated_instances >= 1)

(* A one-task schedule isolates containment boundary behaviour from
   preemption effects: the task owns the whole frame. *)
let solo_acs () =
  let ts =
    Task_set.scale_wcec_to_utilization
      (Task_set.create [ Task.with_ratio ~name:"solo" ~period:4 ~wcec:2. ~ratio:0.5 ])
      ~power ~target:0.5
  in
  let plan = Plan.expand ts in
  let acs, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  (plan, acs)

let no_faults totals =
  { Event_sim.release_offsets = Array.map (Array.map (fun _ -> 0.)) totals;
    enforce_budget = false;
    deny_transition = (fun ~task:_ ~instance:_ ~sub:_ ~now:_ ~requested:_ -> false) }

let test_containment_overrun_on_deadline_tick () =
  (* Boundary between escalation and shedding: an overrun whose total
     work at v_max completes exactly on the deadline tick. It is not
     hopeless (v_max still makes the deadline), so it must be escalated
     and finish — not shed, not counted as a miss. *)
  let plan, acs = solo_acs () in
  let totals = Sampler.fixed plan ~value:`Wcec in
  let t_cycle = Model.cycle_time power ~v:power.Model.v_max in
  totals.(0).(0) <- 4.0 /. t_cycle;
  (* the entire [0, 4) frame at v_max *)
  let counters = Containment.fresh_counters () in
  let control = Containment.control ~power ~counters () in
  let o =
    Event_sim.run ~faults:(no_faults totals) ~control ~schedule:acs
      ~policy:Policy.Greedy ~totals ()
  in
  Alcotest.(check int) "exact-deadline overrun is not shed" 0
    o.Outcome.shed_instances;
  Alcotest.(check int) "and does not miss" 0 o.Outcome.deadline_misses;
  Alcotest.(check bool) "but is escalated to v_max" true
    (counters.Containment.escalated_instances >= 1);
  (* One cycle more and the instance is hopeless: shed, and only that
     instance misses. *)
  let totals = Sampler.fixed plan ~value:`Wcec in
  totals.(0).(0) <- (4.0 /. t_cycle) +. 1.;
  let counters = Containment.fresh_counters () in
  let control = Containment.control ~power ~counters () in
  let o =
    Event_sim.run ~faults:(no_faults totals) ~control ~schedule:acs
      ~policy:Policy.Greedy ~totals ()
  in
  Alcotest.(check int) "past the tick it is shed" 1 o.Outcome.shed_instances;
  Alcotest.(check int) "the shed instance is the only miss" 1
    o.Outcome.deadline_misses

let test_containment_zero_work_instance () =
  (* The other boundary: a sub-instance whose actual workload is zero
     (a degenerate ACEC draw). It completes at its release, consumes no
     energy, and must trigger neither escalation nor shedding. *)
  let plan, acs = solo_acs () in
  let totals = Sampler.fixed plan ~value:`Wcec in
  totals.(0).(0) <- 0.;
  let counters = Containment.fresh_counters () in
  let control = Containment.control ~power ~counters () in
  let o =
    Event_sim.run ~faults:(no_faults totals) ~control ~schedule:acs
      ~policy:Policy.Greedy ~totals ()
  in
  Alcotest.(check int) "no misses" 0 o.Outcome.deadline_misses;
  Alcotest.(check int) "nothing shed" 0 o.Outcome.shed_instances;
  Alcotest.(check int) "nothing escalated" 0
    counters.Containment.escalated_instances

(* --- Campaign ------------------------------------------------------------- *)

let test_campaign_deterministic () =
  let _, acs = preemptive_acs () in
  let run () =
    Campaign.run ~rounds:30 ~spec:moderate_spec ~schedule:acs
      ~policy:Policy.Greedy ~seed:5 ()
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.)) "faulty mean identical"
    a.Campaign.faulty.Campaign.summary.Runner.mean_energy
    b.Campaign.faulty.Campaign.summary.Runner.mean_energy;
  Alcotest.(check int) "faulty misses identical"
    a.Campaign.faulty.Campaign.summary.Runner.deadline_misses
    b.Campaign.faulty.Campaign.summary.Runner.deadline_misses;
  Alcotest.(check int) "overrun counts identical"
    a.Campaign.faulty.Campaign.faults.Fault_injector.overruns
    b.Campaign.faulty.Campaign.faults.Fault_injector.overruns;
  Alcotest.(check (float 0.)) "contained mean identical"
    a.Campaign.contained.Campaign.summary.Runner.mean_energy
    b.Campaign.contained.Campaign.summary.Runner.mean_energy

let test_campaign_arms_share_draws () =
  let _, acs = preemptive_acs () in
  let r =
    Campaign.run ~rounds:30 ~spec:Fault_injector.zero ~schedule:acs
      ~policy:Policy.Greedy ~seed:5 ()
  in
  (* With a zero spec all three arms replay the same fault-free draws. *)
  Alcotest.(check (float 0.)) "faulty arm = clean"
    r.Campaign.clean.Runner.mean_energy
    r.Campaign.faulty.Campaign.summary.Runner.mean_energy;
  Alcotest.(check (float 0.)) "contained arm = clean"
    r.Campaign.clean.Runner.mean_energy
    r.Campaign.contained.Campaign.summary.Runner.mean_energy;
  Alcotest.(check int) "no misses anywhere" 0
    (r.Campaign.clean.Runner.deadline_misses
     + r.Campaign.faulty.Campaign.summary.Runner.deadline_misses
     + r.Campaign.contained.Campaign.summary.Runner.deadline_misses)

let test_campaign_parallel_bit_identical () =
  (* The full report — every summary field and every fault/containment
     counter — must not depend on the worker-domain count. *)
  let _, acs = preemptive_acs () in
  let run jobs =
    Campaign.run ~rounds:30 ~jobs ~spec:moderate_spec ~schedule:acs
      ~policy:Policy.Greedy ~seed:5 ()
  in
  let seq = run 1 in
  List.iter
    (fun jobs ->
      let par = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "report identical at jobs=%d" jobs)
        true (seq = par))
    [ 2; 3 ]

let test_runner_percentiles_ordered () =
  let _, acs = preemptive_acs () in
  let s =
    Runner.simulate ~rounds:100 ~schedule:acs ~policy:Policy.Greedy
      ~rng:(Rng.create ~seed:13) ()
  in
  Alcotest.(check bool) "min <= p95" true (s.Runner.min_energy <= s.Runner.p95_energy);
  Alcotest.(check bool) "p95 <= p99" true (s.Runner.p95_energy <= s.Runner.p99_energy);
  Alcotest.(check bool) "p99 <= max" true (s.Runner.p99_energy <= s.Runner.max_energy)

(* --- Resilient solve pipeline --------------------------------------------- *)

let zero_budget = { Solver.max_outer = 0; wall_budget = None }

let test_robust_solver_default_uses_acs () =
  let plan, _ = preemptive_acs () in
  match Robust_solver.solve ~plan ~power () with
  | Error _ -> Alcotest.fail "default pipeline failed"
  | Ok (s, d) ->
    Alcotest.(check bool) "acs chosen" true (d.Robust_solver.chosen = Robust_solver.Acs);
    Alcotest.(check bool) "no failed attempts" true (d.Robust_solver.attempts = []);
    Alcotest.(check bool) "feasible" true (Validate.is_feasible s)

let test_robust_solver_falls_back_to_wcs () =
  let plan, _ = preemptive_acs () in
  let config = { Robust_solver.default_config with acs = zero_budget } in
  match Robust_solver.solve ~config ~plan ~power () with
  | Error _ -> Alcotest.fail "pipeline must survive a failing ACS stage"
  | Ok (s, d) ->
    Alcotest.(check bool) "wcs chosen" true (d.Robust_solver.chosen = Robust_solver.Wcs);
    Alcotest.(check bool) "acs failure named" true
      (List.exists
         (fun (stage, why) ->
           stage = Robust_solver.Acs
           && why = "iteration budget exhausted before start")
         d.Robust_solver.attempts);
    Alcotest.(check bool) "feasible" true (Validate.is_feasible s)

let test_robust_solver_falls_back_to_rm () =
  let plan, _ = preemptive_acs () in
  let config = { Robust_solver.acs = zero_budget; wcs = zero_budget } in
  match Robust_solver.solve ~config ~plan ~power () with
  | Error _ -> Alcotest.fail "RM fallback must not fail on a schedulable set"
  | Ok (s, d) ->
    Alcotest.(check bool) "rm chosen" true
      (d.Robust_solver.chosen = Robust_solver.Rm_vmax);
    Alcotest.(check int) "both NLP stages failed" 2
      (List.length d.Robust_solver.attempts);
    Alcotest.(check bool) "no NLP stats" true (d.Robust_solver.stats = None);
    Alcotest.(check bool) "feasible" true (Validate.is_feasible s)

let test_robust_solver_feasible_on_all_seed_workloads () =
  (* The acceptance property: even with ACS forced to fail, every seed
     workload still yields a feasible schedule via the fallback chain. *)
  let config = { Robust_solver.default_config with acs = zero_budget } in
  List.iter
    (fun n ->
      let gen_config = Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio:0.4 in
      let ts =
        Result.get_ok
          (Lepts_workloads.Random_gen.generate gen_config ~power
             ~rng:(Rng.create ~seed:(100 + n)))
      in
      let plan = Plan.expand ts in
      match Robust_solver.solve ~config ~plan ~power () with
      | Error e ->
        Alcotest.failf "n=%d failed: %a" n Solver.pp_error e
      | Ok (s, d) ->
        Alcotest.(check bool) "not acs" true
          (d.Robust_solver.chosen <> Robust_solver.Acs);
        if not (Validate.is_feasible s) then
          Alcotest.failf "n=%d fallback schedule infeasible" n)
    [ 2; 3; 4 ]

let test_robust_solver_unschedulable () =
  (* Utilization far above 1 at v_max: every stage must fail and the
     pipeline reports Unschedulable. *)
  let ts =
    Task_set.create
      [ Task.create ~name:"t1" ~period:2 ~wcec:30. ~acec:20. ~bcec:10.;
        Task.create ~name:"t2" ~period:4 ~wcec:30. ~acec:20. ~bcec:10. ]
  in
  let plan = Plan.expand ts in
  match Robust_solver.solve ~plan ~power () with
  | Ok _ -> Alcotest.fail "accepted an unschedulable task set"
  | Error Solver.Unschedulable -> ()
  | Error e -> Alcotest.failf "expected Unschedulable, got %a" Solver.pp_error e

let test_robust_solver_budget_expiry_annotated () =
  (* A failing stage whose wall budget is spent must say so in its own
     diagnostic — stage name plus elapsed/budget seconds — so a
     multi-stage report never loses which stage timed out. A zero wall
     budget is deterministically spent by the time the failure is
     recorded. *)
  let plan, _ = preemptive_acs () in
  let config =
    { Robust_solver.default_config with
      acs = { Solver.max_outer = 0; wall_budget = Some 0. } }
  in
  match Robust_solver.solve ~config ~plan ~power () with
  | Error _ -> Alcotest.fail "pipeline must survive the expired stage"
  | Ok (_, d) ->
    Alcotest.(check bool) "wcs chosen" true (d.Robust_solver.chosen = Robust_solver.Wcs);
    let acs_reason =
      match List.assoc_opt Robust_solver.Acs d.Robust_solver.attempts with
      | Some why -> why
      | None -> Alcotest.fail "ACS failure missing from diagnostics"
    in
    Alcotest.(check bool) "diagnostic names the expired stage" true
      (contains ~sub:"[acs wall budget expired" acs_reason);
    Alcotest.(check bool) "and the budget" true
      (contains ~sub:"of 0.000s budget]" acs_reason)

let test_robust_solver_skip_acs () =
  (* The circuit-open route: the chain starts at WCS and the skip is
     recorded so a degraded schedule still says why. *)
  let plan, _ = preemptive_acs () in
  match Robust_solver.solve ~skip_acs:true ~plan ~power () with
  | Error _ -> Alcotest.fail "skip_acs must still solve via WCS"
  | Ok (s, d) ->
    Alcotest.(check bool) "wcs chosen" true (d.Robust_solver.chosen = Robust_solver.Wcs);
    Alcotest.(check bool) "skip recorded in diagnostics" true
      (d.Robust_solver.attempts
      = [ (Robust_solver.Acs, "skipped (circuit open)") ]);
    Alcotest.(check bool) "feasible" true (Validate.is_feasible s)

let test_diagnostics_printer () =
  let d =
    { Robust_solver.attempts = [ (Robust_solver.Acs, "stalled") ];
      chosen = Robust_solver.Wcs; stats = None }
  in
  let s = String.lowercase_ascii (Format.asprintf "%a" Robust_solver.pp_diagnostics d) in
  Alcotest.(check bool) "names the fallback" true (contains ~sub:"wcs" s);
  Alcotest.(check bool) "names the failed stage" true (contains ~sub:"acs" s)

let suite =
  [ ("injector determinism", `Quick, test_injector_deterministic);
    ("zero spec is identity", `Quick, test_injector_zero_is_identity);
    ("overruns scale WCEC", `Quick, test_injector_overruns_exceed_wcec);
    ("spec validation", `Quick, test_injector_validates_spec);
    ("spec validation names each field", `Quick,
     test_injector_validation_names_each_field);
    ("zero spec runner identity", `Quick, test_runner_zero_spec_identity);
    ("containment reduces misses", `Quick, test_containment_fewer_misses);
    ("recoverable overrun escalated", `Quick, test_containment_escalates_recoverable_overrun);
    ("overrun on the deadline tick", `Quick,
     test_containment_overrun_on_deadline_tick);
    ("zero-work instance benign", `Quick, test_containment_zero_work_instance);
    ("campaign determinism", `Quick, test_campaign_deterministic);
    ("campaign arms share draws", `Quick, test_campaign_arms_share_draws);
    ("campaign parallel bit-identical", `Quick, test_campaign_parallel_bit_identical);
    ("runner percentiles ordered", `Quick, test_runner_percentiles_ordered);
    ("robust solver default", `Quick, test_robust_solver_default_uses_acs);
    ("fallback to WCS", `Quick, test_robust_solver_falls_back_to_wcs);
    ("fallback to RM", `Quick, test_robust_solver_falls_back_to_rm);
    ("feasible on seed workloads", `Quick, test_robust_solver_feasible_on_all_seed_workloads);
    ("unschedulable reported", `Quick, test_robust_solver_unschedulable);
    ("budget expiry annotated", `Quick, test_robust_solver_budget_expiry_annotated);
    ("skip_acs records the skip", `Quick, test_robust_solver_skip_acs);
    ("diagnostics printer", `Quick, test_diagnostics_printer) ]
