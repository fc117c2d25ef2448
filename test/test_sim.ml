open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy
module Sampler = Lepts_sim.Sampler
module Event_sim = Lepts_sim.Event_sim
module Sequence = Reference.Sequence
module Outcome = Lepts_sim.Outcome
module Runner = Lepts_sim.Runner

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let preemptive_pair () =
  let ts =
    Task_set.scale_wcec_to_utilization
      (Task_set.create
         [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
           Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
           Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
      ~power ~target:0.7
  in
  let plan = Plan.expand ts in
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let acs, _ =
    Result.get_ok
      (Solver.solve_acs
         ~warm_starts:[ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
         ~plan ~power ())
  in
  (plan, wcs, acs)

let test_sampler_bounds () =
  let plan, _, _ = preemptive_pair () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:3 in
  for _ = 1 to 50 do
    let totals = Sampler.instance_totals plan ~rng in
    Array.iteri
      (fun i per ->
        let task = Task_set.task plan.Plan.task_set i in
        Array.iter
          (fun w ->
            if w < task.Task.bcec -. 1e-9 || w > task.Task.wcec +. 1e-9 then
              Alcotest.failf "sample %g outside [%g, %g]" w task.Task.bcec task.Task.wcec)
          per)
      totals
  done

let test_sampler_fixed () =
  let plan, _, _ = preemptive_pair () in
  let totals = Sampler.fixed plan ~value:`Wcec in
  Array.iteri
    (fun i per ->
      let task = Task_set.task plan.Plan.task_set i in
      Array.iter (fun w -> Alcotest.(check (float 0.)) "wcec" task.Task.wcec w) per)
    totals

let test_sampler_traversal_order_regression () =
  (* Instance draws must depend only on (base state, flat instance
     index). We reconstruct the totals by walking the plan in the
     reverse order and deriving each instance's stream by key; any
     hidden threading of a shared stream through the traversal would
     break the equality. *)
  let plan, _, _ = preemptive_pair () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:41 in
  let replay = Lepts_prng.Xoshiro256.copy rng in
  let totals = Sampler.instance_totals plan ~rng in
  let base = Lepts_prng.Xoshiro256.split replay in
  let n_tasks = Array.length plan.Plan.instance_subs in
  let offset = Array.make n_tasks 0 in
  for i = 1 to n_tasks - 1 do
    offset.(i) <- offset.(i - 1) + Array.length plan.Plan.instance_subs.(i - 1)
  done;
  for i = n_tasks - 1 downto 0 do
    let task = Task_set.task plan.Plan.task_set i in
    let per = plan.Plan.instance_subs.(i) in
    for j = Array.length per - 1 downto 0 do
      let child = Lepts_prng.Xoshiro256.split_key base ~key:(offset.(i) + j) in
      Alcotest.(check (float 0.)) "permuted traversal identical"
        totals.(i).(j)
        (Sampler.draw Sampler.Truncated_normal child task)
    done
  done

let test_sampler_successive_calls_differ () =
  let plan, _, _ = preemptive_pair () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:43 in
  let a = Sampler.instance_totals plan ~rng in
  let b = Sampler.instance_totals plan ~rng in
  Alcotest.(check bool) "fresh hyper-period each call" true (a <> b)

let test_event_sim_worst_case_no_misses () =
  let plan, wcs, acs = preemptive_pair () in
  let totals = Sampler.fixed plan ~value:`Wcec in
  List.iter
    (fun s ->
      let o = Event_sim.run ~schedule:s ~policy:Policy.Greedy ~totals () in
      Alcotest.(check int) "no misses under WCEC" 0 o.Outcome.deadline_misses)
    [ wcs; acs ]

let test_event_sim_matches_sequence () =
  (* Under budget-enforced RM the event-driven run coincides with the
     closed-form executor on any fixed workloads. *)
  let plan, wcs, acs = preemptive_pair () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:5 in
  List.iter
    (fun s ->
      List.iter
        (fun value ->
          let totals = Sampler.fixed plan ~value in
          let ev = Event_sim.run ~schedule:s ~policy:Policy.Greedy ~totals () in
          let sq = Sequence.run ~schedule:s ~totals in
          Alcotest.(check (float 1e-6)) "energies equal" sq.Outcome.energy
            ev.Outcome.energy;
          Alcotest.(check int) "misses equal" sq.Outcome.deadline_misses
            ev.Outcome.deadline_misses)
        [ `Bcec; `Acec; `Wcec ];
      (* And on sampled workloads. *)
      for _ = 1 to 10 do
        let totals = Sampler.instance_totals plan ~rng in
        let ev = Event_sim.run ~schedule:s ~policy:Policy.Greedy ~totals () in
        let sq = Sequence.run ~schedule:s ~totals in
        Alcotest.(check (float 1e-6)) "sampled energies equal" sq.Outcome.energy
          ev.Outcome.energy
      done)
    [ wcs; acs ]

let test_event_sim_matches_predicted_on_acec () =
  let _, wcs, acs = preemptive_pair () in
  List.iter
    (fun s ->
      let totals = Sampler.fixed s.Static_schedule.plan ~value:`Acec in
      let ev = Event_sim.run ~schedule:s ~policy:Policy.Greedy ~totals () in
      Alcotest.(check (float 1e-6)) "closed form = simulation"
        (Static_schedule.predicted_energy s ~mode:Objective.Average)
        ev.Outcome.energy)
    [ wcs; acs ]

let test_policy_ordering () =
  (* Greedy <= static <= max-speed on any workload draw. *)
  let plan, _, acs = preemptive_pair () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:11 in
  for _ = 1 to 20 do
    let totals = Sampler.instance_totals plan ~rng in
    let energy policy =
      (Event_sim.run ~schedule:acs ~policy ~totals ()).Outcome.energy
    in
    let g = energy Policy.Greedy
    and st = energy Policy.Static_voltage
    and mx = energy Policy.Max_speed in
    Alcotest.(check bool) "greedy <= static" true (g <= st +. 1e-9);
    Alcotest.(check bool) "static <= max-speed" true (st <= mx +. 1e-9)
  done

let test_max_speed_energy_exact () =
  (* At v_max, energy is just c_eff * v_max^2 * total executed cycles. *)
  let plan, _, acs = preemptive_pair () in
  let totals = Sampler.fixed plan ~value:`Wcec in
  let o = Event_sim.run ~schedule:acs ~policy:Policy.Max_speed ~totals () in
  let total_cycles =
    Array.fold_left
      (fun acc per -> Array.fold_left ( +. ) acc per)
      0. totals
  in
  Alcotest.(check (float 1e-6)) "E = w vmax^2" (total_cycles *. 16.) o.Outcome.energy

let test_zero_workload_instances () =
  let plan, _, acs = preemptive_pair () in
  let totals = Array.map (Array.map (fun _ -> 0.)) plan.Plan.instance_subs in
  let totals = Array.map (Array.map float_of_int) (Array.map (Array.map int_of_float) totals) in
  let o = Event_sim.run ~schedule:acs ~policy:Policy.Greedy ~totals () in
  Alcotest.(check (float 0.)) "no energy" 0. o.Outcome.energy;
  Alcotest.(check int) "no misses" 0 o.Outcome.deadline_misses

let test_finish_times_recorded () =
  let plan, _, acs = preemptive_pair () in
  let totals = Sampler.fixed plan ~value:`Acec in
  let o = Event_sim.run ~schedule:acs ~policy:Policy.Greedy ~totals () in
  Array.iteri
    (fun i per ->
      let period = (Task_set.task plan.Plan.task_set i).Task.period in
      Array.iteri
        (fun j f ->
          if Float.is_nan f then Alcotest.fail "missing finish time";
          let release = float_of_int (j * period) in
          let deadline = float_of_int ((j + 1) * period) in
          Alcotest.(check bool) "within window" true (f >= release && f <= deadline))
        per)
    o.Outcome.finish_times

let test_runner_statistics () =
  let _, _, acs = preemptive_pair () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:9 in
  let s = Runner.simulate ~rounds:50 ~schedule:acs ~policy:Policy.Greedy ~rng () in
  Alcotest.(check int) "rounds" 50 s.Runner.rounds;
  Alcotest.(check int) "no misses" 0 s.Runner.deadline_misses;
  Alcotest.(check bool) "min <= mean <= max" true
    (s.Runner.min_energy <= s.Runner.mean_energy
     && s.Runner.mean_energy <= s.Runner.max_energy);
  Alcotest.(check bool) "positive spread" true (s.Runner.stddev_energy > 0.)

let test_runner_deterministic () =
  let _, _, acs = preemptive_pair () in
  let run seed =
    Runner.simulate ~rounds:20 ~schedule:acs ~policy:Policy.Greedy
      ~rng:(Lepts_prng.Xoshiro256.create ~seed) ()
  in
  let a = run 4 and b = run 4 in
  Alcotest.(check (float 0.)) "same seed, same mean" a.Runner.mean_energy
    b.Runner.mean_energy;
  let c = run 5 in
  Alcotest.(check bool) "different seed differs" true
    (Float.abs (a.Runner.mean_energy -. c.Runner.mean_energy) > 1e-12)

let check_summary_equal msg (a : Runner.summary) (b : Runner.summary) =
  Alcotest.(check int) (msg ^ ": rounds") a.Runner.rounds b.Runner.rounds;
  Alcotest.(check (float 0.)) (msg ^ ": mean") a.Runner.mean_energy b.Runner.mean_energy;
  Alcotest.(check (float 0.)) (msg ^ ": stddev") a.Runner.stddev_energy
    b.Runner.stddev_energy;
  Alcotest.(check (float 0.)) (msg ^ ": min") a.Runner.min_energy b.Runner.min_energy;
  Alcotest.(check (float 0.)) (msg ^ ": max") a.Runner.max_energy b.Runner.max_energy;
  Alcotest.(check (float 0.)) (msg ^ ": p95") a.Runner.p95_energy b.Runner.p95_energy;
  Alcotest.(check (float 0.)) (msg ^ ": p99") a.Runner.p99_energy b.Runner.p99_energy;
  Alcotest.(check int) (msg ^ ": misses") a.Runner.deadline_misses
    b.Runner.deadline_misses;
  Alcotest.(check int) (msg ^ ": shed") a.Runner.shed_instances b.Runner.shed_instances

let test_runner_parallel_bit_identical () =
  let _, _, acs = preemptive_pair () in
  let run jobs =
    Runner.simulate ~rounds:40 ~jobs ~schedule:acs ~policy:Policy.Greedy
      ~rng:(Lepts_prng.Xoshiro256.create ~seed:6) ()
  in
  let seq = run 1 in
  List.iter
    (fun jobs -> check_summary_equal (Printf.sprintf "jobs=%d" jobs) seq (run jobs))
    [ 2; 3; 7 ]

let test_runner_pure_in_rng () =
  (* [simulate] must never advance the caller's generator: the same
     generator object used twice yields the same summary. *)
  let _, _, acs = preemptive_pair () in
  let rng = Lepts_prng.Xoshiro256.create ~seed:12 in
  let run () = Runner.simulate ~rounds:15 ~schedule:acs ~policy:Policy.Greedy ~rng () in
  check_summary_equal "same rng twice" (run ()) (run ())

let test_runner_single_round_summary () =
  let _, _, acs = preemptive_pair () in
  let s =
    Runner.simulate ~rounds:1 ~schedule:acs ~policy:Policy.Greedy
      ~rng:(Lepts_prng.Xoshiro256.create ~seed:14) ()
  in
  Alcotest.(check int) "one round" 1 s.Runner.rounds;
  Alcotest.(check bool) "stddev undefined" true (Float.is_nan s.Runner.stddev_energy);
  Alcotest.(check (float 0.)) "min = mean" s.Runner.mean_energy s.Runner.min_energy;
  Alcotest.(check (float 0.)) "max = mean" s.Runner.mean_energy s.Runner.max_energy;
  Alcotest.(check (float 0.)) "p95 = mean" s.Runner.mean_energy s.Runner.p95_energy;
  Alcotest.(check (float 0.)) "p99 = mean" s.Runner.mean_energy s.Runner.p99_energy

let test_runner_stats_reported () =
  let _, _, acs = preemptive_pair () in
  let seen = ref None in
  ignore
    (Runner.simulate ~rounds:20 ~jobs:2 ~on_stats:(fun s -> seen := Some s)
       ~schedule:acs ~policy:Policy.Greedy
       ~rng:(Lepts_prng.Xoshiro256.create ~seed:16) ());
  match !seen with
  | None -> Alcotest.fail "on_stats not called"
  | Some s ->
    Alcotest.(check int) "items = rounds" 20 s.Lepts_par.Pool.items;
    Alcotest.(check int) "jobs" 2 s.Lepts_par.Pool.jobs

let test_runner_invalid_rounds () =
  let _, _, acs = preemptive_pair () in
  Alcotest.check_raises "rounds positive"
    (Invalid_argument "Runner.simulate: rounds must be positive") (fun () ->
      ignore
        (Runner.simulate ~rounds:0 ~schedule:acs ~policy:Policy.Greedy
           ~rng:(Lepts_prng.Xoshiro256.create ~seed:1) ()))

let test_budget_enforcement_prevents_miss () =
  (* The regression that motivated budget-enforced readiness: an ACS
     schedule whose higher-priority task would otherwise run its next
     segment's quota early and push a lower-priority task past its
     worst-case window. Under WCEC workloads there must be no miss. *)
  let ts =
    Task_set.scale_wcec_to_utilization
      (Task_set.create
         [ Task.with_ratio ~name:"t1" ~period:4 ~wcec:4. ~ratio:0.1;
           Task.with_ratio ~name:"t2" ~period:6 ~wcec:5. ~ratio:0.1;
           Task.with_ratio ~name:"t3" ~period:12 ~wcec:8. ~ratio:0.1 ])
      ~power ~target:0.7
  in
  let plan = Plan.expand ts in
  let acs, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  let totals = Sampler.fixed plan ~value:`Wcec in
  let o = Event_sim.run ~schedule:acs ~policy:Policy.Greedy ~totals () in
  Alcotest.(check int) "worst case meets deadlines" 0 o.Outcome.deadline_misses

(* --- dispatcher oracle ----------------------------------------------------- *)

(* [Event_sim] scans each task from its first unfinished instance and
   stops at the release bound; [Reference.Event_sim] folds over every
   instance at every event. They must agree bit for bit on random plans
   of 2-10 tasks, with and without faults, containment and transition
   overhead. Cheap worst-case schedules suffice: the dispatch order is
   what is under test, not the energy. *)

module Fault_injector = Lepts_robust.Fault_injector
module Containment = Lepts_robust.Containment
module Trace = Lepts_sim.Trace

let check_bits msg (expect : float) (got : float) =
  if not (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float got)) then
    Alcotest.failf "%s: %h <> %h" msg expect got

let check_outcome_bits msg (e : Outcome.t) (g : Outcome.t) =
  check_bits (msg ^ " energy") e.Outcome.energy g.Outcome.energy;
  Alcotest.(check int) (msg ^ " misses") e.Outcome.deadline_misses g.Outcome.deadline_misses;
  Alcotest.(check int) (msg ^ " shed") e.Outcome.shed_instances g.Outcome.shed_instances;
  Array.iteri
    (fun i per ->
      Array.iteri
        (fun j f ->
          check_bits (Printf.sprintf "%s finish.(%d).(%d)" msg i j) f
            g.Outcome.finish_times.(i).(j))
        per)
    e.Outcome.finish_times;
  Array.iteri
    (fun i c -> check_bits (Printf.sprintf "%s consumed.(%d)" msg i) c g.Outcome.consumed.(i))
    e.Outcome.consumed

let span_key (s : Trace.span) =
  Printf.sprintf "%d.%d %h-%h @%h" s.Trace.task s.Trace.instance s.Trace.from_time
    s.Trace.to_time s.Trace.voltage

let check_trace_bits msg (e : Trace.t) (g : Trace.t) =
  check_bits (msg ^ " horizon") e.Trace.horizon g.Trace.horizon;
  Alcotest.(check (list string)) (msg ^ " spans")
    (List.map span_key e.Trace.spans) (List.map span_key g.Trace.spans)

let oracle_plans () =
  let rng = Lepts_prng.Xoshiro256.create ~seed:2026 in
  List.concat_map
    (fun n_tasks ->
      List.filter_map
        (fun ratio ->
          let config =
            { (Lepts_workloads.Random_gen.default_config ~n_tasks ~ratio) with
              Lepts_workloads.Random_gen.max_sub_instances = 300 }
          in
          match Lepts_workloads.Random_gen.generate config ~power ~rng with
          | Error _ -> None
          | Ok ts -> Some (Plan.expand ts))
        [ 0.1; 0.5 ])
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* The greedy start (worst-case RM at v_max) and its ALAP push-right,
   which stretches windows so that lower voltages and preemptions
   dominate. *)
let oracle_schedules plan =
  let e0, q0 = Result.get_ok (Solver.initial_point ~plan ~power) in
  let t_max = Model.cycle_time power ~v:power.Model.v_max in
  let alap = Reference.alap_end_times plan ~t_max ~e:e0 ~q:q0 in
  [ Static_schedule.create ~plan ~power ~end_times:e0 ~quotas:q0;
    Static_schedule.create ~plan ~power ~end_times:alap ~quotas:q0 ]

let oracle_spec =
  { Fault_injector.seed = 17; overrun_prob = 0.15; overrun_factor = 1.6;
    jitter_prob = 0.3; jitter_frac = 0.4; denial_prob = 0.25 }

(* One dispatcher run with its own fault scenario and containment hook
   (both are stateful, and every run must see the same dispatches):
   the outcome, the trace if [simulate] records one, every denial query
   with its answer, and the fault and containment counters. *)
let oracle_arm ~plan ~round ~totals ~faulty ~contained simulate =
  let fault_counters = Fault_injector.fresh_counters () in
  let queries = ref [] in
  let scenario =
    if not faulty then None
    else
      let sc =
        Fault_injector.perturb oracle_spec ~counters:fault_counters ~round plan
          ~totals
      in
      let deny ~task ~instance ~sub ~now ~requested =
        let denied =
          sc.Fault_injector.faults.Event_sim.deny_transition ~task ~instance ~sub
            ~now ~requested
        in
        queries :=
          Printf.sprintf "%d.%d.%d %h %h %b" task instance sub now requested denied
          :: !queries;
        denied
      in
      Some
        { sc with
          Fault_injector.faults =
            { sc.Fault_injector.faults with Event_sim.deny_transition = deny } }
  in
  let counters = Containment.fresh_counters () in
  let control =
    if contained then Some (Containment.control ~power ~counters ()) else None
  in
  let outcome, trace =
    match scenario with
    | Some sc ->
      simulate ~faults:(Some sc.Fault_injector.faults) ~control
        ~totals:sc.Fault_injector.totals
    | None -> simulate ~faults:None ~control ~totals
  in
  ( outcome, trace, List.rev !queries,
    [ fault_counters.Fault_injector.overruns; fault_counters.Fault_injector.jitters;
      fault_counters.Fault_injector.denials;
      counters.Containment.escalated_dispatches;
      counters.Containment.escalated_instances;
      counters.Containment.shed_instances ] )

let test_dispatcher_matches_reference () =
  let policies = Array.of_list Policy.all in
  let setups =
    [ ("fault-free", false, false, None);
      ("faults", true, false, None);
      ("containment", true, true, None);
      ("transition", false, false,
       Some { Event_sim.time_per_volt = 0.05; energy_per_volt = 0.1 }) ]
  in
  let checked = ref 0 in
  List.iteri
    (fun p plan ->
      List.iteri
        (fun s schedule ->
          let policy = policies.((p + s) mod Array.length policies) in
          let rng = Lepts_prng.Xoshiro256.create ~seed:(100 + p) in
          for round = 0 to 2 do
            let totals = Sampler.instance_totals plan ~rng in
            List.iter
              (fun (setup, faulty, contained, transition) ->
                let msg =
                  Printf.sprintf "plan %d (%d subs) schedule %d round %d %s" p
                    (Plan.size plan) s round setup
                in
                let arm = oracle_arm ~plan ~round ~totals ~faulty ~contained in
                let expect, expect_trace, expect_queries, expect_counts =
                  arm (fun ~faults ~control ~totals ->
                      let o, t =
                        Reference.Event_sim.run_traced ?transition ?faults ?control
                          ~schedule ~policy ~totals ()
                      in
                      (o, Some t))
                in
                let check name (got, got_trace, queries, counts) =
                  let msg = msg ^ " " ^ name in
                  check_outcome_bits msg expect got;
                  Option.iter
                    (check_trace_bits msg (Option.get expect_trace))
                    got_trace;
                  Alcotest.(check (list string)) (msg ^ " denial queries")
                    expect_queries queries;
                  Alcotest.(check (list int)) (msg ^ " counters") expect_counts
                    counts
                in
                check "run"
                  (arm (fun ~faults ~control ~totals ->
                       ( Event_sim.run ?transition ?faults ?control ~schedule ~policy
                           ~totals (),
                         None )));
                check "run_traced"
                  (arm (fun ~faults ~control ~totals ->
                       let o, t =
                         Event_sim.run_traced ?transition ?faults ?control ~schedule
                           ~policy ~totals ()
                       in
                       (o, Some t)));
                incr checked)
              setups
          done)
        (oracle_schedules plan))
    (oracle_plans ());
  Alcotest.(check bool) "oracle exercised" true (!checked > 100)

let test_rejects_bad_release_offsets () =
  let plan, _, acs = preemptive_pair () in
  let totals = Sampler.fixed plan ~value:`Wcec in
  List.iter
    (fun bad ->
      let faults =
        { Event_sim.release_offsets =
            Array.map (Array.mapi (fun j _ -> if j = 1 then bad else 0.)) totals;
          enforce_budget = true;
          deny_transition = (fun ~task:_ ~instance:_ ~sub:_ ~now:_ ~requested:_ -> false) }
      in
      match Event_sim.run ~faults ~schedule:acs ~policy:Policy.Greedy ~totals () with
      | _ -> Alcotest.failf "offset %g accepted" bad
      | exception Invalid_argument msg ->
        Alcotest.(check string) (Printf.sprintf "offset %g" bad)
          (Printf.sprintf
             "Event_sim.run: release_offsets.(0).(1) = %g must be finite and \
              non-negative"
             bad)
          msg)
    [ -0.5; Float.nan; Float.infinity; Float.neg_infinity ]

let suite =
  [ ("sampler respects bounds", `Quick, test_sampler_bounds);
    ("sampler fixed values", `Quick, test_sampler_fixed);
    ("sampler traversal-order regression", `Quick, test_sampler_traversal_order_regression);
    ("sampler successive calls differ", `Quick, test_sampler_successive_calls_differ);
    ("worst case meets deadlines", `Quick, test_event_sim_worst_case_no_misses);
    ("event sim = sequence executor", `Quick, test_event_sim_matches_sequence);
    ("event sim = closed form on ACEC", `Quick, test_event_sim_matches_predicted_on_acec);
    ("policy energy ordering", `Quick, test_policy_ordering);
    ("max-speed energy exact", `Quick, test_max_speed_energy_exact);
    ("zero workloads", `Quick, test_zero_workload_instances);
    ("finish times recorded", `Quick, test_finish_times_recorded);
    ("runner statistics", `Quick, test_runner_statistics);
    ("runner determinism", `Quick, test_runner_deterministic);
    ("runner parallel bit-identical", `Quick, test_runner_parallel_bit_identical);
    ("runner pure in rng", `Quick, test_runner_pure_in_rng);
    ("runner single-round summary", `Quick, test_runner_single_round_summary);
    ("runner pool stats reported", `Quick, test_runner_stats_reported);
    ("runner invalid rounds", `Quick, test_runner_invalid_rounds);
    ("budget enforcement regression", `Quick, test_budget_enforcement_prevents_miss);
    ("dispatcher = reference bit for bit", `Quick, test_dispatcher_matches_reference);
    ("rejects bad release offsets", `Quick, test_rejects_bad_release_offsets) ]
