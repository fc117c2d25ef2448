module Runner = Lepts_sim.Runner
module Sampler = Lepts_sim.Sampler
module Event_sim = Lepts_sim.Event_sim
module Outcome = Lepts_sim.Outcome
module Estimator = Lepts_sim.Estimator
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Plan = Lepts_preempt.Plan
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Pool = Lepts_par.Pool
module Rng = Lepts_prng.Xoshiro256
module Table = Lepts_util.Table
module Metrics = Lepts_obs.Metrics
module Span = Lepts_obs.Span

(* Estimator-loop instrumentation (DESIGN.md §9, doc/ADAPTATION.md).
   Counts and the latency histogram are bumped on the caller's domain
   only — observations are folded and re-solves run between epochs —
   so no per-round hot-path cost is added. *)
let m_observations =
  Metrics.counter ~help:"rounds folded into the ACEC estimator"
    Metrics.default "lepts_adapt_observations_total"

let m_checks =
  Metrics.counter ~help:"estimator drift checks (epoch boundaries)"
    Metrics.default "lepts_adapt_drift_checks_total"

let m_drift_events =
  Metrics.counter ~help:"drift checks that exceeded the re-solve threshold"
    Metrics.default "lepts_adapt_drift_events_total"

let m_resolves =
  Metrics.counter ~help:"incremental re-solves committed by the adaptive loop"
    Metrics.default "lepts_adapt_resolves_total"

let m_resolve_failures =
  Metrics.counter ~help:"incremental re-solves that returned an error"
    Metrics.default "lepts_adapt_resolve_failures_total"

let m_exhausted =
  Metrics.counter
    ~help:"drift events refused because the re-solve budget was spent"
    Metrics.default "lepts_adapt_budget_exhausted_total"

let m_resolve_seconds =
  Metrics.histogram ~help:"wall-clock seconds per committed incremental re-solve"
    ~buckets:[| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.; 3. |]
    Metrics.default "lepts_adapt_resolve_seconds"

let m_estimate_ratio =
  Metrics.histogram
    ~help:"ACEC estimate / offline ACEC, per task, at each drift check"
    ~buckets:[| 0.25; 0.5; 0.75; 0.9; 1.0; 1.1; 1.25; 1.5; 2.0; 4.0 |]
    Metrics.default "lepts_adapt_estimate_ratio"

type config = {
  estimator : Estimator.config;
  resolve_every : int;
}

let default_config =
  { estimator = Estimator.default_config;
    resolve_every = 25 }

type counters = {
  drift_checks : int;
  drift_events : int;
  resolves : int;
  resolve_failures : int;
  exhausted : int;
}

type point = {
  label : string;
  static_summary : Runner.summary;
  adaptive_summary : Runner.summary;
  counters : counters;
  estimates : float array;
  initial : float array;
  final_drift : float;
  improvement_pct : float;
}

let run ?(rounds = 500) ?(jobs = 1) ?dist ?(config = default_config)
    ?(label = "truncated normal") ?on_stats ~spec
    ~(schedule : Static_schedule.t) ~policy ~seed () =
  if rounds <= 0 then invalid_arg "Adaptive.run: rounds must be positive";
  if config.resolve_every < 1 then
    invalid_arg "Adaptive.run: resolve_every must be >= 1";
  Estimator.validate config.estimator;
  Fault_injector.validate spec;
  let plan = schedule.Static_schedule.plan in
  let power = schedule.Static_schedule.power in
  let base = Rng.create ~seed in
  let stats_for tag = Option.map (fun f s -> f ~label:(tag ^ ":" ^ label) s) on_stats in
  (* Both arms derive round [r]'s workload draw and fault scenario from
     the same per-round generator and the {e original} plan, so they
     face identical actual workloads — the adaptive arm differs only in
     the schedule it responds with. *)
  let one_round ~sched r =
    let rng = Runner.round_rng ~rng:base ~round:r in
    let totals = Sampler.instance_totals ?dist plan ~rng in
    let s = Fault_injector.perturb spec ~round:r plan ~totals in
    let outcome =
      Event_sim.run ~faults:s.Fault_injector.faults ~schedule:sched ~policy
        ~totals:s.Fault_injector.totals ()
    in
    ( { Runner.energy = outcome.Outcome.energy;
        misses = outcome.Outcome.deadline_misses;
        shed = outcome.Outcome.shed_instances },
      outcome.Outcome.consumed )
  in
  let static_summary =
    Span.with_ ~name:("arm:static:" ^ label) @@ fun () ->
    let results, stats = Pool.run ~jobs ~n:rounds ~f:(fun r -> fst (one_round ~sched:schedule r)) in
    Option.iter (fun f -> f stats) (stats_for "static");
    let summary = Runner.summarize results in
    Runner.record_metrics summary;
    summary
  in
  let n_tasks = Task_set.size plan.Plan.task_set in
  let initial =
    Array.init n_tasks (fun i -> (Task_set.task plan.Plan.task_set i).Task.acec)
  in
  let adaptive_summary, counters, est_final =
    Span.with_ ~name:("arm:adaptive:" ^ label) @@ fun () ->
    let current = ref schedule in
    let est = ref (Estimator.create config.estimator ~plan) in
    let checks = ref 0 and events = ref 0 and resolves = ref 0 in
    let failures = ref 0 and exhausted = ref 0 in
    let results = Array.make rounds { Runner.energy = 0.; misses = 0; shed = 0 } in
    let start = ref 0 in
    while !start < rounds do
      let chunk = min config.resolve_every (rounds - !start) in
      let sched = !current in
      let first = !start in
      let batch, stats =
        Pool.run ~jobs ~n:chunk ~f:(fun i -> one_round ~sched (first + i))
      in
      Option.iter (fun f -> f stats) (stats_for "adaptive");
      (* Observations fold strictly in round order — with the epoch's
         schedule fixed, each round's (result, consumed) pair is a pure
         function of its index, so the fold (and hence every re-solve
         decision) is identical whichever domains computed the rounds.
         Each round is folded exactly once, plan swap or not. *)
      Array.iteri
        (fun i (r, consumed) ->
          results.(first + i) <- r;
          est := Estimator.observe !est ~consumed)
        batch;
      Metrics.incr ~by:chunk m_observations;
      start := !start + chunk;
      if !start < rounds then begin
        incr checks;
        Metrics.incr m_checks;
        Array.iteri
          (fun i e -> Metrics.observe m_estimate_ratio (e /. Float.max initial.(i) 1e-12))
          (Estimator.estimates !est);
        let est', decision = Estimator.decide !est in
        est := est';
        match decision with
        | Estimator.Keep -> ()
        | Estimator.Exhausted ->
          incr events; incr exhausted;
          Metrics.incr m_drift_events; Metrics.incr m_exhausted
        | Estimator.Resolve acecs -> (
          incr events;
          Metrics.incr m_drift_events;
          let plan' = Estimator.plan_with_acecs plan ~acecs in
          let t0 = Unix.gettimeofday () in
          (* Structurally identical plan: this takes the solve_warm
             continuation — a single descent, jobs-independent. *)
          match
            Solver.solve_warm ~jobs:1
              ~mode:Lepts_core.Objective.Average ~prev:!current ~plan:plan'
              ~power ()
          with
          | Ok (sched', _) ->
            Metrics.observe m_resolve_seconds (Unix.gettimeofday () -. t0);
            current := sched';
            est := Estimator.committed !est ~acecs;
            incr resolves;
            Metrics.incr m_resolves
          | Error _ ->
            (* Keep the last good schedule; the estimator state is
               untouched, so the next check may retry. *)
            incr failures;
            Metrics.incr m_resolve_failures)
      end
    done;
    let summary = Runner.summarize results in
    Runner.record_metrics summary;
    ( summary,
      { drift_checks = !checks; drift_events = !events; resolves = !resolves;
        resolve_failures = !failures; exhausted = !exhausted },
      !est )
  in
  let improvement_pct =
    if static_summary.Runner.mean_energy = 0. then 0.
    else
      (static_summary.Runner.mean_energy -. adaptive_summary.Runner.mean_energy)
      /. static_summary.Runner.mean_energy *. 100.
  in
  { label; static_summary; adaptive_summary; counters = counters;
    estimates = Estimator.estimates est_final; initial;
    final_drift = Estimator.drift est_final; improvement_pct }

let sweep ?rounds ?jobs ?config ?on_stats ~spec ~schedule ~policy ~seed () =
  List.map
    (fun (label, dist) ->
      run ?rounds ?jobs ~dist ?config ~label ?on_stats ~spec ~schedule ~policy
        ~seed ())
    [ ("truncated normal", Sampler.Truncated_normal);
      ("uniform", Sampler.Uniform);
      ("bimodal 0.1", Sampler.Bimodal { p_large = 0.1 }) ]

let to_table points =
  let t =
    Table.create
      ~header:
        [ "distribution"; "static mean"; "adaptive mean"; "improvement";
          "static p95"; "adaptive p95"; "misses s/a"; "resolves"; "drifts";
          "exhausted" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [ p.label;
          Table.float_cell p.static_summary.Runner.mean_energy;
          Table.float_cell p.adaptive_summary.Runner.mean_energy;
          Printf.sprintf "%.1f %%" p.improvement_pct;
          Table.float_cell p.static_summary.Runner.p95_energy;
          Table.float_cell p.adaptive_summary.Runner.p95_energy;
          Printf.sprintf "%d/%d" p.static_summary.Runner.deadline_misses
            p.adaptive_summary.Runner.deadline_misses;
          string_of_int p.counters.resolves;
          string_of_int p.counters.drift_events;
          string_of_int p.counters.exhausted ])
    points;
  t
