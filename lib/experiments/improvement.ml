module Plan = Lepts_preempt.Plan
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Runner = Lepts_sim.Runner
module Policy = Lepts_dvs.Policy
module Rng = Lepts_prng.Xoshiro256

type t = {
  wcs_energy : float;
  acs_energy : float;
  improvement_pct : float;
  wcs_misses : int;
  acs_misses : int;
  sub_instances : int;
}

(* On small plans the paper-literal NLP formulation is cheap and
   occasionally escapes local minima the slack formulation falls into
   (and vice versa); take the better of the two by predicted energy. *)
let refine_with_literal ~mode ~plan ~power (best : Lepts_core.Static_schedule.t) =
  if Plan.size plan > 120 then best
  else
    match Lepts_core.Literal_nlp.solve ~mode ~plan ~power () with
    | Error _ -> best
    | Ok (candidate, _) ->
      if
        Lepts_core.Static_schedule.predicted_energy candidate ~mode
        < Lepts_core.Static_schedule.predicted_energy best ~mode
        && Lepts_core.Validate.is_feasible candidate
      then candidate
      else best

let measure ?(rounds = 1000) ?(jobs = 1) ?telemetry ?(telemetry_tag = "")
    ~task_set ~power ~sim_seed () =
  if rounds <= 0 then invalid_arg "Improvement.measure: rounds must be positive";
  (* One convergence sink per NLP this measurement runs, labelled by
     the caller's tag so a sweep's solves stay distinguishable. *)
  let sink kind =
    match telemetry with
    | None -> None
    | Some collector ->
      Lepts_obs.Telemetry.register collector
        ~label:(if telemetry_tag = "" then kind else kind ^ ":" ^ telemetry_tag)
  in
  let plan = Plan.expand task_set in
  match Solver.solve_wcs ?telemetry:(sink "wcs") ~jobs ~plan ~power () with
  | Error _ as err -> err
  | Ok (wcs, _) -> (
    let wcs = refine_with_literal ~mode:Lepts_core.Objective.Worst ~plan ~power wcs in
    let warm =
      [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
    in
    match
      Solver.solve_acs ?telemetry:(sink "acs") ~jobs ~warm_starts:warm ~plan
        ~power ()
    with
    | Error _ as err -> err
    | Ok (acs, _) ->
      let acs =
        refine_with_literal ~mode:Lepts_core.Objective.Average ~plan ~power acs
      in
      (* Paired comparison: both schedules see the same workload draws. *)
      let simulate schedule =
        Runner.simulate ~rounds ~jobs ~schedule ~policy:Policy.Greedy
          ~rng:(Rng.create ~seed:sim_seed) ()
      in
      let sw = simulate wcs in
      let sa = simulate acs in
      Ok
        { wcs_energy = sw.Runner.mean_energy;
          acs_energy = sa.Runner.mean_energy;
          improvement_pct =
            100. *. (sw.Runner.mean_energy -. sa.Runner.mean_energy)
            /. sw.Runner.mean_energy;
          wcs_misses = sw.Runner.deadline_misses;
          acs_misses = sa.Runner.deadline_misses;
          sub_instances = Plan.size plan })

let pp ppf r =
  Format.fprintf ppf "wcs=%.4g acs=%.4g improvement=%.1f%% misses=%d/%d subs=%d"
    r.wcs_energy r.acs_energy r.improvement_pct r.wcs_misses r.acs_misses
    r.sub_instances
