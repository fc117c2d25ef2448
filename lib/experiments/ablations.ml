module Plan = Lepts_preempt.Plan
module Solver = Lepts_core.Solver
module Literal_nlp = Lepts_core.Literal_nlp
module Static_schedule = Lepts_core.Static_schedule
module Objective = Lepts_core.Objective
module Yds = Lepts_core.Yds
module Policy = Lepts_dvs.Policy
module Runner = Lepts_sim.Runner
module Rng = Lepts_prng.Xoshiro256
module Table = Lepts_util.Table

let formulations ?(jobs = 1) ~task_set ~power () =
  let plan = Plan.expand task_set in
  match Solver.solve_acs ~jobs ~plan ~power () with
  | Error _ as err -> err
  | Ok (_, slack_stats) -> (
    (* Solve times go to the span profile ([lepts profile ablations]
       shows [solve:acs] and [solve:literal] on stderr), not into the
       table: stdout stays byte-identical across runs and [-j]. *)
    match
      Lepts_obs.Span.with_ ~name:"solve:literal" (fun () ->
          Literal_nlp.solve ~mode:Objective.Average ~plan ~power ())
    with
    | Error _ as err -> err
    | Ok (_, literal_stats) ->
      let table =
        Table.create ~header:[ "formulation"; "avg energy"; "violation" ]
      in
      Table.add_row table
        [ "slack (production)";
          Table.float_cell slack_stats.Solver.objective;
          Printf.sprintf "%.1e" slack_stats.Solver.max_violation ];
      Table.add_row table
        [ "literal (paper eqns)";
          Table.float_cell literal_stats.Solver.objective;
          Printf.sprintf "%.1e" literal_stats.Solver.max_violation ];
      Ok table)

let simulate ?(jobs = 1) ~rounds ~schedule ~policy ~seed () =
  Runner.simulate ~rounds ~jobs ~schedule ~policy ~rng:(Rng.create ~seed) ()

let objectives ?(rounds = 500) ?(jobs = 1) ~task_set ~power ~seed () =
  let plan = Plan.expand task_set in
  match Solver.solve_wcs ~jobs ~plan ~power () with
  | Error _ as err -> err
  | Ok (wcs, _) -> (
    let warm = [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ] in
    match Solver.solve_acs ~jobs ~warm_starts:warm ~plan ~power () with
    | Error _ as err -> err
    | Ok (acs, _) -> (
      match
        Solver.solve_stochastic ~jobs ~warm_starts:warm ~scenarios:12 ~seed ~plan
          ~power ()
      with
      | Error _ as err -> err
      | Ok (stochastic, _) ->
        let table =
          Table.create ~header:[ "objective"; "sim mean energy"; "misses" ]
        in
        List.iter
          (fun (name, schedule) ->
            let s =
              simulate ~jobs ~rounds ~schedule ~policy:Policy.Greedy ~seed:(seed + 1) ()
            in
            Table.add_row table
              [ name; Table.float_cell s.Runner.mean_energy;
                string_of_int s.Runner.deadline_misses ])
          [ ("WCS (worst-case point)", wcs); ("ACS (ACEC point)", acs);
            ("stochastic (12 scenarios)", stochastic) ];
        Ok table))

let quantization ?(rounds = 500) ?(steps = [ 4; 8; 16 ]) ?(jobs = 1) ~task_set
    ~power ~seed () =
  let plan = Plan.expand task_set in
  match Solver.solve_acs ~jobs ~plan ~power () with
  | Error _ as err -> err
  | Ok (acs, _) ->
    let table = Table.create ~header:[ "voltage levels"; "sim mean energy"; "overhead" ] in
    let continuous = simulate ~jobs ~rounds ~schedule:acs ~policy:Policy.Greedy ~seed () in
    Table.add_row table
      [ "continuous"; Table.float_cell continuous.Runner.mean_energy; "-" ];
    List.iter
      (fun n ->
        let levels =
          Lepts_power.Levels.of_range ~v_min:power.Lepts_power.Model.v_min
            ~v_max:power.Lepts_power.Model.v_max ~steps:n
        in
        let s =
          simulate ~jobs ~rounds ~schedule:acs ~policy:(Policy.Greedy_quantized levels)
            ~seed ()
        in
        Table.add_row table
          [ string_of_int n;
            Table.float_cell s.Runner.mean_energy;
            Table.percent_cell
              (100. *. (s.Runner.mean_energy -. continuous.Runner.mean_energy)
               /. continuous.Runner.mean_energy) ])
      steps;
    Ok table

let structures ?(jobs = 1) ~task_set ~power () =
  let preemptive = Plan.expand task_set in
  match Solver.solve_acs ~jobs ~plan:preemptive ~power () with
  | Error _ as err -> err
  | Ok (p_acs, p_stats) ->
    let table =
      Table.create ~header:[ "structure"; "sub-instances"; "avg energy" ]
    in
    Table.add_row table
      [ "preemptive (RM segments)";
        string_of_int (Plan.size preemptive);
        Table.float_cell p_stats.Solver.objective ];
    (match
       Solver.solve_acs ~jobs ~plan:(Plan.expand_nonpreemptive task_set) ~power ()
     with
    | Error _ ->
      Table.add_row table [ "non-preemptive"; "-"; "unschedulable" ]
    | Ok (_, np_stats) ->
      Table.add_row table
        [ "non-preemptive";
          string_of_int (Plan.size (Plan.expand_nonpreemptive task_set));
          Table.float_cell np_stats.Solver.objective ]);
    Table.add_row table
      [ "YDS bound (EDF, worst-case)"; "-";
        Table.float_cell (Yds.lower_bound ~power task_set) ];
    ignore p_acs;
    Ok table
