module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Objective = Lepts_core.Objective

type report = {
  wcs_end_times : float array;
  acs_end_times : float array;
  wcs_avg_energy : float;
  acs_avg_energy : float;
  wcs_worst_energy : float;
  acs_worst_energy : float;
  improvement_pct : float;
  worst_penalty_pct : float;
  acs_worst_voltages : float array;
}

let task_set () =
  Task_set.create
    [ Task.create ~name:"task1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
      Task.create ~name:"task2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
      Task.create ~name:"task3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ]

let power () = Model.ideal ~v_min:1. ~v_max:4. ~c0:1. ~c_eff:1. ()

let run () =
  let power = power () in
  let plan = Plan.expand (task_set ()) in
  match Solver.solve_wcs ~plan ~power () with
  | Error _ as err -> err
  | Ok (wcs, _) -> (
    let warm = [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ] in
    match Solver.solve_acs ~warm_starts:warm ~plan ~power () with
    | Error _ as err -> err
    | Ok (acs, _) ->
      let avg s = Static_schedule.predicted_energy s ~mode:Objective.Average in
      let worst s = Static_schedule.predicted_energy s ~mode:Objective.Worst in
      let wcs_avg = avg wcs and acs_avg = avg acs in
      let wcs_worst = worst wcs and acs_worst = worst acs in
      Ok
        { wcs_end_times = Array.copy wcs.Static_schedule.end_times;
          acs_end_times = Array.copy acs.Static_schedule.end_times;
          wcs_avg_energy = wcs_avg;
          acs_avg_energy = acs_avg;
          wcs_worst_energy = wcs_worst;
          acs_worst_energy = acs_worst;
          improvement_pct = 100. *. (wcs_avg -. acs_avg) /. wcs_avg;
          worst_penalty_pct = 100. *. (acs_worst -. wcs_worst) /. wcs_worst;
          acs_worst_voltages = Static_schedule.worst_case_voltages acs })

let to_table r =
  let table =
    Lepts_util.Table.create ~header:[ "quantity"; "WCS"; "ACS"; "paper" ]
  in
  let row name wcs acs paper = Lepts_util.Table.add_row table [ name; wcs; acs; paper ] in
  let ends e =
    String.concat "/" (Array.to_list (Array.map (Printf.sprintf "%.2f") e))
  in
  row "end-times (ms)" (ends r.wcs_end_times) (ends r.acs_end_times)
    "6.7/13.3/20 vs 10/15/20";
  row "avg-case energy" (Printf.sprintf "%.1f" r.wcs_avg_energy)
    (Printf.sprintf "%.1f" r.acs_avg_energy) "ACS ~24% lower";
  row "worst-case energy" (Printf.sprintf "%.1f" r.wcs_worst_energy)
    (Printf.sprintf "%.1f" r.acs_worst_energy) "ACS ~33% higher";
  row "improvement (avg)" "-" (Printf.sprintf "%.1f %%" r.improvement_pct) "24 %";
  row "penalty (worst)" "-" (Printf.sprintf "%.1f %%" r.worst_penalty_pct) "33 %";
  row "ACS worst voltages (V)" "-" (ends r.acs_worst_voltages) "2/4/4";
  table
