module Plan = Lepts_preempt.Plan
module Solver = Lepts_core.Solver
module Telemetry = Lepts_obs.Telemetry

type point = {
  ratio : float;
  predicted_energy : float;
  solve_s : float;
  outer_iterations : int;
  inner_iterations : int;
  continued : bool;
}

type t = { points : point list; total_s : float; warm : bool }

let run ?(warm = false) ?jobs ?(mode = Lepts_core.Objective.Average) ~ratios
    ~build ~power () =
  if ratios = [] then invalid_arg "Continuation.run: ratios must be non-empty";
  let t0 = Unix.gettimeofday () in
  let rec go prev acc = function
    | [] -> Ok (List.rev acc)
    | ratio :: rest -> (
      let plan = Plan.expand (build ~ratio) in
      let t1 = Unix.gettimeofday () in
      (* [stats] describes only the returned start; the sink counts
         every descent the solve ran. *)
      let telemetry = Telemetry.solve_sink ~label:"continuation" () in
      let solved =
        match prev with
        | Some p when warm ->
          Solver.solve_warm ?jobs ~telemetry ~mode ~prev:p ~plan ~power ()
        | _ -> Solver.solve ?jobs ~telemetry ~mode ~plan ~power ()
      in
      match solved with
      | Error _ as err -> err
      | Ok (schedule, stats) ->
        let sum f = Telemetry.sum_starts f telemetry in
        let point =
          { ratio; predicted_energy = stats.Solver.objective;
            solve_s = Unix.gettimeofday () -. t1;
            outer_iterations = sum (fun s -> s.Telemetry.outer_rounds);
            inner_iterations = sum (fun s -> s.Telemetry.inner_iterations);
            continued = (warm && prev <> None) }
        in
        go (Some schedule) (point :: acc) rest)
  in
  match go None [] ratios with
  | Error _ as err -> err
  | Ok points -> Ok { points; total_s = Unix.gettimeofday () -. t0; warm }
