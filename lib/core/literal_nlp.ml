module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Vec = Lepts_linalg.Vec
module Nlp = Lepts_optim.Nlp
module Al = Lepts_optim.Augmented_lagrangian
module Projection = Lepts_optim.Projection
module Numdiff = Lepts_optim.Numdiff

let make_constraints (plan : Plan.t) ~power =
  let m = Array.length plan.Plan.order in
  let t_max = Model.cycle_time power ~v:power.Model.v_max in
  let constraints = ref [] in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    constraints :=
      Nlp.linear_constraint
        ~name:(Printf.sprintf "fit-release:%s" (Sub.label sub))
        ~coeffs:[ (m + k, t_max); (k, -1.) ]
        ~bound:(-.sub.Sub.release)
      :: !constraints;
    if k > 0 then
      constraints :=
        Nlp.linear_constraint
          ~name:(Printf.sprintf "fit-chain:%s" (Sub.label sub))
          ~coeffs:[ (m + k, t_max); (k, -1.); (k - 1, 1.) ]
          ~bound:0.
        :: !constraints
  done;
  List.rev !constraints

(* Clamp the end-times into their windows and project each instance's
   quota block onto its [sum = WCEC] simplex, through the workspace's
   flat block index (the quotas are the second half of [x]). *)
let make_projection (ws : Workspace.t) =
  let plan = ws.Workspace.plan in
  let m = ws.Workspace.m in
  let ts = plan.Plan.task_set in
  let off = ws.Workspace.blk_off and idx = ws.Workspace.blk_idx in
  let scratch = ws.Workspace.blk_scratch in
  let totals =
    Array.init ws.Workspace.n_blocks (fun b ->
        (Task_set.task ts ws.Workspace.blk_task.(b)).Task.wcec)
  in
  fun x ->
    let out = Vec.copy x in
    Array.iter
      (fun (sub : Sub.t) ->
        out.(sub.Sub.index) <-
          Lepts_util.Num_ext.clamp ~lo:sub.Sub.release ~hi:sub.Sub.boundary
            x.(sub.Sub.index))
      plan.Plan.order;
    Projection.simplex_blocks_ip ~off ~idx ~totals ~base:m ~scratch out;
    out

let solve ~mode ~(plan : Plan.t) ~power () =
  match Solver.initial_point ~plan ~power with
  | Error _ as err -> err
  | Ok (e0, q0) ->
    let m = Array.length plan.Plan.order in
    let ws = Workspace.create plan in
    let totals = Objective.instance_totals mode plan in
    let unpack x = (Array.sub x 0 m, Array.sub x m m) in
    let objective x =
      let e, w_hat = unpack x in
      Objective.eval_ws ws ~power ~totals ~e ~w_hat
    in
    let gradient =
      match power.Model.delay with
      | Model.Ideal _ ->
        let de = Array.make m 0. and dq = Array.make m 0. in
        fun x ->
          let e, w_hat = unpack x in
          let (_ : float) =
            Objective.eval_with_gradient_ws ws ~power ~totals ~e ~w_hat ~de ~dwq:dq
          in
          Array.append de dq
      | Model.Alpha _ -> fun x -> Numdiff.gradient ~f:objective x
    in
    let problem =
      { Nlp.dim = 2 * m; objective; gradient;
        inequalities = make_constraints plan ~power;
        project = make_projection ws }
    in
    let report =
      Al.solve ~max_outer:40 ~max_inner:2000 problem ~x0:(Array.append e0 q0)
    in
    let e, q = unpack report.Al.x in
    (match Solver.repair ~plan ~power ~e ~q with
    | Error _ as err -> err
    | Ok (e, q) ->
      let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
      Ok
        ( schedule,
          { Solver.objective = Objective.eval_ws ws ~power ~totals ~e ~w_hat:q;
            max_violation = report.Al.max_violation;
            outer_iterations = report.Al.outer_iterations;
            inner_iterations = report.Al.inner_iterations } ))
