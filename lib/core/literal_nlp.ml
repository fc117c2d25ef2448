module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Pg = Lepts_optim.Projected_gradient
module Projection = Lepts_optim.Projection

let log_src = Logs.Src.create "lepts.core.literal_nlp" ~doc:"paper-literal NLP"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Clamp the end-times into their windows and project each instance's
   quota block onto its [sum = WCEC] simplex, in place, through the
   workspace's flat block index (the quotas are the second half of
   [x]). *)
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
    Array.iter
      (fun (sub : Sub.t) ->
        x.(sub.Sub.index) <-
          Lepts_util.Num_ext.clamp ~lo:sub.Sub.release ~hi:sub.Sub.boundary
            x.(sub.Sub.index))
      plan.Plan.order;
    Projection.simplex_blocks_ip ~off ~idx ~totals ~base:m ~scratch x

let max_outer = 40
let max_inner = 2000
let feas_tol = 1e-7

(* Augmented-Lagrangian rounds in Rockafellar form,
   [f(x) + 1/(2 mu) sum_i (max(0, lambda_i + mu g_i(x))^2 - lambda_i^2)],
   each minimised over the box and simplexes by projected gradient from
   the previous round's iterate (projected first, as is [x0] itself);
   then [lambda_i <- max(0, lambda_i + mu g_i)], and [mu], starting at
   10, grows 5x whenever the violation fails to halve. Stops once the
   violation is at most [feas_tol]. Returns the final iterate, its
   violation and the outer and total inner iteration counts. *)
let augmented_lagrangian ~release ~t_max ~m ~objective ~objective_grad_into ~project_ip x0 =
  (* The 2m-1 fit constraints [g(x) <= 0] over [x = (e, w-hat)]: a
     release fit [r_k + t_max w-hat_k - e_k] for every k, and a chain
     fit [t_max w-hat_k - e_k + e_(k-1)] for k >= 1, summed left to
     right. Their multipliers are ordered release_0, then release_k
     (index 2k-1) and chain_k (index 2k) for each k >= 1. *)
  let release_fit x k = release.(k) +. (t_max *. x.(m + k)) -. x.(k) in
  let chain_fit x k = (t_max *. x.(m + k)) -. x.(k) +. x.(k - 1) in
  let release_index k = if k = 0 then 0 else (2 * k) - 1 in
  let lambda = Array.make ((2 * m) - 1) 0. in
  let mu = ref 10. in
  project_ip x0;
  let x = ref x0 in
  let inner_total = ref 0 and outer = ref 0 in
  let violation = ref infinity and finished = ref false in
  while (not !finished) && !outer < max_outer do
    incr outer;
    let mu_now = !mu in
    let add_term acc i g =
      let t = lambda.(i) +. (mu_now *. g) in
      if t > 0. then acc +. (((t *. t) -. (lambda.(i) *. lambda.(i))) /. (2. *. mu_now))
      else acc -. (lambda.(i) *. lambda.(i) /. (2. *. mu_now))
    in
    let lag x =
      let acc = ref (objective x) in
      for k = 0 to m - 1 do
        acc := add_term !acc (release_index k) (release_fit x k);
        if k > 0 then acc := add_term !acc (2 * k) (chain_fit x k)
      done;
      !acc
    in
    let grad_into x ~into =
      objective_grad_into x ~into;
      for k = 0 to m - 1 do
        let t = lambda.(release_index k) +. (mu_now *. release_fit x k) in
        if t > 0. then begin
          into.(m + k) <- into.(m + k) +. (t *. t_max);
          into.(k) <- into.(k) -. t
        end;
        if k > 0 then begin
          let t = lambda.(2 * k) +. (mu_now *. chain_fit x k) in
          if t > 0. then begin
            into.(m + k) <- into.(m + k) +. (t *. t_max);
            into.(k) <- into.(k) -. t;
            into.(k - 1) <- into.(k - 1) +. t
          end
        end
      done
    in
    let r =
      Pg.minimize_ws ~max_iter:max_inner ~tol:1e-10 ~f:lag ~grad_into ~project_ip ~x0:!x ()
    in
    inner_total := !inner_total + r.Pg.iterations;
    x := r.Pg.x;
    let previous_violation = !violation in
    violation := 0.;
    let update i g =
      violation := Float.max !violation g;
      lambda.(i) <- Float.max 0. (lambda.(i) +. (mu_now *. g))
    in
    for k = 0 to m - 1 do
      update (release_index k) (release_fit !x k);
      if k > 0 then update (2 * k) (chain_fit !x k)
    done;
    Log.debug (fun f ->
        f "outer %d: f=%g violation=%g mu=%g" !outer (objective !x) !violation mu_now);
    if !violation <= feas_tol then finished := true
    else if !violation > 0.5 *. previous_violation then mu := !mu *. 5.
  done;
  (!x, !violation, !outer, !inner_total)

let solve ~mode ~(plan : Plan.t) ~power () =
  match Solver.initial_point ~plan ~power with
  | Error _ as err -> err
  | Ok (e0, q0) ->
    let m = Array.length plan.Plan.order in
    let ws = Workspace.create plan in
    let totals = Objective.instance_totals mode plan in
    let t_max = Model.cycle_time power ~v:power.Model.v_max in
    let release = Array.map (fun (sub : Sub.t) -> sub.Sub.release) plan.Plan.order in
    let e = Array.make m 0. and q = Array.make m 0. in
    let unpack x =
      Array.blit x 0 e 0 m;
      Array.blit x m q 0 m
    in
    let objective x =
      unpack x;
      Objective.eval_ws ws ~power ~totals ~e ~w_hat:q
    in
    let de = Array.make m 0. and dq = Array.make m 0. in
    let objective_grad_into x ~into =
      unpack x;
      let (_ : float) =
        Objective.eval_with_gradient_ws ws ~power ~totals ~e ~w_hat:q ~de ~dwq:dq
      in
      Array.blit de 0 into 0 m;
      Array.blit dq 0 into m m
    in
    let x, max_violation, outer_iterations, inner_iterations =
      augmented_lagrangian ~release ~t_max ~m ~objective ~objective_grad_into
        ~project_ip:(make_projection ws) (Array.append e0 q0)
    in
    let e = Array.sub x 0 m and q = Array.sub x m m in
    (match Solver.repair ~plan ~power ~e ~q with
    | Error _ as err -> err
    | Ok (e, q) ->
      let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
      Ok
        ( schedule,
          { Solver.objective = Objective.eval_ws ws ~power ~totals ~e ~w_hat:q;
            max_violation; outer_iterations; inner_iterations } ))
