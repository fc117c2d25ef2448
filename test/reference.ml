(* Dense reference implementations: the executable specification that
   the production kernels are tested against, bit for bit (DESIGN.md
   §12). Nothing outside the test suite calls these. Each one is the
   plain form of a computation the library implements exactly once,
   in a structure-exploiting or allocation-free kernel:

   - [simplex] / [simplex_ip]: sort-based simplex projection ordered by
     [Float.compare] (production: [Projection.simplex_blocks_ip]);
   - [Waterfall.distribute] / [Waterfall.backward]: the split of one
     instance's workload over its quotas and its vector-Jacobian
     product, one allocating call per instance (production: the
     plan-wide [Lepts_core.Waterfall.distribute_blocks] /
     [backward_add_blocks]);
   - [trace] / [eval]: the objective's recurrence replayed through the
     model's functions on fresh arrays, returning start and finish
     times, voltages and executed workloads as well as the energy
     (production: [Objective.eval_ws], energy only);
   - [eval_with_gradient]: the list-based objective adjoint, which
     splits and differentiates the waterfall per instance through
     [Waterfall] above (production: [Objective.eval_with_gradient_ws]);
   - [solve] / [solve_warm] / [solve_stochastic]: the dense solve,
     with a nested per-instance projection, full forward and adjoint
     sweeps and a fresh waterfall split on every evaluation, and dense
     penalty and multiplier loops (production: [Solver.solve] /
     [Solver.solve_warm] / [Solver.solve_stochastic]);
   - [Event_sim.run_traced]: the flat dispatcher, which scans every
     instance of the hyper-period twice per event (production:
     [Lepts_sim.Event_sim.run] / [run_traced], which scan per task from
     its first unfinished instance).

   The arithmetic is the production arithmetic, operation for
   operation; only the bookkeeping differs.

   [Fig6a.run] is the Fig 6(a) sweep driven one point at a time, the
   per-point batches that [Lepts_experiments.Fig6a.run] folds into one.

   [Sequence.run] is an oracle of another kind: the closed-form model
   the objective optimises, which the event-driven simulator must agree
   with to rounding on any fixed workloads. [Numdiff.gradient] is one
   too: central differences, which the objective adjoint must agree
   with to truncation error. *)

module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Pg = Lepts_optim.Projected_gradient
open Lepts_core

(* --- Numerical differentiation ------------------------------------------ *)

module Numdiff = struct
  module Guard = Lepts_optim.Guard

  (* Central differences of step [h] (default 1e-6) scaled by
     coordinate magnitude; [x] is not modified. Raises
     [Guard.Non_finite] when an evaluation of [f] is NaN or
     infinite. *)
  let gradient ?(h = 1e-6) ~f x =
    let x = Array.copy x in
    let n = Array.length x in
    Array.init n (fun i ->
        let step = h *. Float.max 1. (Float.abs x.(i)) in
        let xi = x.(i) in
        x.(i) <- xi +. step;
        let fp = Guard.finite ~where:(Printf.sprintf "f(x + h e_%d)" i) (f x) in
        x.(i) <- xi -. step;
        let fm = Guard.finite ~where:(Printf.sprintf "f(x - h e_%d)" i) (f x) in
        x.(i) <- xi;
        (fp -. fm) /. (2. *. step))
end

(* --- Simplex projection -------------------------------------------------- *)

let tau_of_sorted ~total sorted =
  let n = Array.length sorted in
  let cumulative = ref 0. and tau = ref (sorted.(0) -. total) in
  for i = 0 to n - 1 do
    cumulative := !cumulative +. sorted.(i);
    let candidate = (!cumulative -. total) /. float_of_int (i + 1) in
    if sorted.(i) > candidate then tau := candidate
  done;
  !tau

(* Threshold by descending sort: find tau with
   sum max(0, x_i - tau) = total, then shift and clip. *)
let simplex ~total x =
  if total < 0. then invalid_arg "Reference.simplex: negative total";
  if Array.length x = 0 then invalid_arg "Reference.simplex: empty vector";
  let sorted = Array.copy x in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let tau = tau_of_sorted ~total sorted in
  Array.map (fun v -> Float.max 0. (v -. tau)) x

let[@inline] fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

(* In-place form with a monomorphic insertion sort under the same
   [Float.compare] order. *)
let simplex_ip ~total ~scratch x =
  let n = Array.length x in
  if total < 0. then invalid_arg "Reference.simplex_ip: negative total";
  if n = 0 then invalid_arg "Reference.simplex_ip: empty vector";
  if Array.length scratch <> n then
    invalid_arg "Reference.simplex_ip: scratch length mismatch";
  Array.blit x 0 scratch 0 n;
  for i = 1 to n - 1 do
    let key = scratch.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && Float.compare scratch.(!j) key < 0 do
      scratch.(!j + 1) <- scratch.(!j);
      decr j
    done;
    scratch.(!j + 1) <- key
  done;
  let tau = tau_of_sorted ~total scratch in
  for i = 0 to n - 1 do
    x.(i) <- fmax 0. (x.(i) -. tau)
  done

(* --- Waterfall ---------------------------------------------------------- *)

(* The split of one instance's actual workload over its quotas, in fill
   order, and its vector-Jacobian product: one allocating call per
   instance. *)
module Waterfall = struct
  let check quotas total =
    if total < 0. then invalid_arg "Waterfall: negative total";
    Array.iter (fun q -> if q < 0. then invalid_arg "Waterfall: negative quota") quotas

  let distribute ~quotas ~total =
    check quotas total;
    let remaining = ref total in
    Array.map
      (fun q ->
        let w = Float.min q !remaining in
        remaining := !remaining -. w;
        w)
      quotas

  (* Derivative structure: sub-instances before the partial one satisfy
     w_k = q_k (dw_k/dq_k = 1); the partial one satisfies
     w_p = total - sum_{l<p} q_l (dw_p/dq_l = -1 for l < p); later ones
     are 0 with zero derivative. At kinks we take the fully-filled
     branch. *)
  let backward ~quotas ~total ~adjoint =
    check quotas total;
    let n = Array.length quotas in
    if Array.length adjoint <> n then
      invalid_arg "Waterfall.backward: adjoint length mismatch";
    let out = Array.make n 0. in
    let remaining = ref total in
    (try
       for k = 0 to n - 1 do
         let q = quotas.(k) in
         if !remaining >= q then begin
           (* fully filled: w_k = q_k *)
           out.(k) <- out.(k) +. adjoint.(k);
           remaining := !remaining -. q
         end
         else begin
           if !remaining > 0. then
             (* partial: w_k = total - sum of earlier quotas *)
             for l = 0 to k - 1 do
               out.(l) <- out.(l) -. adjoint.(k)
             done;
           raise Exit
         end
       done
     with Exit -> ());
    out
end

(* --- Objective ------------------------------------------------------------ *)

(* [Objective]'s dispatch threshold and window floor. *)
let skip_eps = 1e-12
let window_floor = 1e-12

(* Waterfall split of the actual instance workloads onto sub-instances,
   indexed by total-order position. [w_hat] must be non-negative. *)
let split_workloads (plan : Plan.t) ~totals ~w_hat =
  let w = Array.make (Array.length plan.Plan.order) 0. in
  Array.iteri
    (fun i per_instance ->
      Array.iteri
        (fun j idxs ->
          let quotas = Array.map (fun k -> w_hat.(k)) idxs in
          let dist = Waterfall.distribute ~quotas ~total:totals.(i).(j) in
          Array.iteri (fun pos k -> w.(k) <- dist.(pos)) idxs)
        per_instance)
    plan.Plan.instance_subs;
  w

type trace = {
  start_times : float array;
      (** dispatch time of each sub-instance (release time if never
          dispatched) *)
  voltages : float array;  (** 0 for sub-instances never dispatched *)
  exec_workloads : float array;  (** waterfall split of the actual work *)
  finish_times : float array;  (** equal to start time if not dispatched *)
  energy : float;
}

(* The objective's recurrence replayed in full, through the model's own
   functions: start, voltage, finish and executed workload of every
   sub-instance. Negative quotas count as 0. *)
let trace ~(plan : Plan.t) ~power ~totals ~e ~w_hat =
  let m = Array.length plan.Plan.order in
  if Array.length e <> m || Array.length w_hat <> m then
    invalid_arg "Reference.trace: vector length";
  let w_hat = Array.map (fun q -> Float.max 0. q) w_hat in
  let w = split_workloads plan ~totals ~w_hat in
  let starts = Array.make m 0. and volts = Array.make m 0. in
  let finishes = Array.make m 0. in
  let finish = ref 0. and energy = ref 0. in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    if w.(k) > skip_eps then begin
      let s = Float.max sub.Sub.release !finish in
      let d = Float.max (e.(k) -. s) window_floor in
      let v = Model.voltage_for_clamped power ~cycles:w_hat.(k) ~duration:d in
      energy := !energy +. Model.energy power ~v ~cycles:w.(k);
      finish := s +. Model.exec_time power ~v ~cycles:w.(k);
      starts.(k) <- s;
      volts.(k) <- v;
      finishes.(k) <- !finish
    end
    else begin
      starts.(k) <- Float.max sub.Sub.release !finish;
      finishes.(k) <- starts.(k)
    end
  done;
  { start_times = starts; voltages = volts; exec_workloads = w;
    finish_times = finishes; energy = !energy }

let eval ~plan ~power ~totals ~e ~w_hat = (trace ~plan ~power ~totals ~e ~w_hat).energy

(* --- Objective adjoint ---------------------------------------------------- *)

(* One dispatched step of the forward recurrence, with the branch
   choices needed to replay it backwards. *)
type step = {
  k : int;
  d : float;  (** guarded window *)
  v : float;
  w : float;  (** executed workload *)
  wq : float;  (** worst-case quota *)
  clamped : bool;  (** voltage clamped (at either end of the range) *)
  guarded : bool;  (** window floored *)
  s_from_finish : bool;  (** start = previous finish (vs release) *)
}

let eval_with_gradient ~plan ~power ~totals ~e ~w_hat =
  let c0 = power.Model.c0 in
  let m = Array.length plan.Plan.order in
  if Array.length e <> m || Array.length w_hat <> m then
    invalid_arg "Reference.eval_with_gradient: vector length";
  let w_hat = Array.map (fun q -> Float.max 0. q) w_hat in
  let w = split_workloads plan ~totals ~w_hat in
  (* Forward sweep, recording branches. *)
  let steps = ref [] in
  let finish = ref 0. and energy = ref 0. in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    if w.(k) > skip_eps then begin
      let s_from_finish = !finish >= sub.Sub.release in
      let s = if s_from_finish then !finish else sub.Sub.release in
      let d_raw = e.(k) -. s in
      let guarded = d_raw < window_floor in
      let d = if guarded then window_floor else d_raw in
      let v_raw = c0 *. w_hat.(k) /. d in
      let clamped = v_raw <= power.Model.v_min || v_raw > power.Model.v_max in
      let v =
        Lepts_util.Num_ext.clamp ~lo:power.Model.v_min ~hi:power.Model.v_max v_raw
      in
      energy := !energy +. (power.Model.c_eff *. v *. v *. w.(k));
      finish := s +. (w.(k) *. c0 /. v);
      steps :=
        { k; d; v; w = w.(k); wq = w_hat.(k); clamped; guarded; s_from_finish }
        :: !steps
    end
  done;
  (* Backward (adjoint) sweep over the dispatched steps, most recent
     first. [phi] is the adjoint of the running finish time. *)
  let de = Array.make m 0. and dwq = Array.make m 0. in
  let dw = Array.make m 0. in
  let phi = ref 0. in
  List.iter
    (fun st ->
      let sigma = ref !phi in
      (* finish = s + w c0 / v ; E += c_eff v^2 w *)
      let alpha =
        (2. *. power.Model.c_eff *. st.w *. st.v) -. (!phi *. st.w *. c0 /. (st.v *. st.v))
      in
      let beta = (power.Model.c_eff *. st.v *. st.v) +. (!phi *. c0 /. st.v) in
      if not st.clamped then begin
        (* v = c0 wq / d *)
        dwq.(st.k) <- dwq.(st.k) +. (alpha *. c0 /. st.d);
        if not st.guarded then begin
          let delta = -.alpha *. c0 *. st.wq /. (st.d *. st.d) in
          de.(st.k) <- de.(st.k) +. delta;
          sigma := !sigma -. delta
        end
      end;
      dw.(st.k) <- dw.(st.k) +. beta;
      phi := if st.s_from_finish then !sigma else 0.)
    !steps;
  (* Waterfall vector-Jacobian products per instance. *)
  Array.iteri
    (fun i per_instance ->
      Array.iteri
        (fun j idxs ->
          let quotas = Array.map (fun k -> w_hat.(k)) idxs in
          let adjoint = Array.map (fun k -> dw.(k)) idxs in
          let back = Waterfall.backward ~quotas ~total:totals.(i).(j) ~adjoint in
          Array.iteri (fun pos k -> dwq.(k) <- dwq.(k) +. back.(pos)) idxs)
        per_instance)
    plan.Plan.instance_subs;
  (!energy, de, dwq)

(* --- Dense solve ---------------------------------------------------------- *)

let t_at_vmax power = Model.cycle_time power ~v:power.Model.v_max

(* Nested per-instance projection: each instance's quota slice onto its
   [sum = scale * WCEC] simplex through exact-length gather buffers,
   slacks clamped into [0, hyper]. *)
let make_projection (plan : Plan.t) ~scale ~hyper =
  let m = Array.length plan.Plan.order in
  let ts = plan.Plan.task_set in
  let subs = plan.Plan.instance_subs in
  let buffers =
    Array.map
      (Array.map (fun idxs ->
           (Array.make (Array.length idxs) 0., Array.make (Array.length idxs) 0.)))
      subs
  in
  fun (z : float array) ->
    for i = 0 to Array.length subs - 1 do
      let total = scale *. (Task_set.task ts i).Task.wcec in
      let per = subs.(i) in
      for j = 0 to Array.length per - 1 do
        let idxs = per.(j) in
        let buf, scratch = buffers.(i).(j) in
        let n = Array.length idxs in
        for pos = 0 to n - 1 do
          buf.(pos) <- z.(idxs.(pos))
        done;
        simplex_ip ~total ~scratch buf;
        for pos = 0 to n - 1 do
          z.(idxs.(pos)) <- buf.(pos)
        done
      done
    done;
    for k = m to (2 * m) - 1 do
      z.(k) <- Lepts_util.Num_ext.clamp ~lo:0. ~hi:hyper z.(k)
    done

(* Latest-feasible ("as late as possible") end-times for given quotas:
   every end-time pushed right until it hits its segment boundary or
   the worst-case fit of its successor. No production solve starts
   from it; it is [test_sim]'s second dispatcher fixture and the
   second WCS start of [test_solver]'s parallel multi-start test. *)
let alap_end_times (plan : Plan.t) ~t_max ~e ~q =
  let m = Array.length plan.Plan.order in
  let out = Array.copy e in
  if m > 0 then begin
    out.(m - 1) <- plan.Plan.order.(m - 1).Sub.boundary;
    for k = m - 2 downto 0 do
      let b = plan.Plan.order.(k).Sub.boundary in
      out.(k) <- Float.max e.(k) (Float.min b (out.(k + 1) -. (t_max *. q.(k + 1))))
    done
  end;
  out

let slacks_for (plan : Plan.t) ~t_max ~e ~q =
  let m = Array.length plan.Plan.order in
  let s = Array.make m 0. in
  let frontier = ref 0. in
  for k = 0 to m - 1 do
    let start = Float.max plan.Plan.order.(k).Sub.release !frontier in
    s.(k) <- Float.max 0. (e.(k) -. start -. (t_max *. q.(k)));
    frontier := start +. (t_max *. q.(k)) +. s.(k)
  done;
  s

(* One augmented-Lagrangian descent in scaled coordinates z = [u; s],
   u = t_max * q, every evaluation recomputing the whole frontier
   recursion. *)
let solve_from ~max_outer ~totals_list ~(plan : Plan.t) ~power ~y0 =
  let m = Array.length plan.Plan.order in
  let t_max = t_at_vmax power in
  let hyper = Plan.hyper_period plan in
  let scenario_count = float_of_int (List.length totals_list) in
  let ws = Workspace.create plan in
  let q = Array.make m 0. and e = Array.make m 0. in
  let start_ff = Array.make m false in
  let room = Array.make m 0. and g = Array.make m 0. in
  let forward (z : float array) =
    let frontier = ref 0. in
    for k = 0 to m - 1 do
      let sub = plan.Plan.order.(k) in
      let from_frontier = !frontier >= sub.Sub.release in
      let st = if from_frontier then !frontier else sub.Sub.release in
      let uk = fmax 0. z.(k) and sk = fmax 0. z.(m + k) in
      q.(k) <- z.(k) /. t_max;
      start_ff.(k) <- from_frontier;
      room.(k) <- fmax 0. (sub.Sub.boundary -. st);
      g.(k) <- uk +. sk -. room.(k);
      e.(k) <- st +. uk +. sk;
      frontier := e.(k)
    done
  in
  let mean_energy () =
    List.fold_left
      (fun acc totals -> acc +. Objective.eval_ws ws ~power ~totals ~e ~w_hat:q)
      0. totals_list
    /. scenario_count
  in
  let lambda = Array.make m 0. in
  let mu = ref 10. in
  let x = ref (Array.init (2 * m) (fun k -> if k < m then t_max *. y0.(k) else y0.(k))) in
  let project_ip = make_projection plan ~scale:t_max ~hyper in
  let inner_total = ref 0 and outer = ref 0 in
  let violation = ref infinity and finished = ref false in
  while (not !finished) && !outer < max_outer do
    incr outer;
    let mu_now = !mu in
    let lag z =
      forward z;
      let energy = mean_energy () in
      let penalty = ref 0. in
      for k = 0 to m - 1 do
        let t = lambda.(k) +. (mu_now *. g.(k)) in
        if t > 0. then
          penalty :=
            !penalty +. (((t *. t) -. (lambda.(k) *. lambda.(k))) /. (2. *. mu_now))
        else penalty := !penalty -. (lambda.(k) *. lambda.(k) /. (2. *. mu_now))
      done;
      energy +. !penalty
    in
    let grad_into z ~into =
      forward z;
      let de = Array.make m 0. and dq = Array.make m 0. in
      let de_i = Array.make m 0. and dq_i = Array.make m 0. in
      List.iter
        (fun totals ->
          let (_ : float) =
            Objective.eval_with_gradient_ws ws ~power ~totals ~e ~w_hat:q ~de:de_i
              ~dwq:dq_i
          in
          for k = 0 to m - 1 do
            de.(k) <- de.(k) +. (de_i.(k) /. scenario_count);
            dq.(k) <- dq.(k) +. (dq_i.(k) /. scenario_count)
          done)
        totals_list;
      for k = 0 to m - 1 do
        dq.(k) <- dq.(k) /. t_max
      done;
      let dg =
        Array.init m (fun k ->
            let t = lambda.(k) +. (mu_now *. g.(k)) in
            if t > 0. then t else 0.)
      in
      let ds = Array.make m 0. in
      (* Adjoint of the frontier recursion over every index. *)
      let psi = ref 0. in
      for k = m - 1 downto 0 do
        let total = de.(k) +. !psi in
        dq.(k) <- dq.(k) +. total +. dg.(k);
        ds.(k) <- ds.(k) +. total +. dg.(k);
        let dstart = total +. (if room.(k) > 0. then dg.(k) else 0.) in
        psi := if start_ff.(k) then dstart else 0.
      done;
      Array.blit dq 0 into 0 m;
      Array.blit ds 0 into m m
    in
    let inner_budget = if !outer <= 3 then 300 else 60 in
    let r =
      Pg.minimize_ws ~max_iter:inner_budget ~tol:1e-10 ~f:lag ~grad_into ~project_ip
        ~x0:!x ()
    in
    inner_total := !inner_total + r.Pg.iterations;
    x := r.Pg.x;
    forward !x;
    let previous_violation = !violation in
    violation := 0.;
    for k = 0 to m - 1 do
      violation := fmax !violation g.(k);
      lambda.(k) <- fmax 0. (lambda.(k) +. (mu_now *. g.(k)))
    done;
    if !violation <= 1e-9 *. hyper then finished := true
    else if !violation > 0.5 *. previous_violation then mu := !mu *. 5.
  done;
  (* Leave scaled coordinates with repair's own quota-unit products. *)
  let z = !x in
  forward z;
  let frontier = ref 0. in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    let st = if !frontier >= sub.Sub.release then !frontier else sub.Sub.release in
    let qk = fmax 0. q.(k) and sk = fmax 0. z.(m + k) in
    e.(k) <- st +. (t_max *. qk) +. sk;
    frontier := e.(k)
  done;
  match Solver.repair ~plan ~power ~e ~q with
  | Error _ as err -> err
  | Ok (e, q) ->
    let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
    let objective =
      List.fold_left
        (fun acc totals ->
          acc
          +. eval ~plan ~power ~totals ~e:schedule.Static_schedule.end_times
               ~w_hat:schedule.Static_schedule.quotas)
        0. totals_list
      /. scenario_count
    in
    Ok
      ( schedule,
        { Solver.objective; max_violation = !violation; outer_iterations = !outer;
          inner_iterations = !inner_total } )

(* Sequential multi-start over the greedy start and the warm starts,
   on the mean energy over [totals_list]; the first strictly best
   result wins. *)
let solve_multi_start ~max_outer ~warm_starts ~totals_list ~(plan : Plan.t) ~power =
  match Solver.initial_point ~plan ~power with
  | Error _ as err -> err
  | Ok (_, q0) ->
    let m = Array.length plan.Plan.order in
    let t_max = t_at_vmax power in
    let point_of_eq (e, q) = Array.append q (slacks_for plan ~t_max ~e ~q) in
    let candidates =
      Array.append q0 (Array.make m 0.) :: List.map point_of_eq warm_starts
    in
    let best =
      List.fold_left
        (fun best y0 ->
          match (best, solve_from ~max_outer ~totals_list ~plan ~power ~y0) with
          | Some (_, (b : Solver.stats)), Ok (_, s) when b.objective <= s.objective -> best
          | _, Ok result -> Some result
          | _, Error _ -> best)
        None candidates
    in
    Option.to_result ~none:(Solver.Solver_stalled "no start point") best

let solve ?(max_outer = 30) ?(warm_starts = []) ~mode ~(plan : Plan.t) ~power () =
  solve_multi_start ~max_outer ~warm_starts
    ~totals_list:[ Objective.instance_totals mode plan ]
    ~plan ~power

(* The probability-weighted solve: [scenarios] truncated-normal draws
   of every instance's workload, in [Solver.solve_stochastic]'s order
   from the same seeded generator, each split and differentiated on
   its own at every evaluation. *)
let solve_stochastic ?(max_outer = 30) ?(warm_starts = []) ~scenarios ~seed
    ~(plan : Plan.t) ~power () =
  let rng = Lepts_prng.Xoshiro256.create ~seed in
  let sample () =
    Array.mapi
      (fun i per_instance ->
        let task = Task_set.task plan.Plan.task_set i in
        Array.map
          (fun _ ->
            Lepts_prng.Dist.truncated_normal rng ~mu:task.Task.acec
              ~sigma:(Task.sigma task) ~lo:task.Task.bcec ~hi:task.Task.wcec)
          per_instance)
      plan.Plan.instance_subs
  in
  let totals_list = List.init scenarios (fun _ -> sample ()) in
  solve_multi_start ~max_outer ~warm_starts ~totals_list ~plan ~power

let quota_sums_match ~(plan : Plan.t) (prev : Static_schedule.t) =
  let ts = plan.Plan.task_set in
  let q = prev.Static_schedule.quotas in
  let ok = ref true in
  Array.iteri
    (fun i per_instance ->
      let wcec = (Task_set.task ts i).Task.wcec in
      Array.iter
        (fun idxs ->
          let sum = Array.fold_left (fun acc k -> acc +. q.(k)) 0. idxs in
          if Float.abs (sum -. wcec) > 1e-6 *. Float.max 1. wcec then ok := false)
        per_instance)
    plan.Plan.instance_subs;
  !ok

(* Warm continuation from [prev] on a structurally identical plan: the
   seed is prev's quotas projected in quota units, end-times clamped
   into the windows and slacks re-derived; the continuation replaces
   the repaired seed only when better by more than 1e-6 relative. *)
let solve_warm ?(max_outer = 30) ~mode ~(prev : Static_schedule.t) ~(plan : Plan.t)
    ~power () =
  let m = Array.length plan.Plan.order in
  let t_max = t_at_vmax power in
  let totals_list = [ Objective.instance_totals mode plan ] in
  let mean_objective e q =
    List.fold_left
      (fun acc totals -> acc +. eval ~plan ~power ~totals ~e ~w_hat:q)
      0. totals_list
    /. float_of_int (List.length totals_list)
  in
  let prev_e = prev.Static_schedule.end_times in
  let prev_q = prev.Static_schedule.quotas in
  let y0 = Array.append (Array.copy prev_q) (Array.make m 0.) in
  make_projection plan ~scale:1. ~hyper:(Plan.hyper_period plan) y0;
  let e_seed =
    Array.mapi
      (fun k e ->
        let sub = plan.Plan.order.(k) in
        Lepts_util.Num_ext.clamp ~lo:sub.Sub.release ~hi:sub.Sub.boundary e)
      prev_e
  in
  let q_seed = Array.sub y0 0 m in
  Array.blit (slacks_for plan ~t_max ~e:e_seed ~q:q_seed) 0 y0 m m;
  let baseline =
    let e_b, q_b =
      if quota_sums_match ~plan prev then (prev_e, prev_q) else (e_seed, q_seed)
    in
    match Solver.repair ~plan ~power ~e:e_b ~q:q_b with
    | Error _ as err -> err
    | Ok (e, q) ->
      let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
      Ok
        ( schedule,
          { Solver.objective =
              mean_objective schedule.Static_schedule.end_times
                schedule.Static_schedule.quotas;
            max_violation = 0.; outer_iterations = 0; inner_iterations = 0 } )
  in
  match (baseline, solve_from ~max_outer ~totals_list ~plan ~power ~y0) with
  | Ok (_, b), Ok (_, c)
    when c.Solver.objective >= b.Solver.objective -. (1e-6 *. Float.abs b.Solver.objective)
    ->
    baseline
  | _, Ok result -> Ok result
  | Ok _, Error _ -> baseline
  | (Error _ as err), Error _ -> err

(* --- Event-driven dispatcher ---------------------------------------------- *)

module Event_sim = struct
  module Sim = Lepts_sim.Event_sim
  module Trace = Lepts_sim.Trace
  module Outcome = Lepts_sim.Outcome
  module Policy = Lepts_dvs.Policy

  let tiny = 1e-9

  type instance_state = {
    task : int;
    instance : int;
    release : float;
    deadline : float;
    subs : int array;
    mutable remaining : float;
    mutable sub_pos : int;
    mutable quota_remaining : float;
    mutable finish : float;
    mutable shed : bool;
  }

  (* One flat array of every instance of the hyper-period, in
     (task, instance) order. *)
  let build_instances ?(faults : Sim.faults option) (schedule : Static_schedule.t)
      ~totals =
    let plan = schedule.Static_schedule.plan in
    let ts = plan.Plan.task_set in
    let enforce_budget =
      match faults with None -> true | Some f -> f.Sim.enforce_budget
    in
    let offset i j =
      match faults with None -> 0. | Some f -> f.Sim.release_offsets.(i).(j)
    in
    let states = ref [] in
    Array.iteri
      (fun i per_instance ->
        let period = float_of_int (Task_set.task ts i).Task.period in
        Array.iteri
          (fun j subs ->
            let quota_sum =
              Array.fold_left
                (fun acc k -> acc +. schedule.Static_schedule.quotas.(k))
                0. subs
            in
            let first_quota =
              if Array.length subs = 0 then 0.
              else schedule.Static_schedule.quotas.(subs.(0))
            in
            let release = (float_of_int j *. period) +. offset i j in
            let remaining =
              if enforce_budget then Float.min totals.(i).(j) quota_sum
              else totals.(i).(j)
            in
            states :=
              { task = i; instance = j; release;
                deadline = float_of_int (j + 1) *. period;
                subs;
                remaining = (if remaining <= tiny then 0. else remaining);
                sub_pos = 0;
                quota_remaining = first_quota;
                finish = (if remaining <= tiny then release else Float.nan);
                shed = false }
              :: !states)
          per_instance)
      plan.Plan.instance_subs;
    Array.of_list (List.rev !states)

  let current_sub (schedule : Static_schedule.t) st =
    while st.quota_remaining <= tiny && st.sub_pos < Array.length st.subs - 1 do
      st.sub_pos <- st.sub_pos + 1;
      st.quota_remaining <- schedule.Static_schedule.quotas.(st.subs.(st.sub_pos))
    done;
    if st.quota_remaining > tiny then Some st.subs.(st.sub_pos) else None

  let ready_time (schedule : Static_schedule.t) st =
    if st.remaining <= tiny then infinity
    else
      match current_sub schedule st with
      | Some k ->
        Float.max schedule.Static_schedule.plan.Plan.order.(k).Sub.release st.release
      | None -> st.release

  let budget_remaining (schedule : Static_schedule.t) st =
    let acc = ref (Float.max 0. st.quota_remaining) in
    for pos = st.sub_pos + 1 to Array.length st.subs - 1 do
      acc := !acc +. schedule.Static_schedule.quotas.(st.subs.(pos))
    done;
    !acc

  (* Every event folds over every instance: [pick_ready] for the ready
     instance of lowest (task, instance), [next_event] for the earliest
     future ready time. *)
  let run_traced ?(transition : Sim.transition option) ?(faults : Sim.faults option)
      ?control ~(schedule : Static_schedule.t) ~policy ~totals () =
    let spans = ref [] in
    let last_voltage = ref Float.nan in
    let plan = schedule.Static_schedule.plan in
    let power = schedule.Static_schedule.power in
    let static_v = Static_schedule.worst_case_voltages schedule in
    let states = build_instances ?faults schedule ~totals in
    let energy = ref 0. in
    let consumed = Array.make (Array.length plan.Plan.instance_subs) 0. in
    let now = ref 0. in
    let guard =
      ref (10_000 + (100 * Array.length states * Array.length plan.Plan.order))
    in
    let running = ref true in
    let pick_ready () =
      Array.fold_left
        (fun best st ->
          if st.remaining > tiny && ready_time schedule st <= !now +. tiny then
            match best with
            | None -> Some st
            | Some b ->
              if st.task < b.task || (st.task = b.task && st.instance < b.instance)
              then Some st
              else best
          else best)
        None states
    in
    let next_event ~pred =
      Array.fold_left
        (fun acc st ->
          let r = ready_time schedule st in
          if pred st && r > !now +. tiny then Float.min acc r else acc)
        infinity states
    in
    while !running && !guard > 0 do
      decr guard;
      match pick_ready () with
      | None ->
        let next = next_event ~pred:(fun _ -> true) in
        if Float.is_finite next then now := next else running := false
      | Some st -> (
        let sub = current_sub schedule st in
        let base_voltage, cycles_target =
          match sub with
          | Some k ->
            ( Policy.dispatch_voltage policy ~schedule ~static_v ~sub:k ~now:!now
                ~quota_remaining:st.quota_remaining,
              Float.min st.remaining st.quota_remaining )
          | None -> (power.Model.v_max, st.remaining)
        in
        let action =
          match control with
          | None -> Sim.Run base_voltage
          | Some decide ->
            decide
              { Sim.d_task = st.task; d_instance = st.instance; d_sub = sub;
                d_now = !now; d_deadline = st.deadline;
                d_quota_remaining = st.quota_remaining;
                d_budget_remaining = budget_remaining schedule st;
                d_work_remaining = st.remaining; d_base_voltage = base_voltage }
        in
        match action with
        | Sim.Shed ->
          st.remaining <- 0.;
          st.shed <- true
        | Sim.Run v ->
          let v =
            match (faults, sub) with
            | Some f, Some k
              when (not (Float.is_nan !last_voltage))
                   && Float.abs (v -. !last_voltage) > 1e-9
                   && f.Sim.deny_transition ~task:st.task ~instance:st.instance
                        ~sub:k ~now:!now ~requested:v -> !last_voltage
            | _ -> v
          in
          (match transition with
          | Some { Sim.time_per_volt; energy_per_volt }
            when (not (Float.is_nan !last_voltage))
                 && Float.abs (v -. !last_voltage) > 1e-9 ->
            let dv = Float.abs (v -. !last_voltage) in
            energy := !energy +. (energy_per_volt *. dv);
            now := !now +. (time_per_volt *. dv)
          | Some _ | None -> ());
          last_voltage := v;
          let cycle_time = Model.cycle_time power ~v in
          let time_needed = cycles_target *. cycle_time in
          let preempt_at = next_event ~pred:(fun other -> other.task < st.task) in
          let run_until = Float.min (!now +. time_needed) preempt_at in
          let executed =
            if run_until >= !now +. time_needed then cycles_target
            else (run_until -. !now) /. cycle_time
          in
          energy := !energy +. Model.energy power ~v ~cycles:executed;
          consumed.(st.task) <- consumed.(st.task) +. executed;
          if run_until > !now then
            spans :=
              { Trace.task = st.task; instance = st.instance; from_time = !now;
                to_time = run_until; voltage = v }
              :: !spans;
          st.remaining <- st.remaining -. executed;
          st.quota_remaining <- st.quota_remaining -. executed;
          now := run_until;
          if st.remaining <= tiny then begin
            st.remaining <- 0.;
            st.finish <- !now
          end)
    done;
    let finish_times =
      Array.map (Array.map (fun _ -> Float.nan)) plan.Plan.instance_subs
    in
    let misses = ref 0 and shed = ref 0 in
    Array.iter
      (fun st ->
        finish_times.(st.task).(st.instance) <- st.finish;
        if st.shed then incr shed;
        if Float.is_nan st.finish || st.finish > st.deadline +. (1e-6 *. st.deadline)
        then incr misses)
      states;
    ( { Outcome.energy = !energy; deadline_misses = !misses;
        shed_instances = !shed; finish_times; consumed },
      { Trace.spans = List.rev !spans; horizon = Plan.hyper_period plan } )
end

(* --- Order-faithful executor ---------------------------------------------- *)

(* Runs the hyper-period assuming the fully-preemptive total order is
   followed exactly (each sub-instance waits for its segment release),
   with greedy reclamation. On the ACEC workload its energy equals
   [Static_schedule.predicted_energy ~mode:Average] to machine
   precision. Under budget-enforced RM the greedy event-driven run
   coincides with it, and on non-preemptive plans, where the
   event-driven simulator does not apply, it is the executor. *)
module Sequence = struct
  module Outcome = Lepts_sim.Outcome

  let run ~(schedule : Static_schedule.t) ~totals =
    let plan = schedule.Static_schedule.plan in
    let trace =
      trace ~plan ~power:schedule.Static_schedule.power ~totals
        ~e:schedule.Static_schedule.end_times ~w_hat:schedule.Static_schedule.quotas
    in
    let ts = plan.Plan.task_set in
    let misses = ref 0 in
    let finish_times =
      Array.mapi
        (fun i per_instance ->
          let period = float_of_int (Task_set.task ts i).Task.period in
          Array.mapi
            (fun j subs ->
              let release = float_of_int j *. period in
              let deadline = float_of_int (j + 1) *. period in
              (* Finish = last sub-instance that actually executed. *)
              let finish =
                Array.fold_left
                  (fun acc k ->
                    if trace.exec_workloads.(k) > 0. then
                      Float.max acc trace.finish_times.(k)
                    else acc)
                  release subs
              in
              if finish > deadline +. (1e-6 *. deadline) then incr misses;
              finish)
            per_instance)
        plan.Plan.instance_subs
    in
    let consumed =
      Array.map
        (Array.fold_left
           (fun acc subs ->
             Array.fold_left
               (fun acc k -> acc +. trace.exec_workloads.(k))
               acc subs)
           0.)
        plan.Plan.instance_subs
    in
    { Outcome.energy = trace.energy; deadline_misses = !misses;
      shed_instances = 0; finish_times; consumed }
end

(* --- Fig 6(a) point by point ---------------------------------------------- *)

(* The sweep as it was first written: one pool batch per (task count,
   ratio) point over [Improvement.measure], then the point's reduction
   over its sets in set order. No checkpoint, spans or telemetry.
   [Lepts_experiments.Fig6a.run] runs the whole grid as one batch and
   regroups the cells afterwards; its points must equal these bit for
   bit. *)
module Fig6a = struct
  module F = Lepts_experiments.Fig6a
  module Improvement = Lepts_experiments.Improvement

  let point ~jobs (config : F.config) ~power ~n_tasks ~ratio =
    let one_set set =
      let gen_seed =
        config.F.seed + (1_000_000 * n_tasks)
        + (10_000 * int_of_float (ratio *. 100.))
        + set
      in
      let rng = Lepts_prng.Xoshiro256.create ~seed:gen_seed in
      let gen_config = Lepts_workloads.Random_gen.default_config ~n_tasks ~ratio in
      match Lepts_workloads.Random_gen.generate gen_config ~power ~rng with
      | Error _ -> None
      | Ok task_set ->
        Result.to_option
          (Improvement.measure ~rounds:config.F.rounds ~task_set ~power
             ~sim_seed:(gen_seed + 7919) ())
    in
    let results, _ = Lepts_par.Pool.run ~jobs ~n:config.F.sets_per_point ~f:one_set in
    let measured = List.filter_map Fun.id (Array.to_list results) in
    let arr = Array.of_list (List.map (fun r -> r.Improvement.improvement_pct) measured) in
    { F.n_tasks; ratio;
      mean_improvement_pct =
        (if Array.length arr = 0 then Float.nan else Lepts_util.Stats.mean arr);
      stddev_improvement_pct =
        (if Array.length arr < 2 then 0. else Lepts_util.Stats.stddev arr);
      sets_measured = Array.length arr;
      total_misses =
        List.fold_left
          (fun acc r -> acc + r.Improvement.wcs_misses + r.Improvement.acs_misses)
          0 measured }

  let run ~jobs (config : F.config) ~power =
    List.concat_map
      (fun n_tasks ->
        List.map (fun ratio -> point ~jobs config ~power ~n_tasks ~ratio) config.F.ratios)
      config.F.task_counts
end
