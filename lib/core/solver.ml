module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Projection = Lepts_optim.Projection
module Pg = Lepts_optim.Projected_gradient
module Pool = Lepts_par.Pool
module Metrics = Lepts_obs.Metrics
module Telemetry = Lepts_obs.Telemetry
module Span = Lepts_obs.Span

type error = Unschedulable | Solver_stalled of string

type stats = {
  objective : float;
  max_violation : float;
  outer_iterations : int;
  inner_iterations : int;
}

type budget = { max_outer : int; wall_budget : float option }

let default_budget = { max_outer = 30; wall_budget = None }

let pp_error ppf = function
  | Unschedulable -> Format.fprintf ppf "task set not schedulable at maximum speed"
  | Solver_stalled msg -> Format.fprintf ppf "NLP solver stalled: %s" msg

let log_src = Logs.Src.create "lepts.core.solver" ~doc:"voltage scheduling NLP"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Wall clock for the solve budget. [Sys.time] is per-process CPU time,
   which runs [jobs] times faster than the wall during a parallel
   multi-start and so starved parallel solves of their budget. *)
let now () = Unix.gettimeofday ()

(* Built-in instrumentation (DESIGN.md §9). Registered in the default
   registry at module load so every run report carries these series,
   zero-valued when nothing solved. Counter bumps and histogram
   observations are atomic adds — strictly observational, no effect on
   the solver's float operations. *)
let m_solves =
  Metrics.counter ~help:"multi-start solves attempted" Metrics.default
    "lepts_solver_solves_total"

let m_starts =
  Metrics.counter ~help:"solver start points run" Metrics.default
    "lepts_solver_starts_total"

let m_start_failures =
  Metrics.counter ~help:"solver start points that failed" Metrics.default
    "lepts_solver_start_failures_total"

let h_solve_seconds =
  Metrics.histogram ~help:"wall-clock seconds per multi-start solve"
    ~buckets:[| 0.001; 0.01; 0.1; 1.; 10.; 100. |]
    Metrics.default "lepts_solver_solve_seconds"

(* Worst-case rate-monotonic execution at maximum speed: process the
   total order with a running cursor, filling each sub-instance with as
   much of its instance's remaining WCEC as fits before its boundary.
   This is simultaneously the canonical feasible point of the NLP and a
   schedulability check. *)
let initial_point ~(plan : Plan.t) ~power =
  let m = Array.length plan.Plan.order in
  let ts = plan.Plan.task_set in
  let remaining =
    Array.mapi
      (fun i per_instance ->
        let task = Task_set.task ts i in
        Array.map (fun _ -> task.Task.wcec) per_instance)
      plan.Plan.instance_subs
  in
  let e0 = Array.make m 0. and q0 = Array.make m 0. in
  let cursor = ref 0. in
  let feasible = ref true in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    let start = Float.max sub.Sub.release !cursor in
    let avail = Float.max 0. (sub.Sub.boundary -. start) in
    let rem = remaining.(sub.Sub.task).(sub.Sub.instance) in
    let need = Model.min_duration power ~cycles:(Float.max rem 1e-300) in
    let time = if rem <= 0. then 0. else Float.min avail need in
    let quota = if need <= 0. then 0. else rem *. time /. need in
    q0.(k) <- quota;
    e0.(k) <- start +. time;
    remaining.(sub.Sub.task).(sub.Sub.instance) <- rem -. quota;
    cursor := e0.(k)
  done;
  Array.iter
    (Array.iter (fun rem -> if rem > 1e-9 then feasible := false))
    remaining;
  if !feasible then Ok (e0, q0) else Error Unschedulable

let t_at_vmax power = Model.cycle_time power ~v:power.Model.v_max

(* --- Slack parametrisation -------------------------------------------- *)

(* The inner NLP runs in {e scaled} coordinates z = [u; s] with
   u_k = t_max * q_k: every coordinate of z is then a duration, the
   frontier recursion becomes an unweighted prefix chain
   (e_k = start_k + u_k + s_k, g_k = u_k + s_k - room_k), and the
   per-instance simplex constraints scale to [sum u = t_max * WCEC]
   (uniform scaling of a simplex, so projecting u is the projection of
   q). Conditioning in these coordinates is dramatically better — the
   quota and slack directions have commensurate curvature — which both
   finds lower-energy local optima and makes short inner budgets safe
   (see DESIGN.md §12). The forward sweep and its adjoint run over the
   preallocated buffers of a {!Workspace.t}; [ws.q] is kept in
   unscaled quota units ([z_k / t_max]) because the runtime objective
   and [repair] consume quotas. *)

(* Same-module float copy of [Float.max] (same formula as the stdlib,
   so same results): without flambda the cross-module call boxes its
   arguments and result, and the forward sweep runs it 3m times per
   objective evaluation. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

(* Recompute the frontier recursion over [lo, m) given the frontier
   value entering index [lo]: fills [ws.q] (unscaled quotas), [ws.e],
   [ws.start], [ws.start_ff], [ws.room] and [ws.g] on that range. *)
let forward_scaled_range (ws : Workspace.t) ~t_max (z : float array) lo frontier0 =
  let m = ws.Workspace.m in
  let plan = ws.Workspace.plan in
  let q = ws.Workspace.q in
  let e = ws.Workspace.e and start = ws.Workspace.start in
  let start_ff = ws.Workspace.start_ff in
  let room = ws.Workspace.room and g = ws.Workspace.g in
  let frontier = ref frontier0 in
  for k = lo to m - 1 do
    let sub = plan.Plan.order.(k) in
    let from_frontier = !frontier >= sub.Sub.release in
    let st = if from_frontier then !frontier else sub.Sub.release in
    let uk = fmax 0. z.(k) and sk = fmax 0. z.(m + k) in
    q.(k) <- z.(k) /. t_max;
    start.(k) <- st;
    start_ff.(k) <- from_frontier;
    room.(k) <- fmax 0. (sub.Sub.boundary -. st);
    g.(k) <- uk +. sk -. room.(k);
    e.(k) <- st +. uk +. sk;
    frontier := e.(k)
  done

(* Incremental forward sweep: the recursion is a prefix chain, so when
   [z] agrees with the point of the previous sweep ([ws.y_prev]) on a
   prefix — per index, both the u and the s coordinate — the derived
   state of that prefix is already in the workspace and only the
   suffix from the first dirty index needs recomputing, seeded with
   the frontier [ws.e.(d - 1)]. Returns the first recomputed index
   ([m] when the sweep was a full memo hit — notably every gradient
   evaluation, which {!Lepts_optim.Projected_gradient} performs at the
   point of the objective call just before it). Equality is by float
   value: NaN never occurs in iterates (guarded), and [y_prev] starts
   as NaN so the first sweep after workspace creation is always full.
   Bit-identical to a full sweep because the recomputed suffix
   performs exactly the operations the full sweep would, on state the
   full sweep would have produced. *)
let forward_scaled_incr (ws : Workspace.t) ~t_max (z : float array) =
  let m = ws.Workspace.m in
  let yp = ws.Workspace.y_prev in
  if not ws.Workspace.fwd_valid then begin
    forward_scaled_range ws ~t_max z 0 0.;
    Array.blit z 0 yp 0 (2 * m);
    ws.Workspace.fwd_valid <- true;
    0
  end
  else begin
    let d = ref 0 in
    while !d < m && z.(!d) = yp.(!d) && z.(m + !d) = yp.(m + !d) do
      incr d
    done;
    let d = !d in
    if d < m then begin
      forward_scaled_range ws ~t_max z d
        (if d = 0 then 0. else ws.Workspace.e.(d - 1));
      Array.blit z d yp d (m - d);
      Array.blit z (m + d) yp (m + d) (m - d)
    end;
    d
  end

(* Adjoint of the frontier recursion: given dE/de_k (from the runtime
   objective) and dP/dg_k (from the penalty terms), accumulate
   gradients with respect to u and s in one backward sweep over the
   branches recorded by the forward sweep. [hi] truncates the sweep to
   the last index with a nonzero sensitivity: above it every term is
   zero and the additions are bitwise no-ops — the accumulators are
   never [-0.] (they are built by [+.] chains from [+0.], which cannot
   produce [-0.] from finite summands of mixed sign) and the frontier
   adjoint entering [hi] is exactly [+0.], the value a full sweep
   computes. *)
let backward_scaled (ws : Workspace.t) ~hi ~de ~dg ~into_du ~into_ds =
  let room = ws.Workspace.room and start_ff = ws.Workspace.start_ff in
  let psi = ref 0. in
  (* psi is the adjoint of the frontier F_k flowing from later
     sub-instances. *)
  for k = hi downto 0 do
    let total = de.(k) +. !psi in
    (* e_k = start_k + u_k + s_k ; g_k = u_k + s_k - room_k *)
    into_du.(k) <- into_du.(k) +. total +. dg.(k);
    into_ds.(k) <- into_ds.(k) +. total +. dg.(k);
    (* start_k adjoint: from e_k (weight 1) and from room_k
       (room = b - start when positive, so dg/dstart = +dg). *)
    let dstart = total +. (if room.(k) > 0. then dg.(k) else 0.) in
    psi := if start_ff.(k) then dstart else 0.
  done

(* Same-module float copy of [Num_ext.clamp], for the same reason as
   [fmax]: the slack loop runs it m times per projection. *)
let[@inline] clampf ~(lo : float) ~(hi : float) (x : float) =
  if x < lo then lo else if x > hi then hi else x

(* Block projection of packed [z]: each instance's quota block onto
   its [sum = scale * WCEC] simplex, slacks clamped into [0, hyper].
   The solver projects scaled coordinates ([scale = t_max]); warm
   continuation seeds project quota units ([scale = 1.], and
   [1. *. wcec] is exact). {!Projection.simplex_blocks_ip} walks the
   workspace's flat block index in one call. *)
let make_projection (ws : Workspace.t) ~scale ~hyper =
  let m = ws.Workspace.m in
  let ts = ws.Workspace.plan.Plan.task_set in
  let off = ws.Workspace.blk_off and idx = ws.Workspace.blk_idx in
  let scratch = ws.Workspace.blk_scratch in
  let totals =
    Array.init ws.Workspace.n_blocks (fun b ->
        scale *. (Task_set.task ts ws.Workspace.blk_task.(b)).Task.wcec)
  in
  (* The clamp's [lo <= hi] precondition, checked once: [hyper] is
     fixed for the projection's lifetime. *)
  assert (0. <= hyper);
  fun (z : float array) ->
    Projection.simplex_blocks_ip ~off ~idx ~totals ~base:0 ~scratch z;
    for k = m to (2 * m) - 1 do
      z.(k) <- clampf ~lo:0. ~hi:hyper z.(k)
    done

(* Final feasibility repair: walk the total order once, capping each
   quota to what fits before its boundary at maximum speed (moving any
   overflow to the instance's next sub-instance) and lifting end-times
   just enough to fit the worst case. The solver converges to within
   the augmented-Lagrangian tolerance, so this moves the solution only
   microscopically — but it makes worst-case feasibility exact. *)
let repair ~(plan : Plan.t) ~power ~e ~q =
  let m = Array.length plan.Plan.order in
  let t_max = t_at_vmax power in
  let e = Array.copy e and q = Array.copy q in
  let next = plan.Plan.next_in_instance in
  let cursor = ref 0. in
  let ok = ref true in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    q.(k) <- Float.max 0. q.(k);
    let start = Float.max sub.Sub.release !cursor in
    let cap = Float.max 0. ((sub.Sub.boundary -. start) /. t_max) in
    if q.(k) > cap then begin
      let overflow = q.(k) -. cap in
      q.(k) <- cap;
      let k' = next.(k) in
      if k' >= 0 then q.(k') <- q.(k') +. overflow
      else begin
        (* No later segment to absorb it. Residuals far below the
           validation tolerance are solver noise and are dropped; the
           runtime executor caps actual work at the quota sum anyway. *)
        let wcec = (Task_set.task plan.Plan.task_set sub.Sub.task).Task.wcec in
        if overflow > 1e-6 *. wcec then ok := false
      end
    end;
    let min_end = start +. (t_max *. q.(k)) in
    e.(k) <- Float.min sub.Sub.boundary (Float.max e.(k) min_end);
    (* The cursor (worst-case busy frontier) never regresses: a
       zero-quota sub-instance whose segment ended before the frontier
       gets a vacuous end-time but must not relax its successors. *)
    cursor := Float.max !cursor e.(k)
  done;
  if !ok then Ok (e, q) else Error (Solver_stalled "repair could not place all workload")

(* Slack vector realising given end-times under the frontier
   recursion. *)
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

(* --- Augmented Lagrangian over the slack parametrisation --------------- *)

(* Mean runtime energy of [(e, q)] over the workload scenarios, summed
   left to right; the last scenario's waterfall split stays in [ws]. *)
let mean_energy ws ~power ~scenarios ~e ~q =
  let sum = ref 0. in
  for i = 0 to Array.length scenarios - 1 do
    sum := !sum +. Objective.eval_ws ws ~power ~totals:scenarios.(i) ~e ~w_hat:q
  done;
  !sum /. float_of_int (Array.length scenarios)

(* One augmented-Lagrangian descent from [y0] over the workspace's
   plan. [scenarios] holds one or more workload scenarios; the
   objective is their mean runtime energy (a single ACEC or WCEC
   scenario for the deterministic modes, a Monte-Carlo sample for the
   stochastic extension). *)
let solve_from ?deadline ?telemetry ~max_outer ~scenarios ~(ws : Workspace.t) ~power
    ~y0 () =
    let plan = ws.Workspace.plan in
    let m = ws.Workspace.m in
    let t_max = t_at_vmax power in
    let hyper = Plan.hyper_period plan in
    let n_scenarios = Array.length scenarios in
    let scenario_count = float_of_int n_scenarios in
    (* The scenario whose waterfall split of [ws.q] the workspace holds,
       or -1. Every objective call below splits and records its
       scenario; every forward sweep that rewrites [ws.q] clears it.
       {!Pg} evaluates the gradient at the point of the objective call
       just before it, so with one scenario the gradient reuses that
       call's split. With several, each scenario's split overwrites the
       last, and the gradient splits again per scenario. The record is
       local to this descent: whatever split on [ws] before it (such as
       {!continue_from}'s baseline energy) cannot be mistaken for one
       of its own. *)
    let split_of = ref (-1) in
    (* The accumulation functions below are built once per solve and
       capture only the workspace, so the hot path — [lag] and
       [grad_into], called once per inner iteration — allocates
       only the boxed floats its calls return. *)
    let mean_energy_ws () =
      split_of := n_scenarios - 1;
      mean_energy ws ~power ~scenarios ~e:ws.Workspace.e ~q:ws.Workspace.q
    in
    let add_gradients () =
      let de = ws.Workspace.de and dq = ws.Workspace.dq in
      let de_i = ws.Workspace.de_i and dq_i = ws.Workspace.dq_i in
      for i = 0 to n_scenarios - 1 do
        let totals = scenarios.(i) in
        let (_ : float) =
          if !split_of = i then
            Objective.eval_with_gradient_at_split_ws ws ~power ~totals ~e:ws.Workspace.e
              ~de:de_i ~dwq:dq_i
          else
            Objective.eval_with_gradient_ws ws ~power ~totals ~e:ws.Workspace.e
              ~w_hat:ws.Workspace.q ~de:de_i ~dwq:dq_i
        in
        split_of := i;
        for k = 0 to m - 1 do
          de.(k) <- de.(k) +. (de_i.(k) /. scenario_count);
          dq.(k) <- dq.(k) +. (dq_i.(k) /. scenario_count)
        done
      done
    in
    (* Forward sweep through the dirty-prefix bookkeeping; returns the
       first recomputed index (consumed by the penalty prefix cache
       below). *)
    let forward z =
      let d = forward_scaled_incr ws ~t_max z in
      if d < m then split_of := -1;
      d
    in
    let energy_of z =
      let (_ : int) = forward z in
      mean_energy_ws ()
    in
    let lambda = Array.make m 0. in
    let mu = ref 10. in
    (* Enter scaled coordinates: z = [t_max * q; s]. *)
    let x =
      ref
        (Array.init (2 * m) (fun k ->
             if k < m then t_max *. y0.(k) else y0.(k)))
    in
    let project_ip = make_projection ws ~scale:t_max ~hyper in
    let inner_total = ref 0 in
    let outer = ref 0 in
    let violation = ref infinity in
    let finished = ref false in
    let within_deadline () =
      match deadline with None -> true | Some d -> now () < d
    in
    (* Iteration-granular wall budget for the inner descent. The clock
       is consulted every 32nd poll (an inner iteration costs tens of
       microseconds even on huge instances, so expiry is detected well
       under 10 ms late) and the expired state latches. Read-only with
       respect to the descent: under a generous budget the iterates
       are bit-identical to an unbudgeted run. *)
    let should_stop =
      Option.map
        (fun d ->
          let calls = ref 0 and expired = ref false in
          fun () ->
            if (not !expired) && !calls land 31 = 0 then expired := now () >= d;
            incr calls;
            !expired)
        deadline
    in
    let ring =
      match telemetry with
      | None -> None
      | Some (slot : Telemetry.start) -> Some slot.Telemetry.s_ring
    in
    while (not !finished) && !outer < max_outer && within_deadline () do
      incr outer;
      Option.iter (fun r -> Telemetry.set_phase r !outer) ring;
      (* The multipliers and penalty weight changed: cached penalty
         prefix sums are stale. *)
      ws.Workspace.pen_valid <- false;
      let mu_now = !mu in
      let lag z =
        let d = forward z in
        let energy = mean_energy_ws () in
        let g = ws.Workspace.g in
        (* Penalty via cached ascending prefix sums: terms over the
           clean prefix [0, pstart) were accumulated by a previous
           evaluation at identical (g, lambda, mu), so resuming the
           accumulator from [pen_prefix.(pstart)] reproduces the dense
           left-to-right sum bit for bit. Inactive segments (zero
           multiplier, satisfied constraint) contribute [-. 0.], a
           bitwise no-op on any accumulator value, so the active-set
           branch skips them entirely. *)
        let pp = ws.Workspace.pen_prefix in
        let pstart = if ws.Workspace.pen_valid then d else 0 in
        let penalty = ref (if pstart = 0 then 0. else pp.(pstart)) in
        for k = pstart to m - 1 do
          if lambda.(k) > 0. || g.(k) > 0. then begin
            let t = lambda.(k) +. (mu_now *. g.(k)) in
            if t > 0. then
              penalty :=
                !penalty
                +. (((t *. t) -. (lambda.(k) *. lambda.(k))) /. (2. *. mu_now))
            else penalty := !penalty -. (lambda.(k) *. lambda.(k) /. (2. *. mu_now))
          end;
          pp.(k + 1) <- !penalty
        done;
        ws.Workspace.pen_valid <- true;
        energy +. !penalty
      in
      let grad_into z ~into =
        let (_ : int) = forward z in
        let de = ws.Workspace.de and dq = ws.Workspace.dq in
        let dg = ws.Workspace.dg and ds = ws.Workspace.ds in
        for k = 0 to m - 1 do
          de.(k) <- 0.;
          dq.(k) <- 0.;
          ds.(k) <- 0.
        done;
        (* Mean of the per-scenario objective adjoints. *)
        add_gradients ();
        (* The objective differentiates in quota units; the chain rule
           into u divides by t_max (u = t_max * q). The accumulator is
           a [+.] chain from [+0.] so it is never [-0.], and neither
           is the quotient. *)
        for k = 0 to m - 1 do
          dq.(k) <- dq.(k) /. t_max
        done;
        let g = ws.Workspace.g in
        (* Inactive segments have zero penalty slope; write the zero
           without computing the test value ([t <= 0] there, so the
           dense formula would write [0.] too). *)
        for k = 0 to m - 1 do
          if lambda.(k) > 0. || g.(k) > 0. then begin
            let t = lambda.(k) +. (mu_now *. g.(k)) in
            dg.(k) <- (if t > 0. then t else 0.)
          end
          else dg.(k) <- 0.
        done;
        (* Truncate the adjoint sweep to the last nonzero sensitivity;
           the skipped suffix only adds exact zeros. *)
        let hi = ref (m - 1) in
        while !hi >= 0 && de.(!hi) = 0. && dg.(!hi) = 0. do
          decr hi
        done;
        backward_scaled ws ~hi:!hi ~de ~dg ~into_du:dq ~into_ds:ds;
        Array.blit dq 0 into 0 m;
        Array.blit ds 0 into m m
      in
      (* Adaptive inner budget. Basin selection happens in the first
         few rounds — they deserve a real descent — while later
         rounds only track the multiplier updates, which small fixed
         budgets follow within tolerance (validated against
         per-instance budget sweeps; see DESIGN.md §12). *)
      let inner_budget = if !outer <= 3 then 300 else 60 in
      let r =
        Pg.minimize_ws ?telemetry:ring ?should_stop ~max_iter:inner_budget
          ~tol:1e-10 ~f:lag ~grad_into ~project_ip ~x0:!x ()
      in
      inner_total := !inner_total + r.Pg.iterations;
      x := r.Pg.x;
      let (_ : int) = forward !x in
      let g = ws.Workspace.g in
      let previous_violation = !violation in
      violation := 0.;
      (* The multiplier update is a no-op on inactive segments
         ([fmax 0.] of a non-positive value writes back the [+0.]
         already there), so it is skipped there; the violation max
         must still scan every constraint. *)
      for k = 0 to m - 1 do
        violation := fmax !violation g.(k);
        if lambda.(k) > 0. || g.(k) > 0. then
          lambda.(k) <- fmax 0. (lambda.(k) +. (mu_now *. g.(k)))
      done;
      Log.debug (fun f ->
          f "outer %d: energy=%g violation=%g mu=%g inner=%d" !outer (energy_of !x)
            !violation mu_now r.Pg.iterations);
      if !violation <= 1e-9 *. hyper then finished := true
      else if !violation > 0.5 *. previous_violation then mu := !mu *. 5.
    done;
    (* Leave scaled coordinates: quotas are [z_k / t_max] (filled into
       [ws.q] by the forward sweep), but the end-times are re-derived
       with repair's own quota-unit products [t_max *. q_k] rather than
       taken from the scaled sweep — [t_max *. (u_k /. t_max)] can
       round one ulp above [u_k], and end-times computed from [u_k]
       would then sit below {!repair}'s minimum and be lifted by an
       ulp on every re-solve, breaking the repair-identity that warm
       continuation ({!solve_warm}) relies on for its seed-kept
       fixpoint. *)
    let z = !x in
    let (_ : int) = forward z in
    (let q = ws.Workspace.q and e = ws.Workspace.e in
     let frontier = ref 0. in
     for k = 0 to m - 1 do
       let sub = plan.Plan.order.(k) in
       let st = if !frontier >= sub.Sub.release then !frontier else sub.Sub.release in
       let qk = fmax 0. q.(k) and sk = fmax 0. z.(m + k) in
       e.(k) <- st +. (t_max *. qk) +. sk;
       frontier := e.(k)
     done;
     (* [ws.e] no longer describes [y_prev]. *)
     ws.Workspace.fwd_valid <- false);
    let result =
      match repair ~plan ~power ~e:ws.Workspace.e ~q:ws.Workspace.q with
      | Error _ as err -> err
      | Ok (e, q) ->
        let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
        let stats =
          { objective =
              mean_energy ws ~power ~scenarios ~e:schedule.Static_schedule.end_times
                ~q:schedule.Static_schedule.quotas;
            max_violation = !violation;
            outer_iterations = !outer;
            inner_iterations = !inner_total }
        in
        Ok (schedule, stats)
    in
    (match telemetry with
    | None -> ()
    | Some (slot : Telemetry.start) ->
      slot.Telemetry.outer_rounds <- !outer;
      slot.Telemetry.inner_iterations <- !inner_total;
      (match result with
      | Ok (_, stats) -> slot.Telemetry.final_objective <- stats.objective
      | Error err -> slot.Telemetry.failure <- Some (Format.asprintf "%a" pp_error err)));
    result

(* The NLP is non-convex and piecewise smooth, so a single descent run
   can stall. Each solve therefore runs one descent from the greedy
   (as-soon-as-possible) worst-case schedule plus one from each
   caller-provided warm start (e.g. the WCS solution when solving ACS),
   and keeps the best result. The starts are independent, so
   [jobs > 1] runs them on a domain pool; each start owns its
   workspace, results come back indexed by start, and the reduction
   below scans them in start order with a strict-improvement test — so
   the pick is the same schedule for every [jobs] value. *)
let solve_multi_start ?telemetry ?(jobs = 1) ~budget ~warm_starts ~scenarios
    ~(plan : Plan.t) ~power () =
  match initial_point ~plan ~power with
  | Error _ as err -> err
  | Ok (_, q0) ->
    let m = Array.length plan.Plan.order in
    let t_max = t_at_vmax power in
    let t0 = now () in
    let deadline = Option.map (fun b -> t0 +. b) budget.wall_budget in
    let point_of_eq (e, q) = Array.append q (slacks_for plan ~t_max ~e ~q) in
    let candidates =
      Array.of_list
        (Array.append q0 (Array.make m 0.) :: List.map point_of_eq warm_starts)
    in
    let n_starts = Array.length candidates in
    Metrics.incr m_solves;
    Metrics.incr ~by:n_starts m_starts;
    Option.iter (fun s -> Telemetry.init_starts s ~n:n_starts) telemetry;
    (* Pool workers start with an empty span stack; capturing the
       caller's innermost span here and passing it as the explicit
       parent keeps span paths identical for every [jobs] value. *)
    let span_parent = match Span.current () with Some p -> p | None -> "" in
    let attempts, (_ : Pool.stats) =
      Pool.run ~jobs ~n:n_starts ~f:(fun start ->
          Span.with_ ~parent:span_parent ~name:"start" (fun () ->
              let telemetry =
                Option.map (fun s -> Telemetry.start_slot s start) telemetry
              in
              try
                solve_from ?deadline ?telemetry ~max_outer:budget.max_outer
                  ~scenarios ~ws:(Workspace.create plan) ~power
                  ~y0:candidates.(start) ()
              with Lepts_optim.Guard.Non_finite what ->
                Error
                  (Solver_stalled
                     (Printf.sprintf "non-finite evaluation (%s)" what))))
    in
    Metrics.observe h_solve_seconds (now () -. t0);
    let best = ref None in
    (* Keep the most recent failure: when every start fails, the final
       error must say why instead of a generic stall message. *)
    let last_error = ref None in
    Array.iteri
      (fun start attempt ->
        match attempt with
        | Error err ->
          Metrics.incr m_start_failures;
          Log.debug (fun f -> f "start %d failed: %a" start pp_error err);
          last_error := Some err
        | Ok (schedule, stats) -> (
          match !best with
          | Some (_, best_stats) when best_stats.objective <= stats.objective -> ()
          | _ -> best := Some (schedule, stats)))
      attempts;
    (match !best with
    | Some result -> Ok result
    | None ->
      let detail =
        match !last_error with
        | Some (Solver_stalled why) -> ": last failure: " ^ why
        | Some Unschedulable -> ": last failure: unschedulable"
        | None -> ""
      in
      Error
        (Solver_stalled ("no start point produced a feasible schedule" ^ detail)))

let solve ?(budget = default_budget) ?telemetry ?jobs ?(warm_starts = []) ~mode
    ~(plan : Plan.t) ~power () =
  let span_name =
    match mode with
    | Objective.Average -> "solve:acs"
    | Objective.Worst -> "solve:wcs"
  in
  Span.with_ ~name:span_name (fun () ->
      let scenarios = [| Objective.instance_totals mode plan |] in
      solve_multi_start ?telemetry ?jobs ~budget ~warm_starts ~scenarios ~plan ~power
        ())

let solve_stochastic ?jobs ?(warm_starts = []) ?(scenarios = 16) ?(seed = 1)
    ~(plan : Plan.t) ~power () =
  if scenarios <= 0 then invalid_arg "Solver.solve_stochastic: scenarios";
  let rng = Lepts_prng.Xoshiro256.create ~seed in
  let sample () =
    Array.mapi
      (fun i per_instance ->
        let task = Task_set.task plan.Plan.task_set i in
        let sigma = Task.sigma task in
        Array.map
          (fun _ ->
            Lepts_prng.Dist.truncated_normal rng ~mu:task.Task.acec ~sigma
              ~lo:task.Task.bcec ~hi:task.Task.wcec)
          per_instance)
      plan.Plan.instance_subs
  in
  let scenarios = Array.init scenarios (fun _ -> sample ()) in
  Span.with_ ~name:"solve:stochastic" (fun () ->
      solve_multi_start ?jobs ~budget:default_budget ~warm_starts ~scenarios ~plan
        ~power ())

let solve_acs ?budget ?telemetry ?jobs ?warm_starts ~plan ~power () =
  solve ?budget ?telemetry ?jobs ?warm_starts ~mode:Objective.Average ~plan ~power ()

let solve_wcs ?budget ?telemetry ?jobs ?warm_starts ~plan ~power () =
  solve ?budget ?telemetry ?jobs ?warm_starts ~mode:Objective.Worst ~plan ~power ()

(* --- Warm-start continuation and incremental re-solve ------------------- *)

(* A previous solution can seed the current solve only when both plans
   put the same segment of the same instance at every order position
   with the same window — then quotas and end-times line up index by
   index. The windows are compared exactly: continuation across plans
   that merely {e look} similar would silently change which local
   optimum the descent lands in. *)
let structurally_compatible ~(plan : Plan.t) (prev : Static_schedule.t) =
  let prev_plan = prev.Static_schedule.plan in
  let m = Array.length plan.Plan.order in
  Array.length prev_plan.Plan.order = m
  &&
  let ok = ref true in
  for k = 0 to m - 1 do
    let a = plan.Plan.order.(k) and b = prev_plan.Plan.order.(k) in
    if
      a.Sub.task <> b.Sub.task
      || a.Sub.instance <> b.Sub.instance
      || a.Sub.release <> b.Sub.release
      || a.Sub.boundary <> b.Sub.boundary
    then ok := false
  done;
  !ok

(* Do the previous quotas still satisfy the current plan's per-instance
   [sum = WCEC] constraints? If so the previous solution is feasible
   as-is (it was repaired when produced) and can be kept verbatim; if
   not (e.g. the WCECs were rescaled) it must be re-projected first.
   The tolerance is {!repair}'s own drop threshold ([1e-6 * wcec]):
   repair discards last-segment overflow below it as solver noise, so
   the solver's own output can undershoot the sums by that much —
   demanding better here would force a spurious re-projection of every
   schedule the solver itself just produced (and with it, ulp drift on
   warm re-solves of converged instances). A genuine WCEC rescale
   differs at percent scale and is still caught. *)
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

(* Relative margin by which a warm continuation must beat its seed. *)
let seed_margin = 1e-6

(* One continuation descent seeded from [prev], reduced prev-first with
   a relative strict-improvement threshold: the continuation replaces
   the seed only when it is better by more than [seed_margin]
   (relative to the seed's objective). Restarting the augmented
   Lagrangian from a converged point produces sub-tolerance drift
   (fresh multipliers, one more projection); the threshold keeps the
   seed in that case, so re-solving a converged instance returns it
   bit-identically and a warm solve is never worse than its seed. *)
let continue_from ?deadline ?telemetry ~max_outer ~scenarios ~(plan : Plan.t) ~power
    ~(prev : Static_schedule.t) () =
  let m = Array.length plan.Plan.order in
  let t_max = t_at_vmax power in
  let ws = Workspace.create plan in
  let prev_e = prev.Static_schedule.end_times in
  let prev_q = prev.Static_schedule.quotas in
  (* Seed point: previous quotas re-projected onto the current
     per-instance simplexes (in quota units), end-times clamped into
     the current windows, slacks re-derived to realise those end-times
     under the frontier recursion. *)
  let y0 = Array.append (Array.copy prev_q) (Array.make m 0.) in
  make_projection ws ~scale:1. ~hyper:(Plan.hyper_period plan) y0;
  let e_seed =
    Array.mapi
      (fun k e ->
        let sub = plan.Plan.order.(k) in
        Lepts_util.Num_ext.clamp ~lo:sub.Sub.release ~hi:sub.Sub.boundary e)
      prev_e
  in
  let q_seed = Array.sub y0 0 m in
  Array.blit (slacks_for plan ~t_max ~e:e_seed ~q:q_seed) 0 y0 m m;
  (* Baseline candidate: the previous solution itself. When its quota
     sums still match the plan, [repair] is the identity on a repaired
     schedule, so keeping the baseline reproduces [prev] bit for bit;
     otherwise the re-projected seed stands in. [outer = inner = 0]
     marks "seed kept" in the returned stats. *)
  let baseline =
    let e_b, q_b =
      if quota_sums_match ~plan prev then (prev_e, prev_q) else (e_seed, q_seed)
    in
    match repair ~plan ~power ~e:e_b ~q:q_b with
    | Error _ as err -> err
    | Ok (e, q) ->
      let schedule = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q in
      Ok
        ( schedule,
          { objective =
              mean_energy ws ~power ~scenarios ~e:schedule.Static_schedule.end_times
                ~q:schedule.Static_schedule.quotas;
            max_violation = 0.; outer_iterations = 0; inner_iterations = 0 } )
  in
  let continued =
    try solve_from ?deadline ?telemetry ~max_outer ~scenarios ~ws ~power ~y0 ()
    with Lepts_optim.Guard.Non_finite what ->
      Error (Solver_stalled (Printf.sprintf "non-finite evaluation (%s)" what))
  in
  match (baseline, continued) with
  | Ok (_, bstats), Ok (_, cstats)
    when cstats.objective
         >= bstats.objective -. (seed_margin *. Float.abs bstats.objective) ->
    baseline
  | _, Ok result -> Ok result
  | Ok _, Error _ -> baseline
  | (Error _ as err), Error _ -> err

let solve_warm ?(budget = default_budget) ?telemetry ?jobs ~mode
    ~(prev : Static_schedule.t) ~(plan : Plan.t) ~power () =
  if structurally_compatible ~plan prev then
    (* Only workloads (ACEC / WCEC values) changed: one continuation
       descent from the previous solution, never worse than the seed. *)
    Span.with_ ~name:"solve:warm" (fun () ->
        let scenarios = [| Objective.instance_totals mode plan |] in
        let t0 = now () in
        let deadline = Option.map (fun b -> t0 +. b) budget.wall_budget in
        Metrics.incr m_solves;
        Metrics.incr m_starts;
        Option.iter (fun s -> Telemetry.init_starts s ~n:1) telemetry;
        let slot = Option.map (fun s -> Telemetry.start_slot s 0) telemetry in
        let result =
          continue_from ?deadline ?telemetry:slot ~max_outer:budget.max_outer
            ~scenarios ~plan ~power ~prev ()
        in
        Metrics.observe h_solve_seconds (now () -. t0);
        (match result with
        | Error _ -> Metrics.incr m_start_failures
        | Ok _ -> ());
        result)
  else if Array.length prev.Static_schedule.end_times = Array.length plan.Plan.order
  then
    (* Same order length but shifted windows (e.g. one task's period or
       deadline changed): the previous point still carries information,
       so feed it to the multi-start as an extra warm start. *)
    solve ~budget ?telemetry ?jobs
      ~warm_starts:[ (prev.Static_schedule.end_times, prev.Static_schedule.quotas) ]
      ~mode ~plan ~power ()
  else
    (* Structure changed (task added/removed): cold solve. *)
    solve ~budget ?telemetry ?jobs ~mode ~plan ~power ()
