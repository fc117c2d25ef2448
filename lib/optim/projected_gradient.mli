(** Projected gradient descent with spectral (Barzilai–Borwein) steps
    and a non-monotone Armijo safeguard.

    Minimises a (piecewise-) smooth function over a closed convex set
    given by its in-place Euclidean projection. This is the inner
    solver of both augmented-Lagrangian loops, [Lepts_core.Solver]'s
    and [Lepts_core.Literal_nlp]'s: the scheduling feasible sets
    (boxes and per-instance workload simplexes) project cheaply. *)

type report = {
  x : float array;
  value : float;
  step_norm : float;  (** norm of the last projected-gradient step *)
  iterations : int;
  converged : bool;
}

val minimize_ws :
  ?telemetry:Lepts_obs.Telemetry.ring ->
  ?should_stop:(unit -> bool) ->
  ?max_iter:int ->
  ?tol:float ->
  f:(float array -> float) ->
  grad_into:(float array -> into:float array -> unit) ->
  project_ip:(float array -> unit) ->
  x0:float array ->
  unit ->
  report
(** [minimize_ws ~f ~grad_into ~project_ip ~x0 ()] iterates
    [x <- project (x - step * grad x)] with BB step lengths, accepting a
    step when it improves on the maximum of the last 10 objective
    values (Grippo–Lampariello–Lucidi non-monotone rule), halving a
    rejected step at most 60 times. It stops after [max_iter] (default
    2000) iterations, or with [converged] set on a projected step that
    is zero or below [tol] (default [1e-9]) relative to the iterate
    norm, or when no halving is accepted. [x0] is projected first, so
    it need not be feasible.

    [grad_into x ~into] writes the gradient at [x] into [into], and
    [project_ip] projects its argument in place, so the descent loop
    allocates nothing per iteration beyond the boxed float [f] returns
    when [f], [grad_into] and [project_ip] are themselves
    allocation-free (telemetry capture, when on, boxes its record's
    scalars). The vector passed
    to [f]/[grad_into] is an internal buffer: read it, never retain
    it.

    Raises {!Guard.Non_finite} when the objective at the (projected)
    start point or any accepted gradient contains NaN or infinity —
    iterating on non-finite values would otherwise silently return a
    garbage minimiser. Non-finite {e trial} objective values during
    backtracking remain non-fatal: the step is simply rejected.

    [?telemetry] captures one {!Lepts_obs.Telemetry.record} per
    iteration (accepted steps and the terminal stalled/zero-step
    iteration) into the given ring. Capture is strictly observational:
    the performed float operations are identical with or without it,
    so the returned report is bit-identical either way.

    [?should_stop] is polled once per iteration, before the iteration
    runs; returning [true] ends the descent with [converged = false]
    and the current iterate. The solver uses it to enforce a wall
    budget at iteration granularity without paying a clock read per
    iteration (the callback itself decides how often to consult the
    clock). A callback that never returns [true] leaves the run
    bit-identical to omitting it. *)
