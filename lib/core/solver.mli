(** Offline voltage scheduling by non-linear programming.

    Solves the paper's NLP over the fully preemptive plan. Rather than
    optimising end-times directly under chain constraints, the solver
    uses an equivalent {e slack parametrisation} that keeps every
    iterate structurally consistent:

    - variables: per-sub-instance worst-case quotas [q_k] (projected
      onto one [sum = WCEC] simplex per instance) and non-negative
      slacks [s_k];
    - the worst-case frontier is derived by the forward recursion
      [F_k = max(r_k, F_(k-1)) + t_max * q_k + s_k], and the static
      end-time of sub-instance [k] is [e_k = F_k] — so the paper's
      release, ordering and worst-case-fit constraints hold by
      construction;
    - the only remaining constraints are the segment capacities
      [t_max * q_k + s_k <= max(0, b_k - max(r_k, F_(k-1)))], handled
      by an augmented-Lagrangian outer loop with exact O(M) forward /
      adjoint evaluation;
    - objective: runtime energy under greedy reclamation when every
      instance takes its ACEC ({!Objective.Average}, giving {b ACS}) or
      its WCEC ({!Objective.Worst}, giving the baseline {b WCS}).

    The initial point is the worst-case rate-monotonic execution at
    maximum speed (all slacks zero), which is feasible whenever the
    task set is RM-schedulable; the solver then trades that slack for
    runtime energy.

    Each computation of the descent has one structure-exploiting
    kernel: a whole-vector block projection over the workspace's flat
    per-instance index, plan-wide waterfall split and adjoint,
    incremental dirty-prefix forward sweeps, cached penalty prefix
    sums and active-segment pruning of the penalty, multiplier and
    adjoint loops (DESIGN.md §12). The gradient reuses the waterfall
    split its objective call made at the same point and scenario. No
    kernel allocates or calls another function per element, so an
    inner iteration allocates only the few boxed floats and closures
    of the descent's own bookkeeping (DESIGN.md §8). The test suite
    checks the kernels bit for bit against a dense reference solve. *)

type error =
  | Unschedulable  (** the task set misses a deadline even at v_max *)
  | Solver_stalled of string  (** the NLP did not reach feasibility *)

type stats = {
  objective : float;  (** energy at the solution, in model units *)
  max_violation : float;  (** residual capacity violation before repair *)
  outer_iterations : int;
  inner_iterations : int;
}
(** Describes the returned start only. The iteration counts are that
    start's descent, not the solve's work: they read [0]/[0] when
    {!solve_warm} keeps its seed, even though a continuation descent
    ran. A telemetry sink counts every start. *)

type budget = {
  max_outer : int;
      (** augmented-Lagrangian outer rounds per start; [0] runs none,
          so the start point itself is repaired and returned *)
  wall_budget : float option;
      (** wall-clock seconds for the whole solve, read with
          [Unix.gettimeofday]; [None] is uncapped *)
}
(** How much work one solve may do. Every entry point that optimises
    takes it as [?budget]. *)

val default_budget : budget
(** 30 outer rounds, no wall-clock cap. *)

val initial_point :
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  (float array * float array, error) result
(** [(e0, quotas0)]: the worst-case RM schedule at maximum speed.
    Exposed for tests and for warm-starting experiments. *)

val repair :
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  e:float array ->
  q:float array ->
  (float array * float array, error) result
(** Exact worst-case feasibility repair: one forward sweep capping each
    quota to its segment capacity (overflow moves to the instance's
    next segment) and lifting end-times to fit the worst case. Used as
    the final step of every solve and by {!Literal_nlp}; moves
    near-feasible solutions only microscopically. *)

val solve :
  ?budget:budget ->
  ?telemetry:Lepts_obs.Telemetry.solve ->
  ?jobs:int ->
  ?warm_starts:(float array * float array) list ->
  mode:Objective.mode ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Static_schedule.t * stats, error) result
(** Solve for the given objective mode. The NLP is non-convex, so the
    solver runs one descent from the greedy as-soon-as-possible start
    plus one from each of the [warm_starts], given as
    [(end_times, quotas)] pairs (e.g. the WCS solution when solving
    ACS), and returns the best: a cold solve is one descent. Every
    descent uses the analytic adjoint gradient
    ({!Objective.eval_with_gradient_ws}).

    [jobs] (default 1, must be [>= 1]) runs the independent starts on
    up to that many domains ({!Lepts_par.Pool}). Each start owns its
    scratch workspace and the best-pick scans results in start order
    with a strict-improvement test, so the returned schedule is
    identical for every [jobs] value (when [budget.wall_budget] is
    [None] — a wall cap is the one source of [jobs]-dependence, see
    below).

    [budget] (default {!default_budget}) caps each start's outer
    rounds and the wall-clock time spent across all starts: once the
    wall cap is spent, no further outer iteration begins and the
    current iterate is repaired and returned if feasible. Because the
    cap is wall time shared by all starts, parallel starts each see
    more of it than sequential ones — wall-capped solves may therefore
    return different (never worse-than-budgeted) results across [jobs]
    values. Non-finite objective or gradient evaluations (see
    {!Lepts_optim.Guard}) abort the offending start with a
    [Solver_stalled] error instead of iterating on garbage; when every
    start fails, the final error reports the last failure's cause.

    [telemetry] captures per-start convergence traces (one
    {!Lepts_obs.Telemetry.ring} per start, allocated once the start
    count is known) plus each start's outcome into the given sink.
    Capture is strictly observational — the returned schedule and stats
    are bit-identical with telemetry on or off, for every [jobs] value
    (asserted by the test suite). Solves are also timed under
    {!Lepts_obs.Span} paths ([solve:acs/start], ...) when spans are
    enabled, and always counted in {!Lepts_obs.Metrics.default}
    ([lepts_solver_*] series). *)

val solve_acs :
  ?budget:budget ->
  ?telemetry:Lepts_obs.Telemetry.solve ->
  ?jobs:int ->
  ?warm_starts:(float array * float array) list ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Static_schedule.t * stats, error) result
(** [solve ~mode:Average] — the paper's proposed scheduler. *)

val solve_wcs :
  ?budget:budget ->
  ?telemetry:Lepts_obs.Telemetry.solve ->
  ?jobs:int ->
  ?warm_starts:(float array * float array) list ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Static_schedule.t * stats, error) result
(** [solve ~mode:Worst] — the baseline that only considers WCEC. *)

val solve_warm :
  ?budget:budget ->
  ?telemetry:Lepts_obs.Telemetry.solve ->
  ?jobs:int ->
  mode:Objective.mode ->
  prev:Static_schedule.t ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Static_schedule.t * stats, error) result
(** Re-solve seeded from a previous solution, picking the cheapest
    strategy that fits what changed between [prev]'s plan and [plan]:

    - structurally identical plans (only ACEC/WCEC values moved — ACS
      seeded from WCS, ratio continuation, the serve warm chains and
      the adaptive estimator): one continuation descent, below;
    - same order length but shifted windows (one task's timing
      changed): the cold multi-start of {!solve} with [prev] as an
      extra warm start;
    - different order length (task added or removed): plain cold
      {!solve}.

    The continuation is one projected-gradient descent instead of the
    full multi-start. The previous quotas are re-projected onto the
    current per-instance [sum = WCEC] simplexes, the end-times clamped
    into the current windows and the slacks re-derived, and the
    augmented Lagrangian restarts from that point (fresh multipliers).

    The reduction is prev-first with a {e relative} strict-improvement
    threshold of [1e-6]: the continuation result replaces the
    (repaired, re-evaluated) seed only when it is better by more than
    that fraction of the seed's objective.
    Consequences, both asserted by the test suite:

    - re-solving a converged instance warm returns the previous
      schedule bit-identically ([stats.outer_iterations = 0] marks the
      seed being kept);
    - a warm solve is never worse than its seed evaluated under the
      current objective — even under an exhausted wall budget, where
      the seed is returned as-is.

    [jobs] parallelises only the two cold branches; the continuation
    itself is a single descent, so its result is the same for every
    [jobs] value. Note the warm pick may differ from the cold
    multi-start's (fewer basins explored). *)

val solve_stochastic :
  ?jobs:int ->
  ?warm_starts:(float array * float array) list ->
  ?scenarios:int ->
  ?seed:int ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Static_schedule.t * stats, error) result
(** Probability-weighted extension (the paper's §3.2 remark: "the
    probability weighted workload can be used in the objective function
    if the probability density function is known"): instead of the
    single ACEC point, minimise the {e mean} runtime energy over
    [scenarios] (default 16) Monte-Carlo draws of the per-instance
    workloads from the truncated-normal distribution the evaluation
    uses. Deterministic given [seed]. [stats.objective] is the mean
    scenario energy. Runs under {!default_budget}. *)

val pp_error : Format.formatter -> error -> unit
