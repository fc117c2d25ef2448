(** Resilient solve pipeline: structured fallback ACS → WCS → RM.

    The scheduling NLP is non-convex; {!Lepts_core.Solver} already runs
    multiple starts, but a production pipeline must also survive the
    case where {e every} start stalls, exceeds its budget, or trips a
    non-finite guard. This module arranges a structured fallback chain:

    + {b ACS} — the paper's average-case-aware schedule, under the
      configured iteration/wall budget;
    + {b WCS} — the worst-case baseline (a better-conditioned NLP),
      under its own budget;
    + {b RM at v_max} — the canonical worst-case rate-monotonic
      schedule at maximum speed ({!Lepts_core.Solver.initial_point}).
      No optimisation is involved, so this stage cannot stall; it fails
      only when the task set is unschedulable outright.

    Every candidate is re-checked with the independent
    {!Lepts_core.Validate.check} before being accepted, and the
    returned {!diagnostics} record which stages failed and why —
    replacing the former drop-errors-on-the-floor behaviour. *)

type config = { acs : Lepts_core.Solver.budget; wcs : Lepts_core.Solver.budget }
(** One solver budget per NLP stage. A [max_outer <= 0] fails that
    stage before it starts; [wall_budget] caps the stage's wall-clock
    seconds. *)

val default_config : config
(** {!Lepts_core.Solver.default_budget} for both stages. *)

type stage = Acs | Wcs | Rm_vmax

val stage_name : stage -> string

type diagnostics = {
  attempts : (stage * string) list;
      (** failed stages in attempt order, with the failure reason *)
  chosen : stage;  (** the stage that produced the returned schedule *)
  stats : Lepts_core.Solver.stats option;
      (** NLP statistics; [None] for the [Rm_vmax] fallback *)
}

val solve :
  ?config:config ->
  ?skip_acs:bool ->
  ?prev:Lepts_core.Static_schedule.t ->
  ?telemetry:Lepts_obs.Telemetry.collector ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Lepts_core.Static_schedule.t * diagnostics, Lepts_core.Solver.error) result
(** [solve ~plan ~power ()] walks the fallback chain and returns the
    first candidate that passes {!Lepts_core.Validate.check}, together
    with diagnostics naming any stages that failed. [Error] means the
    whole chain failed — [Unschedulable] when any stage reported the
    task set unschedulable, otherwise [Solver_stalled] carrying every
    stage's failure reason.

    [skip_acs] (default [false]) starts the chain at WCS — the route a
    {!Lepts_serve.Breaker} takes while its circuit is open. The skip is
    recorded in [diagnostics.attempts] as
    [(Acs, "skipped (circuit open)")] and counted in
    [lepts_pipeline_acs_skipped_total].

    [prev] (default: none) seeds the ACS stage with a previously solved
    schedule via {!Lepts_core.Solver.solve_warm}: when the plan is
    structurally compatible with [prev]'s the stage runs the warm
    continuation (never worse than its seed), otherwise the warm
    re-solve itself falls back to a cold multi-start. The serve
    layer's warm chains (near-identical requests in one wave) pass it;
    the fallback stages never see it.

    When a failing NLP stage had a wall budget and it is spent, the
    failure reason in [diagnostics.attempts] (and in the
    [Solver_stalled] chain) carries a
    ["[<stage> wall budget expired: <elapsed>s elapsed of <budget>s
    budget]"] suffix, and [lepts_pipeline_budget_expired_total{stage}]
    is bumped — so a multi-stage report never loses which stage timed
    out, or by how much.

    Observability: every stage attempt, failure, win and degradation
    (a win by any stage below ACS) is counted in
    {!Lepts_obs.Metrics.default} under [lepts_pipeline_*] with a
    [stage] label, and each stage runs under a
    [pipeline:<stage>] {!Lepts_obs.Span} when spans are enabled.
    [telemetry] registers one convergence sink per NLP stage actually
    attempted (labels [pipeline:acs] / [pipeline:wcs]). *)

val pp_diagnostics : Format.formatter -> diagnostics -> unit
