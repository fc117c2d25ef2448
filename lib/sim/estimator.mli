(** Online per-task ACEC estimation (the adaptive half of the loop).

    The paper fixes each task's average-case execution cycles (ACEC)
    offline and solves the ACS schedule once. When the actual workload
    distribution drifts — the fault injector's overruns push the mean
    up, or a bimodal distribution keeps it far below the configured
    ACEC — that offline point grows stale and the schedule stretches
    the wrong segments. This module closes the loop: it folds the
    per-task cycles actually consumed in each simulated hyper-period
    ({!Outcome.t}'s [consumed] field) into a per-task exponentially
    weighted moving average (EWMA), and tells the caller when the
    predicted ACEC has drifted far enough from the one the current
    schedule was solved with to be worth an incremental re-solve
    ({!Lepts_core.Solver.solve_warm}).

    The EWMA is [s <- alpha * x + (1 - alpha) * s], seeded with the
    offline ACEC, so a zero-observation estimator predicts exactly the
    static configuration.

    Estimates are always clamped into the task's [[BCEC, WCEC]]
    interval — the invariant {!Lepts_task.Task.create} enforces — so a
    committed estimate always yields a valid task set and a plan
    structurally identical to the original ({!plan_with_acecs}), which
    is precisely the cheap continuation path of [Solver.solve_warm].

    {2 Determinism contract}

    A value of type {!t} is immutable and every function here is pure:
    the state after round [r] is a fold of the rounds' [consumed]
    arrays in round order, and those arrays are themselves
    deterministic per round. Callers that simulate rounds in parallel
    must therefore fold observations in round index order (as
    {!Lepts_robust.Adaptive} does, epoch by epoch) — then the whole
    adaptive run is bit-identical for every [-j], which CI gates.
    See doc/ADAPTATION.md. *)

type config = {
  alpha : float;
      (** EWMA smoothing factor in (0, 1]; larger alpha forgets
          faster *)
  drift_threshold : float;
      (** relative drift (vs the ACEC the current schedule was solved
          with) that triggers a re-solve; strictly greater-than, so
          drift exactly at the threshold keeps the plan *)
  hysteresis : float;
      (** in [[0, 1]]: after a re-solve the trigger is disarmed until
          drift falls to [drift_threshold * (1 - hysteresis)] or
          below; 0 disables hysteresis *)
  resolve_budget : int;
      (** maximum number of re-solves per run; once spent, further
          drift events report [Exhausted] and the run continues on
          the last committed schedule *)
}

val default_config : config
(** EWMA with [alpha = 0.2], threshold 0.10, hysteresis 0.5,
    budget 8. *)

val validate : config -> unit
(** Raises [Invalid_argument] naming the offending field: [alpha] must
    lie in (0, 1], [drift_threshold > 0] and finite,
    [hysteresis] in [[0, 1]], [resolve_budget >= 0]. Rejects NaN. *)

type t
(** Immutable estimator state. *)

val create : config -> plan:Lepts_preempt.Plan.t -> t
(** Fresh state for [plan]'s task set: zero observations, estimates
    and applied ACECs both equal to the plan's configured ACECs,
    trigger armed, full budget. Validates [config]. *)

val observe : t -> consumed:float array -> t
(** Fold one round's observation. [consumed.(i)] is the total cycles
    task [i] actually executed during the round
    ({!Outcome.t}'s [consumed]); the per-task sample fed to the
    EWMA is [consumed.(i) / instances_i], the mean per-instance
    cycles.
    Raises [Invalid_argument] when the array length does not match the
    task count. *)

val observations : t -> int
(** Rounds folded so far. *)

val estimates : t -> float array
(** Current per-task ACEC predictions, clamped into
    [[BCEC, WCEC]]. With zero observations this is the plan's
    configured ACECs. Fresh array, caller-owned. *)

val drift : t -> float
(** Maximum over tasks of
    [|estimate - applied| / max applied eps], where [applied] is the
    per-task ACECs the current schedule was solved with (the drift
    baseline) — the relative deviation the threshold is compared
    against. *)

val armed : t -> bool
(** Whether the drift trigger is armed (see [hysteresis]). *)

val resolves_done : t -> int

type decision =
  | Keep  (** drift within threshold (or trigger disarmed) *)
  | Resolve of float array
      (** drift exceeded the threshold with budget remaining: re-solve
          with these per-task ACECs (clamped {!estimates}), then
          {!committed} *)
  | Exhausted
      (** drift exceeded the threshold but the re-solve budget is
          spent: keep the current schedule and count the refusal *)

val decide : t -> t * decision
(** Drift-check the current state. The returned state only updates the
    hysteresis arming (a disarmed trigger re-arms once drift has
    fallen back to [threshold * (1 - hysteresis)] or below); folding
    and committing remain separate so a failed re-solve can simply
    keep the old state and retry at the next check. *)

val committed : t -> acecs:float array -> t
(** Record a successful re-solve against [acecs]: the drift baseline
    becomes [acecs], one unit of budget is consumed and the trigger is
    disarmed until re-armed by {!decide}. *)

val plan_with_acecs :
  Lepts_preempt.Plan.t -> acecs:float array -> Lepts_preempt.Plan.t
(** Re-expand [plan]'s task set with each task's ACEC replaced by
    [acecs.(i)] clamped into [[bcec_i, wcec_i]]. Periods, priorities,
    WCEC and BCEC are untouched, so the result is structurally
    identical to [plan] (same sub-instance order and windows) — the
    precondition for [Solver.solve_warm]'s continuation path. *)
