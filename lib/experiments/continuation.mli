(** Warm-start continuation sweep over BCEC/WCEC ratios.

    Neighbouring ratios of the same application share plan structure
    (the ratio only rescales BCEC/ACEC), so each point's solve can
    continue from the previous point's solution
    ({!Lepts_core.Solver.solve_warm}) instead of restarting
    the full multi-start. This module runs one ratio sweep either cold
    or warm and reports per-point solve times — the bench compares the
    two to quantify the sweep-level win.

    Deliberately {e not} checkpointed: chaining point [i] from point
    [i-1] makes points order-dependent, which is incompatible with the
    checkpointed sweeps' resume-any-subset guarantee. Fig6a/Fig6b
    therefore warm-start only {e within} a measurement (ACS from WCS)
    and keep cells independent; cross-point chaining lives here, where
    the whole sweep is one unit (see EXPERIMENTS.md). *)

type point = {
  ratio : float;
  predicted_energy : float;  (** solver objective at this point *)
  solve_s : float;  (** wall-clock of this point's solve *)
  outer_iterations : int;
  inner_iterations : int;
      (** rounds and iterations summed over every start the point's
          solve ran, read from a telemetry sink: a warm point counts its
          continuation descent even when it keeps its seed *)
  continued : bool;  (** seeded from the previous point's solution *)
}

type t = { points : point list; total_s : float; warm : bool }

val run :
  ?warm:bool ->
  ?jobs:int ->
  ?mode:Lepts_core.Objective.mode ->
  ratios:float list ->
  build:(ratio:float -> Lepts_task.Task_set.t) ->
  power:Lepts_power.Model.t ->
  unit ->
  (t, Lepts_core.Solver.error) result
(** Solves [build ~ratio] for each ratio in list order. [warm]
    (default false) seeds each solve from the previous point's
    schedule; the first point is always cold, so a warm and a cold
    sweep agree bit-for-bit on it. [jobs] parallelises the multi-start
    of cold solves (and of {!Lepts_core.Solver.solve_warm}'s cold
    branches); warm continuations are a single descent. [mode]
    defaults to {!Lepts_core.Objective.Average} (ACS). Fails with the
    first point's solver error, if any. *)
