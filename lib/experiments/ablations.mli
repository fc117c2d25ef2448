(** Ablations of the design choices DESIGN.md calls out.

    Each function runs one comparison on a given task set and returns a
    printable table:

    - {!formulations}: the production slack-parametrised NLP vs the
      paper-literal constrained formulation (predicted energy and
      constraint violation; the solve times are the [solve:acs] and
      [solve:literal] spans of [lepts profile ablations]);
    - {!objectives}: ACS (ACEC point) vs the stochastic
      probability-weighted objective vs WCS, judged by simulated mean
      energy;
    - {!quantization}: continuous greedy reclamation vs discrete
      voltage levels of varying granularity;
    - {!structures}: preemptive vs non-preemptive plans on the same
      task set (where the non-preemptive one is schedulable), plus the
      YDS lower bound for context.

    Every comparison accepts [jobs] (default 1): it parallelises the
    solver's multi-start and, where a simulation is involved, the
    simulation rounds — tables are bit-identical for every value. *)

val formulations :
  ?jobs:int ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result

val objectives :
  ?rounds:int ->
  ?jobs:int ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  seed:int ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result

val quantization :
  ?rounds:int ->
  ?steps:int list ->
  ?jobs:int ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  seed:int ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result

val structures :
  ?jobs:int ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result
