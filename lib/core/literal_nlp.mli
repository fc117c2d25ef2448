(** The paper-literal NLP formulation, kept for cross-validation.

    {!Solver} optimises a slack reparametrisation in which the paper's
    ordering constraints hold by construction. This module instead
    writes the NLP the way §3.2 of the paper states it — decision
    variables are the end-times and worst-case workloads themselves,
    with explicit linear inequality constraints

    - release fit: [t_max * w-hat_k <= e_k - r_k],
    - chain fit: [t_max * w-hat_k <= e_k - e_(k-1)],

    a box [r_k <= e_k <= b_k] and one [sum = WCEC] simplex per instance
    (the paper's eqns 8–11), solved by this module's own
    augmented-Lagrangian loop over
    {!Lepts_optim.Projected_gradient.minimize_ws}, which projects onto
    the box and the simplexes. On small instances both formulations
    must agree; the test suite and an ablation bench check that. The
    slack formulation is the production path because the literal one
    scales poorly (its feasibility-restoration steps fight the chain
    constraints; see DESIGN.md §5). *)

val solve :
  mode:Objective.mode ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Static_schedule.t * Solver.stats, Solver.error) result
(** Solve the literal formulation from the greedy worst-case initial
    point (40 augmented-Lagrangian rounds of at most 2000
    projected-gradient steps). Same result conventions as
    {!Solver.solve}. *)
