(** Closed-form runtime energy of a static schedule under greedy slack
    reclamation (the NLP objective, paper eqns 4–14 reduced).

    Given per-sub-instance end-times [e] and worst-case quotas [w_hat],
    the online policy dispatches sub-instances in the fully-preemptive
    total order; a sub-instance with pending work starting at time [s]
    runs at the voltage that would finish its {e worst-case} quota
    exactly at its end-time, [v = voltage_for w_hat (e - s)] (clamped
    below at [v_min]). When the actual workload of every instance is
    fixed (e.g. the ACEC), the whole execution — start times, voltages,
    energy — is a deterministic recurrence:

    {v
      s_k   = max r_k (finish of previous dispatched sub-instance)
      v_k   = max v_min (voltage_for w_hat_k (e_k - s_k))
      t_k   = w_k * cycle_time v_k        (w_k = waterfall split)
      E    += c_eff * v_k^2 * w_k
    v}

    {!eval_ws} prices this recurrence and {!eval_with_gradient_ws}
    also returns its gradient with respect to [(e, w_hat)] by a
    hand-written reverse-mode (adjoint) sweep. They are its only
    implementation; the full replay (start and finish times,
    voltages) is a test-suite oracle they match bit for bit. *)

type mode =
  | Average  (** instances take their ACEC — the ACS objective *)
  | Worst  (** instances take their WCEC — the WCS objective *)

val instance_totals : mode -> Lepts_preempt.Plan.t -> float array array
(** Actual workload of every instance under [mode]: [acec] or [wcec]
    of the parent task (the paper assumes every instance of a task has
    the same workload). Indexed as [.(task).(instance)]. *)

(** {1 Workspace kernels}

    Allocation-free kernels over the preallocated buffers of a
    {!Workspace.t}, which the solver's inner loop reuses; a one-off
    caller creates one, as {!Static_schedule.predicted_energy} does. *)

val eval_ws :
  Workspace.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  w_hat:float array ->
  float
(** Runtime energy of the recurrence on [Workspace.plan ws] for the
    given instance workloads; [e] and [w_hat] are indexed by
    total-order position, and negative quotas count as 0. A window
    [e_k - s_k] that is not positive is priced at a tiny positive one,
    so the value stays finite (and enormous) on infeasible iterates.
    Allocates nothing; clobbers the workspace's objective buffers. *)

val eval_with_gradient_ws :
  Workspace.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  w_hat:float array ->
  de:float array ->
  dwq:float array ->
  float
(** The energy, with its gradients written into [de] (end-times) and
    [dwq] (worst-case quotas), both of the plan size. This is the one
    implementation of the objective adjoint; the test suite checks it
    bit for bit against a dense list-based reference and against
    central differences.

    Its forward sweep forms execution times as [(w *. c0) /. v], and
    {!eval_ws} as [w *. (c0 /. v)] ({!Lepts_power.Model.exec_time}).
    They can round apart, so the energy returned here may differ from
    {!eval_ws}'s in its last bits, and the gradient is taken along a
    trajectory up to an ulp away from the one {!eval_ws} prices. *)

val eval_with_gradient_at_split_ws :
  Workspace.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  de:float array ->
  dwq:float array ->
  float
(** {!eval_with_gradient_ws} without its waterfall split: the split is
    the one already in the workspace, made by the last {!eval_ws} or
    {!eval_with_gradient_ws} call. Bit-identical to
    {!eval_with_gradient_ws} when that call used the same [totals] and
    [w_hat] (and nothing else has split on the workspace since); the
    caller is responsible for that — the solver reuses the split its
    objective call just made at the same point and scenario. *)
