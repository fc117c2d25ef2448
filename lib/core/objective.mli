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

    [trace] replays this recurrence and [eval] is its energy;
    [eval_with_gradient_ws] additionally returns the gradient with
    respect to [(e, w_hat)] by a hand-written reverse-mode (adjoint)
    sweep, cross-checked against central differences in the test
    suite. *)

type mode =
  | Average  (** instances take their ACEC — the ACS objective *)
  | Worst  (** instances take their WCEC — the WCS objective *)

type trace = {
  start_times : float array;  (** dispatch time of each sub-instance
                                  (release time if never dispatched) *)
  voltages : float array;  (** 0 for sub-instances never dispatched *)
  exec_workloads : float array;  (** waterfall split of the actual work *)
  finish_times : float array;  (** equal to start time if not dispatched *)
  energy : float;
}

val instance_totals : mode -> Lepts_preempt.Plan.t -> float array array
(** Actual workload of every instance under [mode]: [acec] or [wcec]
    of the parent task (the paper assumes every instance of a task has
    the same workload). Indexed as [.(task).(instance)]. *)

val eval :
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  w_hat:float array ->
  float
(** Runtime energy for the given actual instance workloads: the
    [energy] field of {!trace}. [e] and [w_hat] are indexed by
    total-order position. Degenerate windows are guarded: a dispatched
    sub-instance whose window [e_k - s_k] is not positive is priced at
    a tiny positive window, so the value stays finite (and enormous) on
    infeasible iterates. *)

val trace :
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  w_hat:float array ->
  trace
(** The full execution trace of the recurrence above. *)

(** {1 Workspace kernels}

    Allocation-free kernels over the preallocated buffers of a
    {!Workspace.t}: what the solver's inner loop and every other
    caller holding a workspace call. *)

val eval_ws :
  Workspace.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  w_hat:float array ->
  float
(** Bit-identical to {!eval} on [Workspace.plan ws] (the same
    floating-point operations in the same order, asserted by the test
    suite); allocates nothing. Clobbers the workspace's objective
    buffers. *)

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
    central differences. *)

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
