(** Average-workload distribution over sub-instances (paper Fig. 5 and
    eqns 11–14).

    A task instance preempted into sub-instances with worst-case quotas
    [q_1 .. q_K] executes an actual workload [total <= sum q_k] by
    filling the quotas {e in order}: "the next sub-instance will start
    execution only if the previous sub-instance already reached the
    worst-case limit". So sub-instance [k] executes

    [w_k = clamp (total - (q_1 + .. + q_{k-1})) 0 q_k].

    The same rule gives the ACEC split (the paper's case-1/case-2
    classification) and the runtime split for any sampled workload. *)

val distribute : quotas:float array -> total:float -> float array
(** [distribute ~quotas ~total] returns the per-sub-instance executed
    workloads. Requires [total >= 0.] and non-negative quotas; any
    workload beyond [sum quotas] is silently dropped (callers enforce
    [total <= sum quotas] — the WCEC bound — separately). *)

val distribute_into :
  quotas:float array ->
  n:int ->
  totals:float array ->
  j:int ->
  into:float array ->
  unit
(** Prefix variant of {!distribute} over preallocated buffers with
    [total = totals.(j)]: reads [quotas.(0..n-1)] and writes the split
    into [into.(0..n-1)] without allocating. The total arrives as an
    array element rather than a float argument so it is never boxed at
    the call (no cross-module float unboxing without flambda).
    Bit-identical to [distribute] on the prefix. *)

val backward :
  quotas:float array -> total:float -> adjoint:float array -> float array
(** [backward ~quotas ~total ~adjoint] is the vector-Jacobian product
    [J^T adjoint] where [J = d(distribute)/d(quotas)], using the
    one-sided derivative that treats boundary sub-instances as fully
    filled. Used by the ACS objective gradient. *)

val backward_into :
  quotas:float array ->
  adjoint:float array ->
  n:int ->
  totals:float array ->
  j:int ->
  into:float array ->
  unit
(** Prefix variant of {!backward} over preallocated buffers with
    [total = totals.(j)]: reads the first [n] quotas/adjoints and
    overwrites [into.(0..n-1)] with the vector-Jacobian product,
    without allocating ([totals]/[j] for the same boxing reason as
    {!distribute_into}). *)
