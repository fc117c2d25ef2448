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

val backward :
  quotas:float array -> total:float -> adjoint:float array -> float array
(** [backward ~quotas ~total ~adjoint] is the vector-Jacobian product
    [J^T adjoint] where [J = d(distribute)/d(quotas)], using the
    one-sided derivative that treats boundary sub-instances as fully
    filled. The reference adjoint of the test suite calls it per
    instance; the solver's gradient runs {!backward_add_blocks}. *)

(** {1 Plan-wide kernels}

    The solver's allocation-free forms of {!distribute} and
    {!backward}, over every instance of a plan in one call. The
    instances are given as a flat block index: block [b] covers the
    coordinates [idx.(p)] for [off.(b) <= p < off.(b+1)], in fill
    order, and its total is the [b]-th entry of [totals] in row-major
    order ([totals.(task).(instance)], the order of the workspace's
    [blk_off]/[blk_idx]). Each block's arithmetic is
    {!distribute}'s or {!backward}'s, operation for operation, so the
    results are bit-identical to calling those per instance (asserted
    by the test suite). Both raise [Invalid_argument] on a negative
    total or quota, an index that does not have one block per total,
    or a buffer shorter than the index. *)

val distribute_blocks :
  off:int array ->
  idx:int array ->
  totals:float array array ->
  quotas:float array ->
  into:float array ->
  unit
(** [distribute_blocks ~off ~idx ~totals ~quotas ~into] writes the
    split of every block's total over its quotas into [into] at the
    same coordinates. *)

val backward_add_blocks :
  off:int array ->
  idx:int array ->
  totals:float array array ->
  quotas:float array ->
  adjoint:float array ->
  into:float array ->
  unit
(** [backward_add_blocks ~off ~idx ~totals ~quotas ~adjoint ~into]
    {e adds} every block's vector-Jacobian product {!backward} to
    [into] at the block's coordinates. *)
