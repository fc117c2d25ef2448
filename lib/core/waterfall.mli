(** Average-workload distribution over sub-instances (paper Fig. 5 and
    eqns 11–14).

    A task instance preempted into sub-instances with worst-case quotas
    [q_1 .. q_K] executes an actual workload [total <= sum q_k] by
    filling the quotas {e in order}: "the next sub-instance will start
    execution only if the previous sub-instance already reached the
    worst-case limit". So sub-instance [k] executes

    [w_k = clamp (total - (q_1 + .. + q_{k-1})) 0 q_k].

    The same rule gives the ACEC split (the paper's case-1/case-2
    classification) and the runtime split for any sampled workload.
    Any workload beyond [sum q_k] is silently dropped: callers enforce
    [total <= sum q_k], the WCEC bound, separately.

    The kernels below split every instance of a plan in one call, over
    a flat block index: block [b] covers the coordinates [idx.(p)] for
    [off.(b) <= p < off.(b+1)], in fill order, and its total is the
    [b]-th entry of [totals] in row-major order
    ([totals.(task).(instance)], the order of the workspace's
    [blk_off]/[blk_idx]). A single instance is the one-block index
    [off = [|0; K|]], [idx = [|0; ..; K-1|]]. They are the library's
    only implementation of the split and its derivative; the test
    suite checks them bit for bit against a per-instance, allocating
    oracle in its reference module. Both raise [Invalid_argument] on
    a negative total or quota, an index that does not have one block
    per total, or a buffer shorter than the index. *)

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
    {e adds} every block's vector-Jacobian product [J^T adjoint] to
    [into] at the block's coordinates, where [J] is the derivative of
    the split with respect to the quotas. It takes the one-sided
    derivative that treats boundary sub-instances as fully filled. *)
