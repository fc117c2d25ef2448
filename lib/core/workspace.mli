(** Per-solve scratch buffers for the allocation-free solver kernels.

    One workspace holds every intermediate vector the hot path of an
    augmented-Lagrangian solve needs — sanitized quotas, waterfall
    splits, adjoint step records, the frontier recursion and the
    gradient accumulators — sized once from the plan, so
    {!Objective.eval_ws}, {!Objective.eval_with_gradient_ws} and the
    solver's inner loop evaluate with no per-iteration array
    allocation.

    A workspace is single-owner mutable state: never share one between
    domains (each parallel multi-start candidate creates its own) and
    never read a buffer except through the kernel that just filled it.
    The fields are exposed only so the kernels in [Lepts_core] can use
    them; treat them as private elsewhere. *)

type t = {
  plan : Lepts_preempt.Plan.t;
  m : int;  (** plan size; every per-sub-instance buffer has length m *)
  (* objective kernels *)
  w_hat : float array;  (** sanitized worst-case quotas *)
  w : float array;  (** waterfall split of the actual workloads *)
  dw : float array;  (** adjoint of [w] *)
  (* adjoint step records, struct-of-arrays (prefix [st_len] valid) *)
  st_k : int array;
  st_d : float array;
  st_v : float array;
  st_w : float array;
  st_wq : float array;
  st_clamped : bool array;
  st_guarded : bool array;
  st_sff : bool array;
  mutable st_len : int;
  (* solver frontier recursion and gradient accumulators *)
  q : float array;
  e : float array;
  start : float array;
  start_ff : bool array;
  room : float array;
  g : float array;
  de : float array;
  de_i : float array;
  dq_i : float array;
  dg : float array;
  dq : float array;
  ds : float array;
  (* structure-exploiting solver kernels (DESIGN.md §12) *)
  n_blocks : int;
      (** number of per-instance quota blocks (simplex constraints) *)
  blk_off : int array;
      (** length [n_blocks + 1]; block [b] covers positions
          [blk_off.(b), blk_off.(b+1)) of [blk_idx] *)
  blk_idx : int array;
      (** length [m]; quota coordinate indices in block order — the
          flat form of [plan.instance_subs] *)
  blk_task : int array;  (** length [n_blocks]; owning task per block *)
  blk_scratch : float array;
      (** projection sort scratch, length = longest block *)
  y_prev : float array;
      (** length [2m]; the point the last forward sweep ran at, used to
          find the first dirty index of an incremental re-sweep.
          Initialised to NaN (compares unequal to everything, so the
          first sweep is always full). *)
  pen_prefix : float array;
      (** length [m + 1]; ascending prefix sums of the penalty terms at
          [y_prev], valid while [pen_valid] (multipliers and mu
          unchanged since it was filled) *)
  mutable fwd_valid : bool;
      (** [e]/[start]/[room]/[g]/[q] describe [y_prev] *)
  mutable pen_valid : bool;  (** [pen_prefix] matches [y_prev] *)
}

val create : Lepts_preempt.Plan.t -> t
(** Allocate every buffer for the given plan (a few dozen arrays of the
    plan size — cheap relative to one solve, expensive relative to one
    objective evaluation, so create once per solve and reuse). *)

val plan : t -> Lepts_preempt.Plan.t
