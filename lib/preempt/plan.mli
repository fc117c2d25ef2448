(** Fully preemptive schedule expansion over one hyper-period.

    Produces the total order of sub-instances used by the scheduling
    NLPs: sub-instances sorted by release time, then by priority
    (higher first), which is exactly the worst-case RM execution order
    of the fully preemptive schedule. *)

type t = private {
  task_set : Lepts_task.Task_set.t;
  order : Sub_instance.t array;  (** total order; [order.(k).index = k] *)
  instance_subs : int array array array;
      (** [instance_subs.(i).(j)] lists the order indices of the
          sub-instances of instance [j] of task [i], in segment
          order. *)
  next_in_instance : int array;
      (** [next_in_instance.(k)] is the order index of the next segment
          of [k]'s instance ([-1] when [k] is the instance's last
          segment) — the O(1) successor lookup behind the solver's
          feasibility repair. *)
}

val expand : Lepts_task.Task_set.t -> t
(** Expand one hyper-period. Instance [j] of task [i] is released at
    [j * period_i] with deadline [(j+1) * period_i] and is split at
    every release of a higher-priority task strictly inside its
    window. *)

val expand_nonpreemptive : Lepts_task.Task_set.t -> t
(** The non-preemptive variant the paper sketches ("it is easy to
    transform the formulation for non-preemptive systems", §1, and the
    whole motivational example): every instance is a single
    sub-instance whose boundary is its deadline, and the total order is
    the execution order of the jobs — by release time, then earliest
    deadline, then priority. The same NLP and online policies apply
    unchanged; the event-driven simulator must not be used on such
    plans (it models a preemptive dispatcher), so the test suite runs
    them through its order-faithful executor ([Reference.Sequence]). *)

val sub_instance_count : Lepts_task.Task_set.t -> int
(** Number of sub-instances {!expand} would create, without building
    the plan (used to reject task sets with pathological
    hyper-periods, as the paper caps them at one thousand). *)

val hyper_period : t -> float
val size : t -> int

val pp_timeline : Format.formatter -> t -> unit
(** Multi-line rendering of the expansion, one line per sub-instance —
    the shape of the paper's Fig. 4. *)
