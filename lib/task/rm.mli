(** Rate-monotonic schedulability analysis.

    Used to validate generated task sets before handing them to the
    voltage scheduler: the NLP is only feasible when the set is
    RM-schedulable at maximum speed. *)

val response_time : Task_set.t -> power:Lepts_power.Model.t -> int -> float option
(** [response_time ts ~power i] is the worst-case response time of the
    task at priority level [i], running every task at [v_max], by the
    standard fixed-point iteration
    [R = C_i + sum_{j < i} ceil(R / T_j) * C_j].
    [None] if the iteration exceeds the deadline (unschedulable). *)

val schedulable : Task_set.t -> power:Lepts_power.Model.t -> bool
(** [true] iff every task's worst-case response time is within its
    deadline at maximum speed. *)
