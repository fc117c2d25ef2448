(** An RM-prioritised set of periodic tasks.

    Tasks are stored in priority order: index 0 is the highest
    priority. Rate-monotonic priorities are assigned at construction
    (shorter period = higher priority; ties keep the input order, which
    matches the paper's "priorities of two tasks are the same if they
    have the same period" resolved by an arbitrary fixed order). *)

type t = private { tasks : Task.t array }

val create : Task.t list -> t
(** Sorts by RM priority. Raises [Invalid_argument] on an empty list or
    duplicate task names. *)

val of_array : Task.t array -> t
val size : t -> int
val task : t -> int -> Task.t
(** [task t i] is the task at priority level [i] (0 = highest). *)

val tasks : t -> Task.t array
(** Copy of the priority-ordered task array. *)

val hyper_period : t -> int
(** LCM of all periods, in ticks. *)

val utilization : t -> power:Lepts_power.Model.t -> float
(** Worst-case processor utilisation at maximum speed:
    [sum_i wcec_i * cycle_time(v_max) / period_i]. *)

val scale_wcec_to_utilization :
  t -> power:Lepts_power.Model.t -> target:float -> t
(** Multiply every task's cycle counts (WCEC, ACEC, BCEC) by the common
    factor that brings {!utilization} to [target] — the paper's "WCEC
    adjusted such that processor utilisation is about 70 % at maximum
    speed". Requires [target > 0.]. *)

val pp : Format.formatter -> t -> unit
