(** The artefact of offline voltage scheduling: a per-sub-instance
    end-time and worst-case workload quota.

    These two vectors are exactly what the paper passes from the
    offline phase to the online DVS phase ("only the end-time and the
    worst-case workload variables will be passed to the online DVS
    phase"). *)

type t = {
  plan : Lepts_preempt.Plan.t;
  power : Lepts_power.Model.t;
  end_times : float array;  (** e_k, indexed by total-order position *)
  quotas : float array;  (** worst-case workloads w-hat_k *)
}

val create :
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  end_times:float array ->
  quotas:float array ->
  t
(** Basic structural checks (lengths, non-negative quotas); semantic
    feasibility is checked by {!Validate}. *)

val size : t -> int

val predicted_energy : t -> mode:Objective.mode -> float
(** Closed-form runtime energy under greedy reclamation when all
    instances take their ACEC ([Average]) or WCEC ([Worst]):
    {!Objective.eval_ws} on a fresh workspace of the plan. *)

val worst_case_voltages : t -> float array
(** The per-sub-instance voltage of the worst-case execution: each
    dispatched sub-instance stretches its full quota from its
    worst-case start (previous end-time or release) to its end-time,
    clamped into [[v_min, v_max]]. Sub-instances with zero quota get
    0. Read by the [Static_voltage] policy and by {!Export}. *)

val pp : Format.formatter -> t -> unit
(** Table of sub-instances, one line each: label, segment release and
    boundary, end-time and quota. *)
