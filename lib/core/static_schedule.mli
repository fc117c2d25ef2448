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
    instances take their ACEC ([Average]) or WCEC ([Worst]). *)

val pp : Format.formatter -> t -> unit
(** Table of sub-instances with windows, quotas and implied worst-case
    voltages. *)
