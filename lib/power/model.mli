(** Processor voltage / delay / energy model (paper eqns 1–3).

    Units used throughout the library:
    - time in milliseconds,
    - workload in megacycles,
    - voltage in volts,
    - energy in the unit fixed by [c_eff] (we use [c_eff] = 1 nF-scale
      so that energy is "nJ-per-Mcycle·V²"; only ratios matter in the
      paper's experiments).

    The model is the paper's ideal one: the cycle time is [c0 / v]
    ("clock cycle time is inversely proportional to the supply
    voltage"), and executing [w] cycles at voltage [v] costs
    [c_eff * v^2 * w]. *)

type t = private {
  c0 : float;  (** cycle-time × voltage product (ms·V/Mcycle) *)
  c_eff : float;  (** effective switching capacitance *)
  v_min : float;
  v_max : float;
}

val ideal : ?c_eff:float -> ?v_min:float -> ?v_max:float -> ?c0:float -> unit -> t
(** Defaults: [c_eff = 1.], [v_min = 1.], [v_max = 4.], [c0 = 1.] (the
    motivational-example processor). Raises [Invalid_argument] on a
    non-positive capacitance or [c0], a non-positive voltage range, or
    [v_min > v_max]. *)

val cycle_time : t -> v:float -> float
(** Time of one megacycle at voltage [v]: [c0 / v]. Requires
    [v > 0.]. *)

val exec_time : t -> v:float -> cycles:float -> float
(** [cycles * cycle_time v]. *)

val energy : t -> v:float -> cycles:float -> float
(** [c_eff * v^2 * cycles]. *)

val voltage_for : t -> cycles:float -> duration:float -> float
(** [voltage_for t ~cycles ~duration] is the voltage
    [c0 * cycles / duration] at which [cycles] complete in exactly
    [duration]; it is {e not} clamped to the voltage range. Requires
    [cycles > 0.] and [duration > 0.]. *)

val voltage_for_clamped : t -> cycles:float -> duration:float -> float
(** {!voltage_for} clamped into [[v_min, v_max]]. When even [v_max]
    cannot finish [cycles] within [duration] it returns [v_max]; the
    caller is responsible for checking feasibility in that case. *)

val min_duration : t -> cycles:float -> float
(** Fastest possible execution time: [exec_time ~v:v_max]. *)

val max_frequency_utilization : t -> cycles:float -> period:float -> float
(** Utilisation contribution [min_duration / period] of a task with the
    given worst-case [cycles] and [period]. *)
