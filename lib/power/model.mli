(** Processor voltage / delay / energy model (paper eqns 1–3).

    Units used throughout the library:
    - time in milliseconds,
    - workload in megacycles,
    - voltage in volts,
    - energy in the unit fixed by [c_eff] (we use [c_eff] = 1 nF-scale
      so that energy is "nJ-per-Mcycle·V²"; only ratios matter in the
      paper's experiments).

    Two delay models are provided:
    - {e Ideal}: cycle time [c0 / v] — the simplification used in the
      paper's motivational example ("clock cycle time is inversely
      proportional to the supply voltage");
    - {e Alpha}: the full CMOS alpha-power law
      [t_cycle = k * v / (v - v_th)^alpha] with [1 <= alpha <= 2].

    In both, the energy of executing [w] cycles at voltage [v] is
    [c_eff * v^2 * w]. *)

type delay =
  | Ideal of { c0 : float }
      (** [c0] is the cycle-time × voltage product (ms·V/Mcycle). *)
  | Alpha of { k : float; v_th : float; alpha : float }
      (** CMOS alpha-power delay; requires [v_th >= 0.],
          [alpha >= 1.]. *)

type t = private {
  delay : delay;
  c_eff : float;  (** effective switching capacitance *)
  v_min : float;
  v_max : float;
}

val create : ?c_eff:float -> ?v_min:float -> ?v_max:float -> delay -> t
(** Defaults: [c_eff = 1.], [v_min = 1.], [v_max = 4.] (the
    motivational-example processor). Raises [Invalid_argument] on
    non-positive capacitance, a non-positive voltage range, [v_min >
    v_max], or (for {e Alpha}) [v_min <= v_th]. *)

val ideal : ?c_eff:float -> ?v_min:float -> ?v_max:float -> ?c0:float -> unit -> t
(** Ideal-delay model; [c0] defaults to 1. *)

val cycle_time : t -> v:float -> float
(** Time of one megacycle at voltage [v]. Requires [v > 0.] (and
    [v > v_th] for the alpha model). *)

val exec_time : t -> v:float -> cycles:float -> float
(** [cycles * cycle_time v]. *)

val energy : t -> v:float -> cycles:float -> float
(** [c_eff * v^2 * cycles]. *)

val voltage_for : t -> cycles:float -> duration:float -> float
(** [voltage_for t ~cycles ~duration] is the (unique) voltage at which
    [cycles] complete in exactly [duration]; it is {e not} clamped to
    the voltage range. Requires [cycles > 0.] and [duration > 0.]. For
    the alpha model this is computed by bisection to relative precision
    [1e-12]. *)

val voltage_for_clamped : t -> cycles:float -> duration:float -> float
(** {!voltage_for} clamped into [[v_min, v_max]]. Total on its domain:
    when even [v_max] cannot finish [cycles] within [duration] it
    returns [v_max] (for the alpha model without bisecting, so an
    unreachable duration does not raise). The caller is responsible
    for checking feasibility in that case. *)

val min_duration : t -> cycles:float -> float
(** Fastest possible execution time: [exec_time ~v:v_max]. *)

val max_frequency_utilization : t -> cycles:float -> period:float -> float
(** Utilisation contribution [min_duration / period] of a task with the
    given worst-case [cycles] and [period]. *)
