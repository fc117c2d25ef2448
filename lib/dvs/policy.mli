(** Online voltage-selection policies.

    The offline phase hands the runtime a static schedule (end-times
    and worst-case quotas per sub-instance). At every dispatch of a
    sub-instance the policy picks the supply voltage. *)

type t =
  | Greedy
      (** Greedy slack reclamation (the paper's online phase): run at
          the voltage that finishes the {e remaining worst-case quota}
          of the current sub-instance exactly at its static end-time.
          Tasks that finish early hand their slack to whatever runs
          next. *)
  | Static_voltage
      (** Use the voltage planned for the worst case, never reclaiming
          slack; early finishes leave the processor idle. The
          "offline schedule without runtime DVS" reference point. *)
  | Max_speed
      (** Always run at [v_max] (no DVS at all). *)
  | Greedy_quantized of Lepts_power.Levels.t
      (** Greedy reclamation on a processor with a finite set of
          voltage levels (an extension over the paper, which assumes a
          continuous range): each greedy request is rounded {e up} to
          the next available level, preserving every deadline
          guarantee at a small energy cost. *)

val dispatch_voltage :
  t ->
  schedule:Lepts_core.Static_schedule.t ->
  static_v:float array ->
  sub:int ->
  now:float ->
  quota_remaining:float ->
  float
(** Voltage to run at when dispatching sub-instance [sub] at time
    [now] with [quota_remaining] of its worst-case quota not yet
    executed. Always within [[v_min, v_max]]; if the end-time is
    already past (only possible through floating-point corner cases)
    the result is [v_max]. Requires [quota_remaining > 0.].

    [static_v] is {!Lepts_core.Static_schedule.worst_case_voltages};
    only [Static_voltage] reads it. *)

val pp : Format.formatter -> t -> unit

val all : t list
(** The three continuous policies ([Greedy], [Static_voltage],
    [Max_speed]); quantized policies carry a level set and are
    constructed explicitly. *)
