(** Execution traces: what ran when, and at which voltage.

    Produced by {!Event_sim.run_traced}; useful for debugging schedules
    and for the examples' visualisations. *)

type span = {
  task : int;  (** priority level *)
  instance : int;
  from_time : float;
  to_time : float;
  voltage : float;
}

type t = { spans : span list;  (** in increasing start order *) horizon : float }

val energy : t -> power:Lepts_power.Model.t -> float
(** Energy recomputed from the spans, as a cross-check of the
    simulator's accounting. A span of length [dt] at voltage [v] runs
    [v * dt / c0] megacycles, priced by {!Lepts_power.Model.energy}.
    Spans do not record their cycle counts, so the result matches the
    simulator's energy only up to rounding, and excludes voltage
    transition energy. Use the simulator outcome for authoritative
    energy. *)

val utilization : t -> float
(** Total processor-busy time over the horizon; 0 on an empty
    horizon. *)

val pp_gantt : ?width:int -> n_tasks:int -> Format.formatter -> t -> unit
(** ASCII Gantt chart, one row per task, [width] columns (default 72)
    spanning the horizon. Cells show a digit proportional to the span's
    voltage ('1'..'9' after normalising to the maximum voltage seen),
    '.' for idle. *)
