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

val pp_gantt : ?width:int -> n_tasks:int -> Format.formatter -> t -> unit
(** ASCII Gantt chart, one row per task, [width] columns (default 72)
    spanning the horizon. Cells show a digit proportional to the span's
    voltage ('1'..'9' after normalising to the maximum voltage seen),
    '.' for idle. *)
