(** Exporting static schedules for consumption outside OCaml.

    The runtime only needs two numbers per sub-instance (end-time and
    worst-case quota); these exports are the tables a firmware build
    would embed. *)

val schedule_to_csv : Static_schedule.t -> string
(** One row per sub-instance, in total order:
    [index,label,task,instance,segment,release,boundary,deadline,end_time,quota,worst_voltage].
    [worst_voltage] is {!Static_schedule.worst_case_voltages}. Floats
    are printed with enough digits to round-trip. *)

val schedule_to_rows : Static_schedule.t -> string list list
(** The same data as lists of cells (header excluded), for callers that
    want a different serialisation. *)
