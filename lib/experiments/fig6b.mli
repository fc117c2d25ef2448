(** Fig. 6(b): improvement of ACS over WCS on the real-life CNC and GAP
    task sets, by BCEC/WCEC ratio. *)

type config = {
  ratios : float list;  (** paper: [0.1; 0.5; 0.9] *)
  rounds : int;  (** hyper-periods per simulation; paper: 1000 *)
  seed : int;
  include_gap : bool;
      (** the GAP NLP has ~1200 sub-instances and takes tens of seconds
          per solve; benches may skip it *)
}

val paper_config : config
val quick_config : config

type point = {
  application : string;  (** "CNC" or "GAP" *)
  ratio : float;
  improvement_pct : float;
  misses : int;
}

val run :
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?telemetry:Lepts_obs.Telemetry.collector ->
  ?checkpoint:Lepts_robust.Checkpoint.session ->
  ?should_stop:(unit -> bool) ->
  config ->
  power:Lepts_power.Model.t ->
  point list
(** [jobs] (default 1) parallelises each measurement's simulation
    rounds; results are bit-identical for every value. [telemetry]
    captures convergence traces of the NLP solves (labels like
    [acs:fig6b:CNC:r0.5]); points run under [fig6b:point] spans.

    [checkpoint] saves each completed (application, ratio) cell
    (section ["point"]) so a killed sweep resumes without re-solving
    finished cells; [progress] lines are emitted after the sweep
    completes, in cell order, so stdout is byte-identical across
    resume. [should_stop] is polled between cells and raises
    {!Lepts_robust.Checkpoint.Drained} after saving. *)

val to_table : point list -> Lepts_util.Table.t
