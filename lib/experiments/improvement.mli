(** The paper's core measurement: percentage energy improvement of ACS
    over WCS at runtime.

    For one task set: solve WCS, solve ACS (warm-started from the WCS
    solution, which the ACS NLP can always fall back to), then simulate
    both schedules over the same sampled workload sequence with greedy
    online reclamation, and compare mean energies per hyper-period. *)

type t = {
  wcs_energy : float;  (** mean per hyper-period *)
  acs_energy : float;
  improvement_pct : float;  (** 100 * (wcs - acs) / wcs *)
  wcs_misses : int;
  acs_misses : int;
  sub_instances : int;
}

val measure :
  ?rounds:int ->
  ?jobs:int ->
  ?telemetry:Lepts_obs.Telemetry.collector ->
  ?telemetry_tag:string ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  sim_seed:int ->
  unit ->
  (t, Lepts_core.Solver.error) result
(** [measure ~task_set ~power ~sim_seed ()] runs the full pipeline on
    one task set. Both schedules are simulated with the same workload
    RNG seed (paired comparison). [rounds] defaults to 1000
    hyper-periods, the paper's setting. [jobs] (default 1) runs the
    multi-start NLP solves ({!Lepts_core.Solver.solve}) and the
    simulation rounds across that many domains; called from inside a
    {!Lepts_par.Pool} worker (a sweep that already parallelises its
    sets), both run sequentially. The result is bit-identical for
    every [jobs] value (see {!Lepts_sim.Runner.simulate}).

    [telemetry] registers one convergence sink per NLP solve this
    measurement runs (labels ["wcs"] / ["acs"], suffixed with
    [":" ^ telemetry_tag] when a tag is given so sweep callers can tell
    their solves apart). Strictly observational — results are
    bit-identical with or without it.

    A measurement is not checkpointed: its two solves take most of its
    time and would rerun on any resume. Sweeps checkpoint whole
    measurements instead ({!Fig6a}, {!Fig6b}). *)

val pp : Format.formatter -> t -> unit
