(** Fig. 6(a): improvement of ACS over WCS on random task sets, by task
    count and BCEC/WCEC ratio.

    The paper's full protocol: task counts 2..10, ratios 0.1 / 0.5 /
    0.9, one hundred random task sets per count, one thousand
    hyper-periods per simulation, 70 % worst-case utilisation. The
    harness exposes the scale as parameters so the bench can run a
    reduced (but same-shape) version by default. *)

type config = {
  task_counts : int list;  (** paper: [2; 4; 6; 8; 10] *)
  ratios : float list;  (** paper: [0.1; 0.5; 0.9] *)
  sets_per_point : int;  (** paper: 100 *)
  rounds : int;  (** hyper-periods simulated per set; paper: 1000 *)
  seed : int;
}

val paper_config : config
val quick_config : config
(** 3 sets per point, 200 rounds: minutes instead of hours, same
    qualitative shape. *)

type point = {
  n_tasks : int;
  ratio : float;
  mean_improvement_pct : float;
  stddev_improvement_pct : float;
  sets_measured : int;  (** sets that produced a schedulable pair *)
  total_misses : int;  (** deadline misses across all simulations;
                           must be 0 *)
}

val run :
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?warm_start:bool ->
  ?telemetry:Lepts_obs.Telemetry.collector ->
  ?checkpoint:Lepts_robust.Checkpoint.session ->
  ?should_stop:(unit -> bool) ->
  config ->
  power:Lepts_power.Model.t ->
  point list
(** Runs the sweep; [progress] (default ignore) receives one line per
    completed point. [jobs] (default 1) runs the task sets of each
    point on a {!Lepts_par.Pool} of domains — per-set seeds make sets
    independent, and per-set results are reduced in set order, so the
    points are bit-identical for every [jobs] value. Each set's
    {!Improvement.measure} gets the same [jobs]; inside a pool worker
    its solves and simulation rounds run sequentially, so a point with
    one set runs its multi-start solves and rounds on the domains
    instead.

    [warm_start] (default false) runs each set's ACS solve as one
    continuation descent from its WCS solution instead of the full
    multi-start ({!Improvement.measure}) — measurably faster, never
    worse than the WCS seed, but a different configuration: include
    the flag in checkpoint fingerprints. Warm chains never cross sets
    or ratios here — each (count, ratio, set) triple generates a
    different task set, so there is nothing valid to continue from
    (see EXPERIMENTS.md on continuation order).

    [telemetry] captures convergence traces of the per-set NLP solves
    (labels like [acs:fig6a:n4:r0.5:set2]); the sweep also runs under
    [fig6a:point] / [fig6a:point/set] profiling spans whose merged tree
    is identical for every [jobs] value.

    [checkpoint] makes the sweep crash-safe at set granularity: every
    completed set's measurement is saved (section [set:n<N>:r<R>]).
    Sets run [jobs] at a time, one per domain, with one save after
    each such chunk, so a crash loses at most [jobs] sets. A resumed
    sweep recomputes only the missing sets — the final points are
    bit-identical to an uninterrupted run's. [should_stop] is polled
    between chunks; when it fires the session is saved and
    {!Lepts_robust.Checkpoint.Drained} raised. *)

val to_table : point list -> Lepts_util.Table.t
(** Rows: one per (task count, ratio) — the series of the paper's
    figure. *)
