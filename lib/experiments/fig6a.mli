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
  ?telemetry:Lepts_obs.Telemetry.collector ->
  ?checkpoint:Lepts_robust.Checkpoint.session ->
  ?should_stop:(unit -> bool) ->
  config ->
  power:Lepts_power.Model.t ->
  point list
(** Runs the sweep as one batch of cells, one cell per (task count,
    ratio, set) triple. The batch runs the largest task count first,
    with ratios and sets in config order (the longest-processing-time
    rule: no domain waits at a point boundary, and the costly sets do
    not pile up at the end). [jobs] (default 1) runs the cells on a
    {!Lepts_par.Pool} of domains, so [jobs] may exceed a point's set
    count. Per-set seeds make cells independent, and each point is
    reduced over its sets in set order, so the points are bit-identical
    for every [jobs] value. Each set's {!Improvement.measure} gets the
    same [jobs]; inside a pool worker its solves and simulation rounds
    run sequentially, so only a cell that runs alone (a one-cell grid)
    runs its multi-start solves and rounds on the domains instead.

    After the batch, the cells are regrouped into points in config
    order. [progress] (default ignore) then receives one line per point,
    and each dropped set (its generation or solve failed) is logged
    with one [Logs.warn] naming its task count, ratio, set index and
    error, from the calling domain. A set read back from a checkpoint
    as dropped says "dropped in an earlier session".

    [telemetry] captures convergence traces of the per-set NLP solves
    (labels like [acs:fig6a:n4:r0.5:set2]). A collector keeps the first
    solves registered (32 by default); with the largest task count
    first, those are solves of the largest sets, not of the first
    point's. The
    sweep runs under one [fig6a:grid] profiling span, with each cell
    under [fig6a:grid/set]; the merged tree is identical for every
    [jobs] value.

    [checkpoint] makes the sweep crash-safe at set granularity: every
    completed set's measurement is saved in section [set], keyed by the
    cell's index in the batch (fingerprint the layout, so that a file
    keyed another way is refused). Cells run [jobs] at a time, one per
    domain, with one save after each such chunk, so a crash loses at
    most [jobs] sets; a checkpointed sweep therefore waits at each
    chunk boundary. A resumed sweep recomputes only the missing sets —
    the final points are bit-identical to an uninterrupted run's.
    [should_stop] is polled between chunks; when it fires the session
    is saved and {!Lepts_robust.Checkpoint.Drained} raised. Without a
    session it is polled once, before the batch. *)

val to_table : point list -> Lepts_util.Table.t
(** Rows: one per (task count, ratio) — the series of the paper's
    figure. *)
