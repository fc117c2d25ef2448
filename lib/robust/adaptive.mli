(** Adaptive-ACS campaign: static schedule vs estimator/re-solve loop.

    The closed loop the paper stops short of
    (doc/ADAPTATION.md): simulate hyper-period rounds under a drifting
    workload (the fault injector's overrun/jitter machinery and/or a
    sampling distribution whose mean sits away from the configured
    ACEC), fold each round's per-task consumed cycles into an
    {!Lepts_sim.Estimator}, and at every epoch boundary (every
    [resolve_every] rounds) re-solve the ACS schedule incrementally
    ({!Lepts_core.Solver.solve_warm}, continuation path)
    when the estimate has drifted past the threshold. The {e static}
    arm replays the identical rounds on the offline schedule, so the
    reported energy delta isolates what adaptation buys.

    {2 Determinism}

    Within an epoch the schedule is fixed, so rounds are independent
    and fan out on the domain pool; their observations are then folded
    in round-index order, and re-solves happen only between epochs on
    the caller's domain. Estimator state is pure, the warm
    continuation is a single descent (independent of [jobs]), and both
    arms derive every round's draws from
    [Runner.round_rng ~rng:base ~round] — so a whole
    {!run} is bit-identical for every [-j], which CI gates byte-level
    on [lepts faults --adaptive]. *)

type config = {
  estimator : Lepts_sim.Estimator.config;
  resolve_every : int;
      (** epoch length: drift is checked (and at most one re-solve
          performed) every this many rounds; >= 1 *)
}

val default_config : config
(** {!Lepts_sim.Estimator.default_config}, [resolve_every = 25]. *)

type counters = {
  drift_checks : int;  (** epoch boundaries examined *)
  drift_events : int;
      (** checks whose drift exceeded the threshold (armed), whether
          or not a re-solve was still in budget *)
  resolves : int;  (** incremental re-solves performed and committed *)
  resolve_failures : int;
      (** re-solves that returned an error; the previous schedule is
          kept and the loop continues *)
  exhausted : int;
      (** drift events refused because the re-solve budget was spent —
          from there on the run continues on its last committed
          schedule (the static plan when the budget is 0) *)
}

type point = {
  label : string;  (** distribution arm label, e.g. ["bimodal 0.1"] *)
  static_summary : Lepts_sim.Runner.summary;
  adaptive_summary : Lepts_sim.Runner.summary;
  counters : counters;
  estimates : float array;  (** final per-task ACEC estimates *)
  initial : float array;  (** the offline per-task ACECs, for reference *)
  final_drift : float;  (** estimator drift after the last round *)
  improvement_pct : float;
      (** (static - adaptive) / static * 100, mean energy *)
}

val run :
  ?rounds:int ->
  ?jobs:int ->
  ?dist:Lepts_sim.Sampler.distribution ->
  ?config:config ->
  ?label:string ->
  ?on_stats:(label:string -> Lepts_par.Pool.stats -> unit) ->
  spec:Fault_injector.spec ->
  schedule:Lepts_core.Static_schedule.t ->
  policy:Lepts_dvs.Policy.t ->
  seed:int ->
  unit ->
  point
(** One static-vs-adaptive comparison under [dist] (default the
    paper's truncated normal) and [spec]'s faults. [schedule] is the
    offline ACS solution: the static arm runs it unchanged, the
    adaptive arm starts from it. [rounds] defaults to 500, [jobs]
    to 1. Raises [Invalid_argument] on a non-positive [rounds] or
    invalid [config]/[spec]. *)

val sweep :
  ?rounds:int ->
  ?jobs:int ->
  ?config:config ->
  ?on_stats:(label:string -> Lepts_par.Pool.stats -> unit) ->
  spec:Fault_injector.spec ->
  schedule:Lepts_core.Static_schedule.t ->
  policy:Lepts_dvs.Policy.t ->
  seed:int ->
  unit ->
  point list
(** The Fig-6-style drifting-workload sweep behind
    [lepts faults --adaptive]: one {!run} per sampling shape —
    truncated normal (the paper's §4 protocol), uniform, and the
    bimodal "usually small, occasionally large" workload
    ([p_large = 0.1]) whose mean sits far below the configured ACEC.
    All arms share [spec], [seed] and the schedule. *)

val to_table : point list -> Lepts_util.Table.t
(** One row per point: static vs adaptive mean/p95 energy, the
    improvement percentage, deadline misses, and the estimator's
    re-solve/drift counters. *)
