(** Multi-hyper-period simulation driver.

    Frame-based systems restart identically every hyper-period (all
    instances complete within it), so rounds are independent draws of
    the per-instance workloads.

    {2 Stream discipline and parallel determinism}

    Round [r] simulates with the generator
    [Xoshiro256.split_key rng ~key:r] — a pure function of the caller's
    generator state and the round index. [simulate] never advances
    [rng], rounds never share a stream, and {!Sampler.instance_totals}
    keys each instance's draws the same way below the round, so the
    per-round energy sequence depends only on (generator state,
    arguments). Rounds are therefore embarrassingly parallel: with
    [jobs > 1] they are computed by a {!Lepts_par.Pool} of domains and
    reduced in round order, producing {e bit-identical} summaries to
    the sequential path for the same seed (asserted by the test
    suite). *)

type summary = {
  rounds : int;
  mean_energy : float;  (** per hyper-period *)
  stddev_energy : float;
      (** [nan] when [rounds = 1]: a single round carries no spread
          information (historically reported as a misleading 0) *)
  min_energy : float;
  max_energy : float;
  p95_energy : float;  (** 95th percentile of per-round energy *)
  p99_energy : float;  (** 99th percentile of per-round energy *)
  deadline_misses : int;  (** summed over all rounds *)
  shed_instances : int;
      (** instances shed by a containment [control] hook, summed over
          all rounds; 0 outside fault-injection campaigns *)
}

type round_result = { energy : float; misses : int; shed : int }
(** One round's contribution to a {!summary}. *)

val round_rng : rng:Lepts_prng.Xoshiro256.t -> round:int -> Lepts_prng.Xoshiro256.t
(** The generator {!round} (and so {!simulate}) gives round [round]:
    [Xoshiro256.split_key rng ~key:round], leaving [rng] untouched.
    {!Lepts_robust.Campaign} replays these draws through {!round}'s
    hooks; {!Lepts_robust.Adaptive}, which runs its own rounds, calls
    this. *)

val summarize : round_result array -> summary
(** Ordered reduction of per-round outcomes (index = round) into a
    {!summary}. Raises [Invalid_argument] on an empty array. *)

val round :
  ?dist:Sampler.distribution ->
  ?scenario:
    (round:int ->
    totals:float array array ->
    float array array * Event_sim.faults option) ->
  ?control:(Event_sim.dispatch -> Event_sim.action) ->
  schedule:Lepts_core.Static_schedule.t ->
  policy:Lepts_dvs.Policy.t ->
  rng:Lepts_prng.Xoshiro256.t ->
  round:int ->
  unit ->
  round_result
(** One hyper-period, a pure function of ([rng]'s state, arguments);
    without hooks it is exactly {!simulate}'s round [round]. Exposed
    so checkpointed drivers ({!Lepts_robust.Checkpoint.map_indices})
    can compute individual rounds and resume from the units already
    on disk. [scenario] maps the sampled workloads to perturbed ones
    plus an optional fault scenario; [control] goes to
    {!Event_sim.run}. {!Lepts_robust.Campaign} is their user: it
    builds both per round, over the round's own counters. Does not
    touch the built-in metrics; pass the summary to {!record_metrics}
    once. *)

val record_metrics : summary -> unit
(** Bump the built-in simulation counters ([lepts_sim_rounds_total],
    misses, shed) by a summary's totals — what {!simulate} does
    internally. For drivers that obtain rounds via {!round} (including
    checkpoint-resumed ones, so a resumed run reports the same
    aggregate counters as an uninterrupted one). *)

val simulate :
  ?rounds:int ->
  ?jobs:int ->
  ?on_stats:(Lepts_par.Pool.stats -> unit) ->
  ?dist:Sampler.distribution ->
  schedule:Lepts_core.Static_schedule.t ->
  policy:Lepts_dvs.Policy.t ->
  rng:Lepts_prng.Xoshiro256.t ->
  unit ->
  summary
(** [simulate ~schedule ~policy ~rng ()] runs [rounds] (default 1000,
    the paper's setting) hyper-periods through {!Event_sim} with fresh
    workload draws from [dist] (default the paper's truncated normal).

    [jobs] (default 1) is the number of worker domains; the summary is
    bit-identical for every [jobs] value. [on_stats] receives the
    pool's throughput/utilization report after the rounds complete. *)

val pp_summary : Format.formatter -> summary -> unit
