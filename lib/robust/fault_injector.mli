(** Seeded, deterministic fault injection for simulation scenarios.

    The paper's ACS guarantee — "deadlines hold if every task takes its
    WCEC" — leans on assumptions a real DVS platform violates: WCEC
    estimates drift (Berten et al., arXiv:0809.1132), releases jitter,
    and voltage-transition requests can be denied or applied late. This
    module perturbs a sampled workload scenario with three fault
    classes so those violations can be studied reproducibly:

    - {e WCEC overruns}: an instance's actual cycles exceed its
      budgeted WCEC by [overrun_factor], with probability
      [overrun_prob] per instance; budget enforcement in the simulator
      is disabled so the excess actually executes;
    - {e release jitter}: an instance's arrival is delayed by a uniform
      draw from [[0, jitter_frac * period]], with probability
      [jitter_prob];
    - {e voltage-transition faults}: each dispatch requesting a voltage
      change is denied with probability [denial_prob] — the processor
      stays at the previous level for that dispatch.

    Everything is driven by one generator seeded from
    [seed + round], so a fixed (spec, round, workload) triple yields
    identical faults, {!counters} and simulation outcome on every run.
    The injector keeps counts, not a log of each fault: campaigns and
    the adaptive sweep read only the counts. *)

type spec = {
  seed : int;
  overrun_prob : float;  (** per-instance overrun probability, in [0,1] *)
  overrun_factor : float;  (** actual = factor * WCEC on overrun; >= 1 *)
  jitter_prob : float;  (** per-instance jitter probability, in [0,1] *)
  jitter_frac : float;  (** max delay as a fraction of the period, in [0,1) *)
  denial_prob : float;  (** per-dispatch transition-denial probability *)
}

val zero : spec
(** All fault rates zero (seed 2005): {!perturb} then returns the
    workloads unchanged and a scenario whose simulation is bit-identical
    to a fault-free run. *)

type counters = {
  mutable overruns : int;
  mutable jitters : int;
  mutable denials : int;
}
(** Per-fault-class injection counts, accumulated across {!perturb}
    calls that share the record (denials are counted as the simulator
    consults the scenario). *)

val fresh_counters : unit -> counters

val add_counters : into:counters -> counters -> unit
(** [add_counters ~into c] accumulates [c] into [into] — used to merge
    per-round counters in round order after a parallel campaign. *)

type scenario = {
  totals : float array array;  (** perturbed per-instance workloads *)
  faults : Lepts_sim.Event_sim.faults;  (** hand to {!Lepts_sim.Event_sim.run} *)
}

val perturb :
  spec ->
  ?counters:counters ->
  round:int ->
  Lepts_preempt.Plan.t ->
  totals:float array array ->
  scenario
(** [perturb spec ~round plan ~totals] draws one fault scenario for the
    given hyper-period round. Deterministic in (spec, round, totals).
    Raises [Invalid_argument] on out-of-range spec fields. *)

val validate : spec -> unit
(** Per-field range checks. Raises [Invalid_argument] naming the
    offending field and its value — probabilities must lie in
    [[0, 1]], [overrun_factor] must be finite and >= 1, [jitter_frac]
    in [[0, 1)]. Every check rejects NaN. *)

val pp_spec : Format.formatter -> spec -> unit
