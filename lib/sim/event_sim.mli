(** Event-driven rate-monotonic simulation of one hyper-period with
    online DVS.

    This is the ground truth for the experiments: a preemptive
    dispatcher where the running instance executes its sub-instance
    quotas in order and the online {!Lepts_dvs.Policy} picks the
    voltage at every dispatch (start {e and} resume).

    Scheduling is {e budget-enforced} rate-monotonic, matching the
    paper's formulation (its [s >= r] constraints): an instance may
    execute its current sub-instance only once that sub-instance's
    segment is released, so a task whose current quota is exhausted
    suspends until its next segment instead of stealing the room the
    static schedule reserved for lower-priority tasks. Without this
    rule a higher-priority task running ahead of its plan can push a
    lower-priority task past its worst-case window and break the
    deadline guarantee (the test suite demonstrates this).

    Under budget enforcement the event-driven execution coincides with
    the closed-form order-faithful executor (the test suite's
    [Reference.Sequence]) whenever both are given the same per-instance
    workloads — a property the tests check — but this module makes no
    such assumption and remains correct for policies other than greedy
    reclamation.

    {2 Fault model}

    The optional [faults] argument perturbs the execution to study how
    the schedule degrades when the paper's assumptions are violated
    (see {!Lepts_robust.Fault_injector} for the seeded generator):

    - {e release jitter}: instance arrivals are delayed by
      [release_offsets];
    - {e WCEC overruns}: with [enforce_budget = false], actual cycles
      beyond the budgeted quota sum are executed instead of capped —
      the residue runs at [v_max] once every quota is exhausted, unless
      a [control] hook sheds it;
    - {e voltage-transition faults}: [deny_transition] may refuse a
      requested voltage change, pinning the processor at the previous
      level for that dispatch.

    The optional [control] hook observes every dispatch (including the
    wrapped policy's voltage choice) and may override the voltage or
    shed the instance's residual work — the mechanism behind
    {!Lepts_robust.Containment}. With both arguments absent the
    behaviour is exactly the historical one.

    {2 Cost}

    Each event (a dispatch or an idle advance) costs O(tasks) plus the
    instances it inspects. The dispatcher keeps every task's instances
    in release order with a head at the first unfinished one. Instance
    [j] of a task with period [p] is never released before [j * p], so
    the search for the ready instance stops at the first instance with
    [j * p > now], and the search for the next event stops once [j * p]
    reaches the earliest event found so far. Outside overruns that is
    one or two instances per task, however long the hyper-period.
    Dispatch order, and so every result bit, is that of a full scan
    over all instances. {!run} records no trace. *)

type transition = {
  time_per_volt : float;  (** stall per volt of voltage change (ms/V) *)
  energy_per_volt : float;  (** switching energy per volt of change *)
}
(** Voltage-transition overhead model. The paper ignores transitions
    ("the increase of energy consumption is negligible when the
    transition time is small comparing with the task execution time",
    citing Mochocki et al.); passing a [transition] lets the simulator
    quantify that claim: every change of the supply voltage stalls the
    processor for [time_per_volt * |dV|] and costs
    [energy_per_volt * |dV|]. *)

type faults = {
  release_offsets : float array array;
      (** non-negative, finite arrival delay per instance, indexed
          [.(task).(instance)]; {!run} and {!run_traced} raise
          [Invalid_argument] on any other value *)
  enforce_budget : bool;
      (** [true] (the default behaviour) caps each instance's actual
          cycles at its quota sum; [false] lets WCEC overruns execute *)
  deny_transition :
    task:int -> instance:int -> sub:int -> now:float -> requested:float -> bool;
      (** consulted once per dispatch that requests a voltage change;
          returning [true] keeps the previous voltage for this
          dispatch *)
}
(** A concrete fault scenario for one hyper-period. *)

type dispatch = {
  d_task : int;
  d_instance : int;
  d_sub : int option;  (** order index; [None] once every quota is spent *)
  d_now : float;
  d_deadline : float;  (** the instance's absolute deadline *)
  d_quota_remaining : float;
  d_budget_remaining : float;
      (** unused quota across this and all later segments *)
  d_work_remaining : float;  (** actual cycles still to execute *)
  d_base_voltage : float;  (** what the wrapped policy chose *)
}
(** What a {e control} hook sees at each dispatch. *)

type action =
  | Run of float  (** execute at this voltage *)
  | Shed  (** drop the instance's residual work (counts as a miss) *)

val run :
  ?transition:transition ->
  ?faults:faults ->
  ?control:(dispatch -> action) ->
  schedule:Lepts_core.Static_schedule.t ->
  policy:Lepts_dvs.Policy.t ->
  totals:float array array ->
  unit ->
  Outcome.t
(** [run ~schedule ~policy ~totals] executes one hyper-period in which
    instance [(i, j)] requires [totals.(i).(j)] actual cycles
    (necessarily [<= wcec_i] for the guarantees to hold; larger values
    are capped at the quota sum, matching hardware that enforces
    worst-case budgets — unless [faults] disables enforcement).
    Deadline misses are recorded, not fatal. *)

val run_traced :
  ?transition:transition ->
  ?faults:faults ->
  ?control:(dispatch -> action) ->
  schedule:Lepts_core.Static_schedule.t ->
  policy:Lepts_dvs.Policy.t ->
  totals:float array array ->
  unit ->
  Outcome.t * Trace.t
(** Like {!run}, additionally recording every execution span (task,
    interval, voltage) for visualisation and debugging. *)
