(** Overrun containment: a runtime guard wrapping any online policy.

    The online greedy policy stretches each sub-instance's remaining
    {e budgeted} quota to its static end-time. When an instance's
    actual work exceeds its WCEC budget (a fault — see
    {!Fault_injector}), that stretching is exactly wrong: the instance
    burns its slack at low speed and then dumps unbudgeted overflow
    work on the tail of the schedule, pushing itself and
    lower-priority tasks past their deadlines.

    The containment control hook watches every dispatch of the wrapped
    policy (it receives the policy's own voltage choice as
    [d_base_voltage]) and intervenes in two places:

    - {e escalation}: as soon as an instance's remaining work exceeds
      its remaining budget — an overrun is then inevitable — dispatches
      run at [v_max] instead of the policy voltage;
    - {e shedding} (optional): once an overrunning instance is also
      {e hopeless} — its remaining work cannot finish by the deadline
      even at maximum speed — drop the residue instead of executing
      it, so a misbehaving task cannot steal processor time reserved
      for well-behaved ones. In a frame-based system a post-deadline
      result is worthless anyway. A shed instance never completes and
      is counted as a deadline miss, but its damage is contained.

    Interventions are recorded in per-fault-class {!counters}. *)

type config = {
  shed : bool;
      (** drop an overrunning instance's residual work once it cannot
          meet its deadline even at [v_max] *)
  escalate_early : bool;
      (** run at [v_max] as soon as an overrun becomes inevitable *)
}

val default_config : config
(** [{ shed = true; escalate_early = true }] *)

type counters = {
  mutable escalated_dispatches : int;  (** dispatches forced to [v_max] *)
  mutable escalated_instances : int;  (** distinct instances escalated *)
  mutable shed_instances : int;  (** instances whose residue was dropped *)
}

val fresh_counters : unit -> counters

val add_counters : into:counters -> counters -> unit
(** [add_counters ~into c] accumulates [c] into [into] — used to merge
    per-round counters in round order after a parallel campaign. *)

val control :
  ?config:config ->
  power:Lepts_power.Model.t ->
  counters:counters ->
  unit ->
  Lepts_sim.Event_sim.dispatch ->
  Lepts_sim.Event_sim.action
(** [control ~power ~counters ()] builds a control hook for one
    hyper-period of {!Lepts_sim.Event_sim.run} /
    {!Lepts_sim.Runner.round}. The hook is stateful (it deduplicates
    per-instance escalation counts by (task, instance)), so build a
    fresh one per round, as {!Campaign} does. *)

val pp_config : Format.formatter -> config -> unit
