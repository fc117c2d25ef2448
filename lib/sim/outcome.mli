(** Result of simulating one hyper-period. *)

type t = {
  energy : float;  (** total energy consumed by task execution *)
  deadline_misses : int;  (** instances that completed after their
                              deadline (or not at all) *)
  shed_instances : int;
      (** instances whose residual work a containment policy dropped
          (always counted as deadline misses too, since they never
          completed); 0 outside fault-injection runs *)
  finish_times : float array array;
      (** completion time per instance, indexed [.(task).(instance)];
          [nan] for instances that never completed *)
  consumed : float array;
      (** cycles each task {e actually executed} during the round,
          indexed by priority level — the observation stream for
          {!Estimator}. Accounted at the single dispatch-execution
          point of the simulator, so a shed instance contributes only
          the cycles it ran before the drop (never its residue) and a
          WCEC overrun's residue is counted exactly once, as it
          executes at [v_max]. *)
}
