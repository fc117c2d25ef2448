module Event_sim = Lepts_sim.Event_sim
module Model = Lepts_power.Model

type config = { shed : bool; escalate_early : bool }

let default_config = { shed = true; escalate_early = true }

let pp_config ppf c =
  Format.fprintf ppf "shed=%b escalate-early=%b" c.shed c.escalate_early

type counters = {
  mutable escalated_dispatches : int;
  mutable escalated_instances : int;
  mutable shed_instances : int;
}

let fresh_counters () =
  { escalated_dispatches = 0; escalated_instances = 0; shed_instances = 0 }

let add_counters ~into c =
  into.escalated_dispatches <- into.escalated_dispatches + c.escalated_dispatches;
  into.escalated_instances <- into.escalated_instances + c.escalated_instances;
  into.shed_instances <- into.shed_instances + c.shed_instances

let tiny = 1e-9

let control ?(config = default_config) ~power ~counters () =
  let v_max = power.Model.v_max in
  (* Track which instances have already been counted as escalated so
     [escalated_instances] counts instances, not dispatches. *)
  let escalated = Hashtbl.create 16 in
  let note_escalation (d : Event_sim.dispatch) =
    counters.escalated_dispatches <- counters.escalated_dispatches + 1;
    let key = (d.Event_sim.d_task, d.Event_sim.d_instance) in
    if not (Hashtbl.mem escalated key) then begin
      Hashtbl.add escalated key ();
      counters.escalated_instances <- counters.escalated_instances + 1
    end
  in
  (* The remaining work cannot finish by the deadline even at maximum
     speed: in a frame-based system the result is then worthless, and
     every further cycle spent on it is stolen from well-behaved
     tasks. *)
  let hopeless (d : Event_sim.dispatch) =
    d.Event_sim.d_now
    +. Model.min_duration power ~cycles:d.Event_sim.d_work_remaining
    > d.Event_sim.d_deadline +. tiny
  in
  fun (d : Event_sim.dispatch) ->
    let overrun_inevitable =
      d.Event_sim.d_work_remaining > d.Event_sim.d_budget_remaining +. tiny
    in
    if config.shed && overrun_inevitable && hopeless d then begin
      counters.shed_instances <- counters.shed_instances + 1;
      Event_sim.Shed
    end
    else
      match d.Event_sim.d_sub with
      | None ->
        (* Budget exhausted with work remaining: a confirmed overrun,
           but still winnable — burn the residue at maximum speed. *)
        note_escalation d;
        Event_sim.Run v_max
      | Some _ ->
        if config.escalate_early && overrun_inevitable then begin
          (* More work left than budget: the instance will overrun.
             Stop stretching quotas to their end-times and burn through
             the backlog at maximum speed instead, banking time for the
             overflow (and for lower-priority tasks). *)
          note_escalation d;
          Event_sim.Run v_max
        end
        else Event_sim.Run d.Event_sim.d_base_voltage
