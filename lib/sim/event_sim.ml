module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Static_schedule = Lepts_core.Static_schedule
module Policy = Lepts_dvs.Policy

let tiny = 1e-9

type instance_state = {
  task : int;
  instance : int;
  release : float;
  deadline : float;
  subs : int array;  (** order indices of this instance's sub-instances *)
  mutable remaining : float;  (** actual cycles still to execute *)
  mutable sub_pos : int;  (** current position in [subs] *)
  mutable quota_remaining : float;  (** unused quota of the current sub *)
  mutable finish : float;  (** nan until completed *)
  mutable shed : bool;  (** true once containment dropped the residue *)
}

type faults = {
  release_offsets : float array array;
  enforce_budget : bool;
  deny_transition :
    task:int -> instance:int -> sub:int -> now:float -> requested:float -> bool;
}

type dispatch = {
  d_task : int;
  d_instance : int;
  d_sub : int option;
  d_now : float;
  d_deadline : float;
  d_quota_remaining : float;
  d_budget_remaining : float;
  d_work_remaining : float;
  d_base_voltage : float;
}

type action = Run of float | Shed

(* Instance states grouped by task, in RM priority order, each task's
   instances in release order: [.(task).(instance)]. *)
let build_instances ?faults (schedule : Static_schedule.t) ~totals =
  let plan = schedule.Static_schedule.plan in
  let ts = plan.Plan.task_set in
  let enforce_budget =
    match faults with None -> true | Some f -> f.enforce_budget
  in
  (* The dispatcher's scans assume no instance arrives before
     [j * period]; see [run_with]. *)
  let offset i j =
    match faults with
    | None -> 0.
    | Some f ->
      let o = f.release_offsets.(i).(j) in
      if Float.is_finite o && o >= 0. then o
      else
        invalid_arg
          (Printf.sprintf
             "Event_sim.run: release_offsets.(%d).(%d) = %g must be finite and \
              non-negative"
             i j o)
  in
  Array.mapi
    (fun i per_instance ->
      let period = float_of_int (Task_set.task ts i).Task.period in
      Array.mapi
        (fun j subs ->
          let quota_sum =
            Array.fold_left
              (fun acc k -> acc +. schedule.Static_schedule.quotas.(k))
              0. subs
          in
          let first_quota =
            if Array.length subs = 0 then 0.
            else schedule.Static_schedule.quotas.(subs.(0))
          in
          let release = (float_of_int j *. period) +. offset i j in
          (* Cap at the quota sum: the budgeted worst case. An instance
             with no actual work completes at its release. Fault
             scenarios may disable the cap to model WCEC overruns; the
             excess then executes past the budget (see [current_sub]'s
             [None] branch) unless a containment policy sheds it. *)
          let remaining =
            if enforce_budget then Float.min totals.(i).(j) quota_sum
            else totals.(i).(j)
          in
          { task = i; instance = j; release;
            deadline = float_of_int (j + 1) *. period;
            subs;
            remaining = (if remaining <= tiny then 0. else remaining);
            sub_pos = 0;
            quota_remaining = first_quota;
            finish = (if remaining <= tiny then release else Float.nan);
            shed = false })
        per_instance)
    plan.Plan.instance_subs

(* Advance to the first sub-instance with unused quota; [None] means
   every quota is exhausted but actual work remains (within the repair
   tolerance in normal operation, or a genuine WCEC overrun under fault
   injection — the residue then runs at maximum speed). *)
let current_sub (schedule : Static_schedule.t) st =
  while st.quota_remaining <= tiny && st.sub_pos < Array.length st.subs - 1 do
    st.sub_pos <- st.sub_pos + 1;
    st.quota_remaining <- schedule.Static_schedule.quotas.(st.subs.(st.sub_pos))
  done;
  if st.quota_remaining > tiny then Some st.subs.(st.sub_pos) else None

(* Budget-enforced readiness (the paper's model): an instance may only
   execute its current sub-instance once that sub-instance's segment
   has been released — a task whose quota is exhausted suspends until
   its next segment, leaving the planned room to lower-priority
   tasks. Release jitter can push an instance's arrival past its first
   segment's release, hence the [max] with the instance arrival. *)
let ready_time (schedule : Static_schedule.t) st =
  if st.remaining <= tiny then infinity
  else
    match current_sub schedule st with
    | Some k ->
      Float.max schedule.Static_schedule.plan.Plan.order.(k).Sub.release st.release
    | None -> st.release

(* Unused quota left in this instance's budget: the current
   sub-instance's remainder plus every later segment's full quota. *)
let budget_remaining (schedule : Static_schedule.t) st =
  let acc = ref (Float.max 0. st.quota_remaining) in
  for pos = st.sub_pos + 1 to Array.length st.subs - 1 do
    acc := !acc +. schedule.Static_schedule.quotas.(st.subs.(pos))
  done;
  !acc

type transition = { time_per_volt : float; energy_per_volt : float }

(* One hyper-period; execution spans are collected only when [record]. *)
let run_with ~record ?transition ?faults ?control
    ~(schedule : Static_schedule.t) ~policy ~totals () =
  let spans = ref [] in
  let last_voltage = ref Float.nan in
  let plan = schedule.Static_schedule.plan in
  let power = schedule.Static_schedule.power in
  (* Only the static policy reads the worst-case voltage table. *)
  let static_v =
    match policy with
    | Policy.Static_voltage -> Static_schedule.worst_case_voltages schedule
    | Policy.Greedy | Policy.Max_speed | Policy.Greedy_quantized _ -> [||]
  in
  let tasks = build_instances ?faults schedule ~totals in
  let n_tasks = Array.length tasks in
  let periods =
    Array.init n_tasks (fun i ->
        float_of_int (Task_set.task plan.Plan.task_set i).Task.period)
  in
  (* [head.(i)]: task [i]'s first unfinished instance. Every instance
     before it is done and can be neither ready nor an event. *)
  let head = Array.make n_tasks 0 in
  let advance_head i =
    let insts = tasks.(i) in
    while head.(i) < Array.length insts && insts.(head.(i)).remaining <= tiny do
      head.(i) <- head.(i) + 1
    done
  in
  for i = 0 to n_tasks - 1 do
    advance_head i
  done;
  let energy = ref 0. in
  (* Per-task executed cycles. Bumped only where [executed] is charged
     below — the one place work leaves an instance — so a shed residue
     (dropped without running) is never counted and an overrun residue
     (executing past the budget in the [None]-sub branch) is counted
     exactly once. The estimator's observations depend on this
     single-accounting invariant; see the regression tests. *)
  let consumed = Array.make n_tasks 0. in
  let now = ref 0. in
  let n_states = Array.fold_left (fun acc insts -> acc + Array.length insts) 0 tasks in
  let guard = ref (10_000 + (100 * n_states * Array.length plan.Plan.order)) in
  let running = ref true in
  (* Both scans below rest on one bound: release offsets are
     non-negative, so instance [j] of task [i] is never ready before
     [j * period_i], and neither are the task's later instances.

     [pick_ready 0] is the ready instance of highest priority: lowest
     task, then lowest instance. A task's scan stops at its first
     unreleased instance. *)
  let rec pick_ready i = if i = n_tasks then None else scan_task i head.(i)
  and scan_task i j =
    let insts = tasks.(i) in
    if j < Array.length insts && float_of_int j *. periods.(i) <= !now +. tiny then
      let st = insts.(j) in
      if st.remaining > tiny && ready_time schedule st <= !now +. tiny then Some st
      else scan_task i (j + 1)
    else pick_ready (i + 1)
  in
  (* Earliest ready time after [now] among tasks [0, upto). A task's
     scan stops once its release bound reaches the running minimum. *)
  let next_event upto =
    let best = ref infinity in
    for i = 0 to upto - 1 do
      let insts = tasks.(i) in
      let j = ref head.(i) in
      while !j < Array.length insts && float_of_int !j *. periods.(i) < !best do
        let r = ready_time schedule insts.(!j) in
        if r > !now +. tiny then best := Float.min !best r;
        incr j
      done
    done;
    !best
  in
  while !running && !guard > 0 do
    decr guard;
    match pick_ready 0 with
    | None ->
      let next = next_event n_tasks in
      if Float.is_finite next then now := next else running := false
    | Some st -> (
      let sub = current_sub schedule st in
      let base_voltage, cycles_target =
        match sub with
        | Some k ->
          ( Policy.dispatch_voltage policy ~schedule ~static_v ~sub:k ~now:!now
              ~quota_remaining:st.quota_remaining,
            Float.min st.remaining st.quota_remaining )
        | None -> (power.Model.v_max, st.remaining)
      in
      let action =
        match control with
        | None -> Run base_voltage
        | Some decide ->
          decide
            { d_task = st.task; d_instance = st.instance; d_sub = sub;
              d_now = !now; d_deadline = st.deadline;
              d_quota_remaining = st.quota_remaining;
              d_budget_remaining = budget_remaining schedule st;
              d_work_remaining = st.remaining; d_base_voltage = base_voltage }
      in
      match action with
      | Shed ->
        (* Containment dropped the residue: the instance stops consuming
           processor time. Its finish time stays nan, so it is counted
           as a deadline miss (it never completed). *)
        st.remaining <- 0.;
        st.shed <- true;
        advance_head st.task
      | Run v ->
        (* A voltage-transition fault pins the processor at the previous
           level for this dispatch. *)
        let v =
          match (faults, sub) with
          | Some f, Some k
            when (not (Float.is_nan !last_voltage))
                 && Float.abs (v -. !last_voltage) > 1e-9
                 && f.deny_transition ~task:st.task ~instance:st.instance ~sub:k
                      ~now:!now ~requested:v -> !last_voltage
          | _ -> v
        in
        (* Voltage-transition overhead: stall and pay for the swing. *)
        (match transition with
        | Some { time_per_volt; energy_per_volt }
          when (not (Float.is_nan !last_voltage))
               && Float.abs (v -. !last_voltage) > 1e-9 ->
          let dv = Float.abs (v -. !last_voltage) in
          energy := !energy +. (energy_per_volt *. dv);
          now := !now +. (time_per_volt *. dv)
        | Some _ | None -> ());
        last_voltage := v;
        let cycle_time = Model.cycle_time power ~v in
        let time_needed = cycles_target *. cycle_time in
        (* A strictly higher-priority instance becoming ready preempts. *)
        let preempt_at = next_event st.task in
        let run_until = Float.min (!now +. time_needed) preempt_at in
        let executed =
          if run_until >= !now +. time_needed then cycles_target
          else (run_until -. !now) /. cycle_time
        in
        energy := !energy +. Model.energy power ~v ~cycles:executed;
        consumed.(st.task) <- consumed.(st.task) +. executed;
        if record && run_until > !now then
          spans :=
            { Trace.task = st.task; instance = st.instance; from_time = !now;
              to_time = run_until; voltage = v }
            :: !spans;
        st.remaining <- st.remaining -. executed;
        st.quota_remaining <- st.quota_remaining -. executed;
        now := run_until;
        if st.remaining <= tiny then begin
          st.remaining <- 0.;
          st.finish <- !now;
          advance_head st.task
        end)
  done;
  let misses = ref 0 and shed = ref 0 in
  let finish_times =
    Array.map
      (Array.map (fun st ->
           if st.shed then incr shed;
           if Float.is_nan st.finish || st.finish > st.deadline +. (1e-6 *. st.deadline)
           then incr misses;
           st.finish))
      tasks
  in
  ( { Outcome.energy = !energy; deadline_misses = !misses;
      shed_instances = !shed; finish_times; consumed },
    !spans )

let run_traced ?transition ?faults ?control ~schedule ~policy ~totals () =
  let outcome, spans =
    run_with ~record:true ?transition ?faults ?control ~schedule ~policy ~totals ()
  in
  ( outcome,
    { Trace.spans = List.rev spans;
      horizon = Plan.hyper_period schedule.Static_schedule.plan } )

let run ?transition ?faults ?control ~schedule ~policy ~totals () =
  fst (run_with ~record:false ?transition ?faults ?control ~schedule ~policy ~totals ())
