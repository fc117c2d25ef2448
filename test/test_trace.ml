open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy
module Event_sim = Lepts_sim.Event_sim
module Trace = Lepts_sim.Trace
module Sampler = Lepts_sim.Sampler

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

(* Energy recomputed from the spans, as a cross-check of the
   simulator's accounting: a span of length [dt] at voltage [v] runs
   [v * dt / c0] megacycles, priced by [Model.energy]. Spans do not
   record their cycle counts, so it matches the simulator only up to
   rounding, and it excludes voltage-transition energy. *)
let trace_energy (t : Trace.t) ~power =
  List.fold_left
    (fun acc (s : Trace.span) ->
      let dt = s.Trace.to_time -. s.Trace.from_time in
      let cycles = s.Trace.voltage *. dt /. power.Model.c0 in
      acc +. Model.energy power ~v:s.Trace.voltage ~cycles)
    0. t.Trace.spans

(* Processor-busy time over the horizon; 0 on an empty horizon. *)
let utilization (t : Trace.t) =
  if t.Trace.horizon <= 0. then 0.
  else
    List.fold_left
      (fun acc (s : Trace.span) -> acc +. (s.Trace.to_time -. s.Trace.from_time))
      0. t.Trace.spans
    /. t.Trace.horizon

let fixture ?(power = power) () =
  let ts =
    Task_set.scale_wcec_to_utilization
      (Task_set.create
         [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
           Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
           Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
      ~power ~target:0.7
  in
  let plan = Plan.expand ts in
  let acs, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  acs

let test_spans_disjoint_and_ordered () =
  let acs = fixture () in
  let totals = Sampler.fixed acs.Static_schedule.plan ~value:`Acec in
  let _, trace = Event_sim.run_traced ~schedule:acs ~policy:Policy.Greedy ~totals () in
  Alcotest.(check bool) "nonempty" true (List.length trace.Trace.spans > 0);
  let rec check = function
    | (a : Trace.span) :: (b :: _ as rest) ->
      Alcotest.(check bool) "ordered, disjoint" true
        (a.Trace.to_time <= b.Trace.from_time +. 1e-9);
      check rest
    | [ _ ] | [] -> ()
  in
  check trace.Trace.spans;
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "positive length" true (s.Trace.to_time > s.Trace.from_time);
      Alcotest.(check bool) "within horizon" true
        (s.Trace.from_time >= 0. && s.Trace.to_time <= trace.Trace.horizon +. 1e-9);
      Alcotest.(check bool) "voltage in range" true
        (s.Trace.voltage >= power.Model.v_min -. 1e-9
         && s.Trace.voltage <= power.Model.v_max +. 1e-9))
    trace.Trace.spans

let test_trace_energy_crosscheck () =
  (* A span of length dt at voltage v runs v * dt / c0 megacycles, so
     the trace recomputes the simulator's energy to rounding; the
     second model fails a formula that assumes c0 = 1 or c_eff = 1. *)
  List.iter
    (fun power ->
      let acs = fixture ~power () in
      let totals = Sampler.fixed acs.Static_schedule.plan ~value:`Acec in
      let outcome, trace =
        Event_sim.run_traced ~schedule:acs ~policy:Policy.Greedy ~totals ()
      in
      Alcotest.(check (float 1e-6)) "energy recomputable"
        outcome.Lepts_sim.Outcome.energy (trace_energy trace ~power))
    [ power; Model.ideal ~c0:2. ~c_eff:0.5 () ]

let test_busy_time_bounds () =
  let acs = fixture () in
  let totals = Sampler.fixed acs.Static_schedule.plan ~value:`Wcec in
  let _, trace = Event_sim.run_traced ~schedule:acs ~policy:Policy.Greedy ~totals () in
  let u = utilization trace in
  Alcotest.(check bool) "utilization in (0, 1]" true (u > 0. && u <= 1. +. 1e-9)

let test_gantt_rendering () =
  let acs = fixture () in
  let totals = Sampler.fixed acs.Static_schedule.plan ~value:`Acec in
  let _, trace = Event_sim.run_traced ~schedule:acs ~policy:Policy.Greedy ~totals () in
  let out = Format.asprintf "%a" (Trace.pp_gantt ~width:48 ~n_tasks:3) trace in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "one row per task + axis" true (List.length lines >= 4);
  Alcotest.(check bool) "busy cells present" true
    (String.exists (fun c -> c >= '1' && c <= '9') out);
  Alcotest.(check bool) "idle cells present" true (String.contains out '.')

let test_spans_well_formed_under_faults () =
  (* Regression guard for span construction under the harshest
     conditions at once: release jitter, WCEC overruns past the budget,
     transition stalls, and denied voltage switches. Every span must
     still have positive length and the list must stay ordered. The
     horizon is deliberately NOT an upper bound here: with
     [enforce_budget = false] the overrun residue may execute past the
     hyper-period. *)
  let acs = fixture () in
  let totals =
    Array.map
      (Array.map (fun w -> 1.5 *. w))
      (Sampler.fixed acs.Static_schedule.plan ~value:`Wcec)
  in
  let faults =
    { Event_sim.release_offsets =
        Array.map (Array.mapi (fun j _ -> if j mod 2 = 0 then 0.3 else 0.)) totals;
      enforce_budget = false;
      deny_transition =
        (fun ~task:_ ~instance:_ ~sub:_ ~now:_ ~requested:_ -> true) }
  in
  let transition = { Event_sim.time_per_volt = 0.05; energy_per_volt = 0.1 } in
  let _, trace =
    Event_sim.run_traced ~transition ~faults ~schedule:acs ~policy:Policy.Greedy
      ~totals ()
  in
  Alcotest.(check bool) "nonempty" true (List.length trace.Trace.spans > 0);
  let rec check = function
    | (a : Trace.span) :: (b :: _ as rest) ->
      Alcotest.(check bool) "ordered under faults" true
        (a.Trace.to_time <= b.Trace.from_time +. 1e-9);
      check rest
    | [ _ ] | [] -> ()
  in
  check trace.Trace.spans;
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "positive length under faults" true
        (s.Trace.to_time > s.Trace.from_time);
      Alcotest.(check bool) "starts after time zero" true (s.Trace.from_time >= 0.))
    trace.Trace.spans

let test_empty_trace () =
  let t = { Trace.spans = []; horizon = 0. } in
  Alcotest.(check (float 0.)) "utilization 0" 0. (utilization t);
  let out = Format.asprintf "%a" (Trace.pp_gantt ?width:None ~n_tasks:2) t in
  Alcotest.(check bool) "renders placeholder" true (String.length out > 0)

let suite =
  [ ("spans disjoint and ordered", `Quick, test_spans_disjoint_and_ordered);
    ("trace energy cross-check", `Quick, test_trace_energy_crosscheck);
    ("busy-time bounds", `Quick, test_busy_time_bounds);
    ("gantt rendering", `Quick, test_gantt_rendering);
    ("spans well-formed under faults", `Quick, test_spans_well_formed_under_faults);
    ("empty trace", `Quick, test_empty_trace) ]
