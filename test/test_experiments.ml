module Model = Lepts_power.Model
module Experiments = Lepts_experiments

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let test_sweeps_jobs_bit_identical () =
  (* Every experiment that takes [jobs] must return structurally equal
     results at -j 1 and -j 4 (the records are all floats/ints/strings,
     so [=] is exact). Small round counts: this gates determinism, not
     statistics. *)
  let ts = Experiments.Motivation.task_set () in
  let mpower = Experiments.Motivation.power () in
  let util jobs =
    Experiments.Utilization_sweep.run ~utilizations:[ 0.5; 0.7 ] ~rounds:40
      ~jobs ~task_set:ts ~power:mpower ~seed:11 ()
  in
  Alcotest.(check bool) "utilization sweep" true (util 1 = util 4);
  let trans jobs =
    Result.get_ok
      (Experiments.Transition_sweep.run ~overheads:[ 0.; 0.01 ] ~rounds:40 ~jobs
         ~task_set:ts ~power:mpower ~seed:12 ())
  in
  Alcotest.(check bool) "transition sweep" true (trans 1 = trans 4);
  let dist jobs =
    Result.get_ok
      (Experiments.Distribution_sweep.run ~rounds:40 ~jobs ~task_set:ts
         ~power:mpower ~seed:13 ())
  in
  Alcotest.(check bool) "distribution sweep" true (dist 1 = dist 4)

let test_fig6a_jobs_bit_identical () =
  let config =
    { Experiments.Fig6a.quick_config with
      task_counts = [ 2 ]; ratios = [ 0.5 ]; sets_per_point = 3; rounds = 30 }
  in
  let run config jobs = Experiments.Fig6a.run ~jobs config ~power in
  let base = run config 1 in
  Alcotest.(check bool) "set-level jobs" true (base = run config 4);
  Alcotest.(check bool) "three sets on two domains" true (base = run config 2);
  (* A one-set point runs its solves and rounds on the pool instead. *)
  let one = { config with sets_per_point = 1 } in
  Alcotest.(check bool) "solver-level jobs" true (run one 1 = run one 4)

(* Every field of a point, floats by their bits (a point whose sets all
   dropped has a NaN mean, which [=] would never match). *)
let point_key (p : Experiments.Fig6a.point) =
  Printf.sprintf "n%d r%h mean %Lx stddev %Lx sets %d misses %d"
    p.Experiments.Fig6a.n_tasks p.ratio
    (Int64.bits_of_float p.mean_improvement_pct)
    (Int64.bits_of_float p.stddev_improvement_pct)
    p.sets_measured p.total_misses

let test_fig6a_matches_per_point_reference () =
  (* A multi-point grid, so a cell filed under the wrong point, or
     points emitted out of config order, shows as a mismatch. *)
  let config =
    { Experiments.Fig6a.quick_config with
      task_counts = [ 2; 3 ]; ratios = [ 0.1; 0.9 ]; sets_per_point = 3; rounds = 30 }
  in
  let expected = List.map point_key (Reference.Fig6a.run ~jobs:2 config ~power) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "-j %d" jobs) expected
        (List.map point_key (Experiments.Fig6a.run ~jobs config ~power)))
    [ 1; 2; 4 ]

let test_motivation_reproduces_paper () =
  match Experiments.Motivation.run () with
  | Error e -> Alcotest.failf "motivation failed: %a" Lepts_core.Solver.pp_error e
  | Ok r ->
    Alcotest.(check (float 0.1)) "WCS e1" 6.67 r.Experiments.Motivation.wcs_end_times.(0);
    Alcotest.(check (float 0.1)) "WCS e2" 13.33 r.wcs_end_times.(1);
    Alcotest.(check (float 0.1)) "ACS e1" 10. r.acs_end_times.(0);
    Alcotest.(check (float 0.1)) "ACS e2" 15. r.acs_end_times.(1);
    Alcotest.(check (float 0.1)) "ACS e3" 20. r.acs_end_times.(2);
    Alcotest.(check (float 1.)) "avg improvement ~24-25%" 24.7 r.improvement_pct;
    Alcotest.(check (float 1.)) "worst penalty ~33%" 33.3 r.worst_penalty_pct;
    Alcotest.(check (float 0.05)) "task1 worst V" 2. r.acs_worst_voltages.(0);
    Alcotest.(check (float 0.05)) "task2 worst V" 4. r.acs_worst_voltages.(1);
    let table = Format.asprintf "%s" (Lepts_util.Table.render (Experiments.Motivation.to_table r)) in
    Alcotest.(check bool) "table renders" true (String.length table > 100)

let test_improvement_measure () =
  let ts = Experiments.Motivation.task_set () in
  let power = Experiments.Motivation.power () in
  match Experiments.Improvement.measure ~rounds:50 ~task_set:ts ~power ~sim_seed:3 () with
  | Error e -> Alcotest.failf "measure failed: %a" Lepts_core.Solver.pp_error e
  | Ok r ->
    Alcotest.(check int) "no WCS misses" 0 r.Experiments.Improvement.wcs_misses;
    Alcotest.(check int) "no ACS misses" 0 r.acs_misses;
    Alcotest.(check bool) "ACS saves energy" true (r.improvement_pct > 0.);
    Alcotest.(check int) "3 sub-instances" 3 r.sub_instances

let test_fig6a_tiny_sweep () =
  let config =
    { Experiments.Fig6a.quick_config with
      task_counts = [ 2; 3 ]; ratios = [ 0.1; 0.9 ]; sets_per_point = 2; rounds = 30 }
  in
  let points = Experiments.Fig6a.run config ~power in
  Alcotest.(check int) "4 points" 4 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check int) "no deadline misses" 0 p.Experiments.Fig6a.total_misses;
      Alcotest.(check bool) "sets measured" true (p.sets_measured > 0);
      Alcotest.(check bool) "improvement finite" true
        (Float.is_finite p.mean_improvement_pct))
    points;
  let table = Lepts_util.Table.render (Experiments.Fig6a.to_table points) in
  Alcotest.(check bool) "table renders" true (String.length table > 50)

let test_fig6a_ratio_trend () =
  (* The paper's robust qualitative claim: more workload variation
     (smaller ratio) gives more improvement. Averaged over a few sets
     at a fixed task count. *)
  let config =
    { Experiments.Fig6a.quick_config with
      task_counts = [ 3 ]; ratios = [ 0.1; 0.9 ]; sets_per_point = 4; rounds = 60 }
  in
  match Experiments.Fig6a.run config ~power with
  | [ low; high ] ->
    Alcotest.(check bool) "0.1 beats 0.9" true
      (low.Experiments.Fig6a.mean_improvement_pct
       > high.Experiments.Fig6a.mean_improvement_pct)
  | _ -> Alcotest.fail "expected two points"

let test_fig6b_cnc () =
  let config =
    { Experiments.Fig6b.quick_config with ratios = [ 0.1 ]; rounds = 30; include_gap = false }
  in
  match Experiments.Fig6b.run config ~power with
  | [ p ] ->
    Alcotest.(check string) "application" "CNC" p.Experiments.Fig6b.application;
    Alcotest.(check int) "no misses" 0 p.misses;
    Alcotest.(check bool) "positive improvement" true (p.improvement_pct > 0.)
  | _ -> Alcotest.fail "expected one point"

let test_policies_ablation () =
  let ts = Experiments.Motivation.task_set () in
  let power = Experiments.Motivation.power () in
  match Experiments.Policies.run ~rounds:40 ~task_set:ts ~power ~seed:5 () with
  | Error e -> Alcotest.failf "policies failed: %a" Lepts_core.Solver.pp_error e
  | Ok cells ->
    Alcotest.(check int) "2 schedules x 3 policies" 6 (List.length cells);
    List.iter
      (fun c -> Alcotest.(check int) "no misses" 0 c.Experiments.Policies.misses)
      cells;
    (* Greedy must beat max-speed on both schedules. *)
    let energy schedule policy =
      (List.find
         (fun c ->
           c.Experiments.Policies.schedule = schedule
           && c.Experiments.Policies.policy = policy)
         cells)
        .Experiments.Policies.mean_energy
    in
    List.iter
      (fun s ->
        Alcotest.(check bool) "greedy <= static" true
          (energy s Lepts_dvs.Policy.Greedy <= energy s Lepts_dvs.Policy.Static_voltage +. 1e-9);
        Alcotest.(check bool) "static <= max-speed" true
          (energy s Lepts_dvs.Policy.Static_voltage
           <= energy s Lepts_dvs.Policy.Max_speed +. 1e-9))
      [ "WCS"; "ACS" ]

let suite =
  [ ("motivation reproduces paper", `Quick, test_motivation_reproduces_paper);
    ("improvement measurement", `Quick, test_improvement_measure);
    ("fig6a tiny sweep", `Slow, test_fig6a_tiny_sweep);
    ("fig6a ratio trend", `Slow, test_fig6a_ratio_trend);
    ("fig6b CNC point", `Slow, test_fig6b_cnc);
    ("policy ablation", `Quick, test_policies_ablation);
    ("sweeps bit-identical across jobs", `Slow, test_sweeps_jobs_bit_identical);
    ("fig6a bit-identical across jobs", `Slow, test_fig6a_jobs_bit_identical);
    ("fig6a matches per-point reference", `Slow, test_fig6a_matches_per_point_reference) ]
