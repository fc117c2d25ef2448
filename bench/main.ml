(* Benchmark & reproduction harness.

   Phase 1 regenerates every table and figure of the paper's evaluation
   (at a reduced-but-same-shape scale; the `lepts` CLI runs the full
   protocol) and prints the rows the paper reports.

   Phase 2 runs Bechamel micro-benchmarks, one per experiment
   (plus ablations of the design choices called out in DESIGN.md), and
   prints estimated wall-clock time per run. *)

open Bechamel
module Model = Lepts_power.Model
module Plan = Lepts_preempt.Plan
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Objective = Lepts_core.Objective
module Experiments = Lepts_experiments
module Pool = Lepts_par.Pool

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* ---------------------------------------------------------------------- *)
(* Phase 1: regenerate every table / figure.                              *)
(* ---------------------------------------------------------------------- *)

let regenerate_motivation () =
  section "Table 1 / Figs 1-2: motivational example (paper vs measured)";
  match Experiments.Motivation.run () with
  | Error e -> Format.printf "error: %a@." Solver.pp_error e
  | Ok report -> Lepts_util.Table.print (Experiments.Motivation.to_table report)

let regenerate_fig6a () =
  section "Fig 6(a): random task sets (reduced scale; paper: 100 sets, 1000 rounds)";
  let config =
    { Experiments.Fig6a.paper_config with sets_per_point = 3; rounds = 100 }
  in
  let points =
    Experiments.Fig6a.run ~progress:(fun s -> Printf.printf "  %s\n%!" s) config ~power
  in
  Lepts_util.Table.print (Experiments.Fig6a.to_table points);
  print_endline
    "paper shape: improvement grows with workload variation (ratio 0.1 >> 0.9),\n\
     peaking around 60% (10 tasks, ratio 0.1); near zero at ratio 0.9."

let regenerate_fig6b () =
  section "Fig 6(b): CNC and GAP applications (reduced rounds)";
  let config = { Experiments.Fig6b.paper_config with rounds = 100 } in
  let points =
    Experiments.Fig6b.run ~progress:(fun s -> Printf.printf "  %s\n%!" s) config ~power
  in
  Lepts_util.Table.print (Experiments.Fig6b.to_table points);
  print_endline
    "paper shape: CNC up to ~41% and GAP up to ~30% at ratio 0.1, decaying as\n\
     the ratio approaches 1."

let regenerate_design_ablations () =
  section "Ablations: DESIGN.md design choices (CNC, ratio 0.1)";
  let ts = Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 () in
  let show title = function
    | Error e -> Format.printf "%s: error: %a@." title Solver.pp_error e
    | Ok table ->
      Printf.printf "%s:\n" title;
      Lepts_util.Table.print table
  in
  show "NLP formulations" (Experiments.Ablations.formulations ~task_set:ts ~power ());
  show "Objectives"
    (Experiments.Ablations.objectives ~rounds:200 ~task_set:ts ~power ~seed:3 ());
  show "Voltage quantization"
    (Experiments.Ablations.quantization ~rounds:200 ~task_set:ts ~power ~seed:3 ());
  show "Structures"
    (Experiments.Ablations.structures ~task_set:ts ~power ());
  section "Extension: utilization sweep (CNC, ratio 0.1)";
  Lepts_util.Table.print
    (Experiments.Utilization_sweep.to_table
       (Experiments.Utilization_sweep.run ~rounds:200 ~task_set:ts ~power ~seed:3 ()));
  section "Extension: workload distribution shapes (CNC, ratio 0.1)";
  (match Experiments.Distribution_sweep.run ~rounds:200 ~task_set:ts ~power ~seed:3 () with
  | Error e -> Format.printf "error: %a@." Solver.pp_error e
  | Ok points -> Lepts_util.Table.print (Experiments.Distribution_sweep.to_table points));
  section "Extension: voltage-transition overhead (CNC, ratio 0.1)";
  match Experiments.Transition_sweep.run ~rounds:200 ~task_set:ts ~power ~seed:3 () with
  | Error e -> Format.printf "error: %a@." Solver.pp_error e
  | Ok points -> Lepts_util.Table.print (Experiments.Transition_sweep.to_table points)

let parallel_speedup () =
  section "Parallel campaign engine: fig6a reduced sweep at -j 1 vs -j 4";
  let config =
    { Experiments.Fig6a.paper_config with
      task_counts = [ 4; 6 ]; ratios = [ 0.1 ]; sets_per_point = 4; rounds = 100 }
  in
  let time jobs =
    let t0 = Unix.gettimeofday () in
    let points = Experiments.Fig6a.run ~jobs config ~power in
    (Unix.gettimeofday () -. t0, points)
  in
  let t_seq, seq_points = time 1 in
  let t_par, par_points = time 4 in
  let identical =
    List.for_all2
      (fun (a : Experiments.Fig6a.point) (b : Experiments.Fig6a.point) ->
        a = b)
      seq_points par_points
  in
  Printf.printf
    "  -j 1: %6.2fs   -j 4: %6.2fs   speedup: %.2fx   bit-identical: %b\n"
    t_seq t_par (t_seq /. Float.max t_par 1e-9) identical;
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "  (%d core(s) available; speedup saturates at min(jobs, cores), and with\n\
    \   jobs > cores the domains time-slice one core and every minor-GC\n\
    \   stop-the-world barrier pays a scheduler round-trip, so expect a\n\
    \   slowdown there — the numbers above are only meaningful on >= 4 cores)\n"
    cores

let regenerate_policy_ablation () =
  section "Ablation: offline schedule x online policy (CNC, ratio 0.1)";
  let ts = Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 () in
  match Experiments.Policies.run ~rounds:200 ~task_set:ts ~power ~seed:7 () with
  | Error e -> Format.printf "error: %a@." Solver.pp_error e
  | Ok cells -> Lepts_util.Table.print (Experiments.Policies.to_table cells)

(* ---------------------------------------------------------------------- *)
(* Phase 2: Bechamel micro-benchmarks.                                    *)
(* ---------------------------------------------------------------------- *)

let cnc_plan = lazy (Plan.expand (Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 ()))

let cnc_schedules =
  lazy
    (let plan = Lazy.force cnc_plan in
     let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
     let acs, _ =
       Result.get_ok
         (Solver.solve_acs
            ~warm_starts:[ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
            ~plan ~power ())
     in
     (wcs, acs))

let random_set n =
  lazy
    (let rng = Lepts_prng.Xoshiro256.create ~seed:(100 + n) in
     Result.get_ok
       (Lepts_workloads.Random_gen.generate
          (Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio:0.1)
          ~power ~rng))

let rand5 = random_set 5

let bench_tests () =
  let motivation =
    Test.make ~name:"motivation (Table 1 / Figs 1-2)"
      (Staged.stage (fun () -> Result.get_ok (Experiments.Motivation.run ())))
  in
  let fig6a_point =
    Test.make ~name:"fig6a point (n=4, ratio=0.1, 1 set, 50 rounds)"
      (Staged.stage (fun () ->
           let rng = Lepts_prng.Xoshiro256.create ~seed:17 in
           let ts =
             Result.get_ok
               (Lepts_workloads.Random_gen.generate
                  (Lepts_workloads.Random_gen.default_config ~n_tasks:4 ~ratio:0.1)
                  ~power ~rng)
           in
           Result.get_ok
             (Experiments.Improvement.measure ~rounds:50 ~task_set:ts ~power
                ~sim_seed:3 ())))
  in
  let fig6b_cnc =
    Test.make ~name:"fig6b CNC point (ratio=0.1, 50 rounds)"
      (Staged.stage (fun () ->
           let ts = Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 () in
           Result.get_ok
             (Experiments.Improvement.measure ~rounds:50 ~task_set:ts ~power
                ~sim_seed:5 ())))
  in
  let expand =
    Test.make ~name:"fully preemptive expansion (rand n=5)"
      (Staged.stage (fun () -> Plan.expand (Lazy.force rand5)))
  in
  let solve_wcs =
    Test.make ~name:"WCS solve (CNC, 32 subs)"
      (Staged.stage (fun () ->
           Result.get_ok (Solver.solve_wcs ~plan:(Lazy.force cnc_plan) ~power ())))
  in
  let solve_acs =
    Test.make ~name:"ACS solve (CNC, 32 subs)"
      (Staged.stage (fun () ->
           Result.get_ok (Solver.solve_acs ~plan:(Lazy.force cnc_plan) ~power ())))
  in
  let gradient_adjoint =
    Test.make ~name:"objective adjoint gradient (CNC)"
      (Staged.stage (fun () ->
           let plan = Lazy.force cnc_plan in
           let _, acs = Lazy.force cnc_schedules in
           let totals = Objective.instance_totals Objective.Average plan in
           Objective.eval_with_gradient ~plan ~power ~totals
             ~e:acs.Static_schedule.end_times ~w_hat:acs.Static_schedule.quotas))
  in
  let gradient_numdiff =
    Test.make ~name:"objective numerical gradient (CNC)"
      (Staged.stage (fun () ->
           let plan = Lazy.force cnc_plan in
           let _, acs = Lazy.force cnc_schedules in
           let totals = Objective.instance_totals Objective.Average plan in
           let m = Plan.size plan in
           let f x =
             Objective.eval ~plan ~power ~totals ~e:(Array.sub x 0 m)
               ~w_hat:(Array.sub x m m)
           in
           Lepts_optim.Numdiff.gradient ~f
             (Array.append acs.Static_schedule.end_times acs.Static_schedule.quotas)))
  in
  let event_sim =
    Test.make ~name:"event-driven simulation (CNC, 1 hyper-period)"
      (Staged.stage (fun () ->
           let _, acs = Lazy.force cnc_schedules in
           let rng = Lepts_prng.Xoshiro256.create ~seed:23 in
           let totals = Lepts_sim.Sampler.instance_totals (Lazy.force cnc_plan) ~rng in
           Lepts_sim.Event_sim.run ~schedule:acs ~policy:Lepts_dvs.Policy.Greedy ~totals ()))
  in
  let sequence_sim =
    Test.make ~name:"closed-form executor (CNC, 1 hyper-period)"
      (Staged.stage (fun () ->
           let _, acs = Lazy.force cnc_schedules in
           let totals = Lepts_sim.Sampler.fixed (Lazy.force cnc_plan) ~value:`Acec in
           Lepts_sim.Sequence.run ~schedule:acs ~totals))
  in
  [ motivation; fig6a_point; fig6b_cnc; expand; solve_wcs; solve_acs;
    gradient_adjoint; gradient_numdiff; event_sim; sequence_sim ]

let run_benchmarks () =
  section "Bechamel micro-benchmarks (time per run)";
  (* Force shared fixtures so setup cost cannot contaminate the runs. *)
  ignore (Lazy.force cnc_plan);
  ignore (Lazy.force cnc_schedules);
  ignore (Lazy.force rand5);
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 2.) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyses = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | Some [] | None -> Float.nan
          in
          Printf.printf "  %-48s %12.3f ms/run\n%!" name (time_ns /. 1e6))
        analyses)
    (bench_tests ())

(* ---------------------------------------------------------------------- *)
(* Phase 3: solver-kernel benchmarks (time + allocation), --json mode.    *)
(* ---------------------------------------------------------------------- *)

(* The allocating {!Lepts_core.Objective} entry points ([eval] via
   [trace], [eval_with_gradient] on a throwaway workspace) against the
   workspace kernels the solver calls: same inputs, ns/op and
   minor-words/op side by side — plus full multi-start solves at three
   plan sizes and the sequential-vs-parallel multi-start wall clock. *)

module Workspace = Lepts_core.Workspace

let motivation_plan = lazy (Plan.expand (Experiments.Motivation.task_set ()))
let rand8 = random_set 8
let rand8_plan = lazy (Plan.expand (Lazy.force rand8))

(* The huge case: ~2000 sub-instances, a scale the pre-PR-8 solver
   never touched. [default_config] caps expansion at 1000 sub-instances,
   so the cap is raised explicitly; seed 104 is the first seed whose
   draw is RM-schedulable at this size. *)
let rand16_plan =
  lazy
    (let rng = Lepts_prng.Xoshiro256.create ~seed:104 in
     let config =
       { (Lepts_workloads.Random_gen.default_config ~n_tasks:16 ~ratio:0.1) with
         Lepts_workloads.Random_gen.max_sub_instances = 2600 }
     in
     Plan.expand
       (Result.get_ok (Lepts_workloads.Random_gen.generate config ~power ~rng)))

(* ns/op of the "ACS solve (random n=8, 660 subs)" kernel row as
   recorded in BENCH_solver.json before the structure-exploiting solve
   path landed. [--min-huge-speedup] gates the current solve time
   against this constant: CI machines differ from the recording one, so
   the floor is set conservatively below the locally measured ratio. *)
let seed_acs_n8_ns = 3.37e9

type kernel_row = { row_name : string; ns_per_op : float; minor_words_per_op : float }

(* (name, thunk, allocation repetitions): time comes from a Bechamel
   OLS fit; allocation per op is measured directly as the
   [Gc.minor_words] delta over [reps] calls, which is exact even for
   the sub-microsecond kernels where the OLS allocation estimate is
   too noisy to resolve zero. *)
let solver_kernel_cases () =
  let plan = Lazy.force cnc_plan in
  let _, acs = Lazy.force cnc_schedules in
  let totals = Objective.instance_totals Objective.Average plan in
  let e = acs.Static_schedule.end_times and w_hat = acs.Static_schedule.quotas in
  let ws = Workspace.create plan in
  let m = Plan.size plan in
  let de = Array.make m 0. and dwq = Array.make m 0. in
  let solve_of plan_lazy () =
    ignore (Result.get_ok (Solver.solve_acs ~plan:(Lazy.force plan_lazy) ~power ()))
  in
  [ ( "objective eval, alloc (CNC, 32 subs)",
      (fun () -> ignore (Objective.eval ~plan ~power ~totals ~e ~w_hat)),
      10_000 );
    ( "objective eval, workspace (CNC, 32 subs)",
      (fun () -> ignore (Objective.eval_ws ws ~power ~totals ~e ~w_hat)),
      10_000 );
    ( "adjoint gradient, alloc (CNC, 32 subs)",
      (fun () -> ignore (Objective.eval_with_gradient ~plan ~power ~totals ~e ~w_hat)),
      10_000 );
    ( "adjoint gradient, workspace (CNC, 32 subs)",
      (fun () ->
        ignore (Objective.eval_with_gradient_ws ws ~power ~totals ~e ~w_hat ~de ~dwq)),
      10_000 );
    ( Printf.sprintf "ACS solve (motivation, %d subs)"
        (Plan.size (Lazy.force motivation_plan)),
      solve_of motivation_plan, 20 );
    ("ACS solve (CNC, 32 subs)", solve_of cnc_plan, 2);
    ( Printf.sprintf "ACS solve (random n=8, %d subs)"
        (Plan.size (Lazy.force rand8_plan)),
      solve_of rand8_plan, 1 ) ]

let minor_words_per_op ~reps f =
  f ();
  (* warm-up: fixture laziness, first-call effects *)
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let run_solver_kernel_benchmarks ~quick () =
  ignore (Lazy.force cnc_plan);
  ignore (Lazy.force cnc_schedules);
  ignore (Lazy.force motivation_plan);
  ignore (Lazy.force rand8_plan);
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None ()
    else Benchmark.cfg ~limit:300 ~quota:(Time.second 2.) ~kde:None ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.map
    (fun (name, thunk, reps) ->
      let reps = if quick then max 1 (reps / 10) else reps in
      let test = Test.make ~name (Staged.stage thunk) in
      let results = Benchmark.all cfg instances test in
      let times = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      let ns =
        match Hashtbl.find_opt times name with
        | None -> Float.nan
        | Some ols_result -> (
          match Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> v
          | Some [] | None -> Float.nan)
      in
      { row_name = name; ns_per_op = ns;
        minor_words_per_op = minor_words_per_op ~reps thunk })
    (solver_kernel_cases ())

(* ----- multi-start parallelism ---------------------------------------- *)

(* Three measurements of the same deterministic multi-start solves, all
   asserted bit-identical across configurations:

   - [stream]: many short pool-saturating solves back-to-back at
     jobs = 4 — the serve-wave / campaign shape where the old per-call
     domain spawn/join dominated. [speedup] compares the spawn-per-call
     path ({!Pool.run_ephemeral}) against the persistent pool at the
     SAME job count, so it isolates the fixed bug and is meaningful on
     any machine; [vs_sequential] additionally needs >= jobs cores to
     exceed 1 and is only asserted in CI (multi-core runners).
   - [saturated]: one large CNC solve with the same 10-candidate start
     list. Solve-dominated, so spawn overhead is invisible here — kept
     to show exactly that.
   - [legacy]: the original 3-start CNC case, for continuity with
     older JSON snapshots. *)

let blend a b alpha =
  Array.mapi (fun i x -> (alpha *. x) +. ((1. -. alpha) *. b.(i))) a

(* Ten start candidates for a jobs = 4 pool: greedy + ALAP (implicit)
   plus the plan's WCS and ACS optima and six convex blends of the two.
   Both endpoints are repaired schedules, so every per-instance quota
   sum sits at its WCEC and each blend is a valid warm start. *)
let saturating_warm_starts plan =
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let acs, _ =
    Result.get_ok
      (Solver.solve_acs
         ~warm_starts:[ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
         ~plan ~power ())
  in
  let pair (s : Static_schedule.t) =
    (s.Static_schedule.end_times, s.Static_schedule.quotas)
  in
  pair wcs :: pair acs
  :: List.map
       (fun k ->
         let alpha = float_of_int k /. 7. in
         ( blend wcs.Static_schedule.end_times acs.Static_schedule.end_times alpha,
           blend wcs.Static_schedule.quotas acs.Static_schedule.quotas alpha ))
       [ 1; 2; 3; 4; 5; 6 ]

type par_row = {
  par_plan : string;
  par_jobs : int;
  par_solves : int;
  seq_s : float;
  spawn_s : float;
  pool_s : float;
  par_objective : float;
  par_identical : bool;
}

let par_speedup r = r.spawn_s /. Float.max r.pool_s 1e-9
let par_vs_sequential r = r.seq_s /. Float.max r.pool_s 1e-9

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let best_of reps f =
  let best_t = ref infinity and last = ref None in
  for _ = 1 to reps do
    let t, r = time f in
    if t < !best_t then best_t := t;
    last := Some r
  done;
  (!best_t, Option.get !last)

let schedule_bits (s : Static_schedule.t) =
  ( Array.map Int64.bits_of_float s.Static_schedule.end_times,
    Array.map Int64.bits_of_float s.Static_schedule.quotas )

(* Runs [solves] consecutive multi-start solves in each of three modes —
   sequential, spawn-per-call at [jobs], persistent pool at [jobs] —
   best-of-[reps] each, and checks the final schedules bit-identical. *)
let parallel_measurement ~name ~plan ~solves ~reps () =
  let warm = saturating_warm_starts plan in
  let run jobs =
    let last = ref None in
    for _ = 1 to solves do
      last := Some (Result.get_ok (Solver.solve_acs ~jobs ~warm_starts:warm ~plan ~power ()))
    done;
    Option.get !last
  in
  let seq_s, (seq_schedule, seq_stats) = best_of reps (fun () -> run 1) in
  Pool.set_reuse false;
  let spawn_s, _ =
    Fun.protect ~finally:(fun () -> Pool.set_reuse true)
      (fun () -> best_of reps (fun () -> run 4))
  in
  let pool_s, (pool_schedule, _) = best_of reps (fun () -> run 4) in
  { par_plan = name; par_jobs = 4; par_solves = solves; seq_s; spawn_s; pool_s;
    par_objective = seq_stats.Solver.objective;
    par_identical = schedule_bits seq_schedule = schedule_bits pool_schedule }

let stream_measurement ~quick () =
  let solves = if quick then 30 else 100 in
  let plan = Lazy.force motivation_plan in
  parallel_measurement
    ~name:
      (Printf.sprintf "motivation (%d subs), 10 starts x %d solves"
         (Plan.size plan) solves)
    ~plan ~solves ~reps:(if quick then 2 else 3) ()

let saturated_measurement ~quick () =
  parallel_measurement ~name:"CNC (32 subs), 10 starts"
    ~plan:(Lazy.force cnc_plan) ~solves:1 ~reps:(if quick then 1 else 2) ()

(* The original 3-start measurement (greedy + ALAP + WCS warm start),
   sequential vs persistent pool. *)
let legacy_measurement () =
  let plan = Lazy.force cnc_plan in
  let wcs, _ = Lazy.force cnc_schedules in
  let warm = [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ] in
  let solve jobs =
    time (fun () ->
        Result.get_ok (Solver.solve_acs ~jobs ~warm_starts:warm ~plan ~power ()))
  in
  let t_seq, (seq_schedule, seq_stats) = solve 1 in
  let t_par, (par_schedule, _) = solve 4 in
  ( t_seq, t_par, seq_stats.Solver.objective,
    schedule_bits seq_schedule = schedule_bits par_schedule )

(* ----- warm-start continuation ---------------------------------------- *)

type warm_row = {
  warm_plan : string;
  cold_s : float;
  warm_s : float;
  close_per_point : bool;
      (** every warm point within 5% of its cold counterpart — the same
          bound the test suite pins. Warm's hard guarantee is
          never-worse than its {e seed} (the previous point's solution),
          not than the cold multi-start of the same point, so a warm
          point can lose a basin race cold wins; 5% bounds the loss. *)
  total_never_worse : bool;  (** summed over the sweep, warm <= cold *)
  first_identical : bool;  (** first point is always cold in both *)
}

let warm_speedup r = r.cold_s /. Float.max r.warm_s 1e-9

(* Cold vs warm CNC ratio sweep: point [i] continued from point [i-1]
   via {!Solver.resolve_incremental}. Per-point warm stays within 5% of
   cold, the sweep total must not regress, and the always-cold first
   point must agree bit for bit. *)
let continuation_measurement ~quick () =
  let ratios =
    if quick then [ 0.1; 0.5; 0.9 ]
    else [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]
  in
  let build ~ratio = Lepts_workloads.Cnc.task_set ~power ~ratio () in
  let cold =
    Result.get_ok (Experiments.Continuation.run ~warm:false ~ratios ~build ~power ())
  in
  let warm =
    Result.get_ok (Experiments.Continuation.run ~warm:true ~ratios ~build ~power ())
  in
  let energy (p : Experiments.Continuation.point) =
    p.Experiments.Continuation.predicted_energy
  in
  let total l =
    List.fold_left (fun acc p -> acc +. energy p) 0.
      l.Experiments.Continuation.points
  in
  let first l = energy (List.hd l.Experiments.Continuation.points) in
  { warm_plan =
      Printf.sprintf "CNC ratio sweep, %d points" (List.length ratios);
    cold_s = cold.Experiments.Continuation.total_s;
    warm_s = warm.Experiments.Continuation.total_s;
    close_per_point =
      List.for_all2
        (fun c w -> energy w <= (energy c *. 1.05) +. 1e-9)
        cold.Experiments.Continuation.points warm.Experiments.Continuation.points;
    total_never_worse = total warm <= total cold +. 1e-9;
    first_identical =
      Int64.bits_of_float (first cold) = Int64.bits_of_float (first warm) }

type fig6a_warm = {
  f6_plan : string;
  f6_cold_s : float;
  f6_warm_s : float;
  f6_cold_misses : int;
  f6_warm_misses : int;  (** both must be 0: warm-started schedules
                             still meet every deadline *)
}

(* Cold vs warm reduced Fig-6a sweep: with [--warm-start] each set's ACS
   solve is one continuation descent from its WCS solution instead of
   the full multi-start. Misses must stay zero either way. *)
let fig6a_warm_measurement ~quick () =
  let config =
    { Experiments.Fig6a.paper_config with
      task_counts = (if quick then [ 4 ] else [ 4; 6 ]);
      ratios = [ 0.1 ];
      sets_per_point = (if quick then 2 else 3);
      rounds = (if quick then 30 else 50) }
  in
  let t_cold, cold = time (fun () -> Experiments.Fig6a.run config ~power) in
  let t_warm, warm =
    time (fun () -> Experiments.Fig6a.run ~warm_start:true config ~power)
  in
  let misses points =
    List.fold_left
      (fun acc (p : Experiments.Fig6a.point) ->
        acc + p.Experiments.Fig6a.total_misses)
      0 points
  in
  { f6_plan =
      Printf.sprintf "fig6a reduced sweep (%d points)" (List.length cold);
    f6_cold_s = t_cold; f6_warm_s = t_warm;
    f6_cold_misses = misses cold; f6_warm_misses = misses warm }

(* ----- huge solves ------------------------------------------------------ *)

type huge_row = {
  huge_name : string;
  huge_subs : int;
  huge_solve_s : float;
  huge_objective : float;
}

let huge_speedup_vs_seed r = seed_acs_n8_ns /. Float.max (r.huge_solve_s *. 1e9) 1e-9

(* Full ACS multi-start solves at the two largest plan sizes; the n=8
   time also feeds [--min-huge-speedup]. Bit-identity of these solves
   with the dense reference is a test-suite check (test_structure.ml),
   not a bench one. *)
let huge_measurement ~quick () =
  let reps = if quick then 1 else 2 in
  let measure plan_lazy =
    let plan = Lazy.force plan_lazy in
    let solve_s, (_, stats) =
      best_of reps (fun () -> Result.get_ok (Solver.solve_acs ~plan ~power ()))
    in
    { huge_name = Printf.sprintf "ACS solve (%d subs)" (Plan.size plan);
      huge_subs = Plan.size plan; huge_solve_s = solve_s;
      huge_objective = stats.Solver.objective }
  in
  (measure rand8_plan, measure rand16_plan)

(* ----- adaptive estimator smoke sweep ---------------------------------- *)

type adaptive_row = {
  ad_label : string;
  ad_static_mean : float;
  ad_adaptive_mean : float;
  ad_improvement_pct : float;
  ad_resolves : int;
  ad_drift_events : int;
  ad_identical : bool;  (** -j 1 vs -j 4, summaries and estimates bit for bit *)
}

(* Static-ACS vs adaptive-ACS under a drifting workload (overruns push
   the observed mean above the offline ACEC; the bimodal arm sits far
   below it) — the smoke version of `lepts faults --adaptive`. The
   energy delta is recorded in BENCH_solver.json without a gating floor
   yet; the -j bit-identity, like every other parallel path's, is
   asserted. *)
let adaptive_measurement ~quick () =
  let plan = Lazy.force cnc_plan in
  let schedule, _ = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  let spec =
    { Lepts_robust.Fault_injector.seed = 2005; overrun_prob = 0.1;
      overrun_factor = 1.5; jitter_prob = 0.05; jitter_frac = 0.1;
      denial_prob = 0.05 }
  in
  let rounds = if quick then 120 else 300 in
  let config =
    { Lepts_robust.Adaptive.estimator = Lepts_sim.Estimator.default_config;
      resolve_every = 10 }
  in
  let sweep jobs =
    Lepts_robust.Adaptive.sweep ~rounds ~jobs ~config ~spec ~schedule
      ~policy:Lepts_dvs.Policy.Greedy ~seed:2007 ()
  in
  let summary_bits (s : Lepts_sim.Runner.summary) =
    List.map Int64.bits_of_float
      [ s.Lepts_sim.Runner.mean_energy; s.Lepts_sim.Runner.p95_energy;
        s.Lepts_sim.Runner.p99_energy; s.Lepts_sim.Runner.max_energy ]
  in
  List.map2
    (fun (p : Lepts_robust.Adaptive.point) (q : Lepts_robust.Adaptive.point) ->
      { ad_label = p.Lepts_robust.Adaptive.label;
        ad_static_mean =
          p.Lepts_robust.Adaptive.static_summary.Lepts_sim.Runner.mean_energy;
        ad_adaptive_mean =
          p.Lepts_robust.Adaptive.adaptive_summary.Lepts_sim.Runner.mean_energy;
        ad_improvement_pct = p.Lepts_robust.Adaptive.improvement_pct;
        ad_resolves =
          p.Lepts_robust.Adaptive.counters.Lepts_robust.Adaptive.resolves;
        ad_drift_events =
          p.Lepts_robust.Adaptive.counters.Lepts_robust.Adaptive.drift_events;
        ad_identical =
          summary_bits p.Lepts_robust.Adaptive.static_summary
            = summary_bits q.Lepts_robust.Adaptive.static_summary
          && summary_bits p.Lepts_robust.Adaptive.adaptive_summary
             = summary_bits q.Lepts_robust.Adaptive.adaptive_summary
          && Array.map Int64.bits_of_float p.Lepts_robust.Adaptive.estimates
             = Array.map Int64.bits_of_float q.Lepts_robust.Adaptive.estimates
          && p.Lepts_robust.Adaptive.counters = q.Lepts_robust.Adaptive.counters })
    (sweep 1) (sweep 4)

type serve_row = {
  sv_requests : int;  (** NDJSON lines per run *)
  sv_cold_s : float;  (** best-of wall clock, fresh cache *)
  sv_warm_s : float;  (** best-of wall clock, cache warmed by one run *)
  sv_coalesced : int;  (** duplicates served by an in-flight solve (cold) *)
  sv_identical : bool;  (** -j 1 vs -j 4 cold reports, byte for byte *)
}

let serve_cold_rps r = float_of_int r.sv_requests /. Float.max r.sv_cold_s 1e-9
let serve_warm_rps r = float_of_int r.sv_requests /. Float.max r.sv_warm_s 1e-9

(* Serve-engine throughput: one fixed NDJSON batch through the full
   admission → route → coalesce → solve → fold pipeline, cold
   (fresh cache each rep) and warm (cache populated by one priming
   run, so every request replays a stored schedule). The batch mixes
   duplicate content (coalescing), a ratio ladder on a shared family
   (warm chaining) and distinct seeds (real solves). [warm_rps] is the
   daemon's steady-state ceiling and carries the CI floor; the cold
   -j 1 and -j 4 reports are byte-diffed — the determinism contract
   the socket-soak job relies on. *)
let serve_measurement ~quick () =
  let module Service = Lepts_serve.Service in
  let module Cache = Lepts_serve.Cache in
  let n = if quick then 24 else 96 in
  (* Each wave of 8 carries one 3-request ratio ladder on a shared
     family (chained, each solve warm-starting the next), one
     content-identical pair (coalesced onto a single solve) and three
     solo solves; seeds shift per wave so the cold run keeps solving
     past the first wave. *)
  let lines =
    List.init n (fun i ->
        let wave_i = i / 8 and k = i mod 8 in
        let tasks, seed, ratio =
          if k < 3 then (3, 11 + wave_i, [| 0.1; 0.3; 0.5 |].(k))
          else if k < 5 then (2, 41 + wave_i, 0.2)
          else (2, (100 * (k - 4)) + wave_i, 0.4)
        in
        Printf.sprintf
          {|{"id":"bench-%d","tasks":%d,"ratio":%g,"seed":%d,"rounds":0}|}
          i tasks ratio seed)
  in
  let fresh () = Cache.create ~fingerprint:"bench" () in
  let run ~jobs ~cache () =
    let config =
      { Service.default_config with Service.jobs; wave = 8; high_water = n }
    in
    Service.run ~config ~power ~cache ~lines ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let reps = if quick then 2 else 4 in
  let cold_s = ref infinity in
  let cold_report = ref None in
  for _ = 1 to reps do
    let dt, r = time (fun () -> run ~jobs:4 ~cache:(fresh ()) ()) in
    if dt < !cold_s then cold_s := dt;
    cold_report := Some r
  done;
  let warm_cache = fresh () in
  ignore (run ~jobs:4 ~cache:warm_cache ());
  let warm_s = ref infinity in
  for _ = 1 to reps do
    let dt, _ = time (fun () -> run ~jobs:4 ~cache:warm_cache ()) in
    if dt < !warm_s then warm_s := dt
  done;
  let render report =
    let path = Filename.temp_file "lepts-bench-serve" ".ndjson" in
    let oc = open_out path in
    Service.print_report ~oc report;
    close_out oc;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let r1 = run ~jobs:1 ~cache:(fresh ()) () in
  let r4 = run ~jobs:4 ~cache:(fresh ()) () in
  { sv_requests = n; sv_cold_s = !cold_s; sv_warm_s = !warm_s;
    sv_coalesced =
      (match !cold_report with
      | Some r -> r.Service.coalesced
      | None -> 0);
    sv_identical = render r1 = render r4 }

(* Telemetry overhead: the same deterministic ACS solve with and
   without a convergence sink, best-of-[reps] wall clock each way. The
   per-iteration cost is the wall-clock delta divided by the number of
   records actually pushed (every inner iteration of every start), and
   the two solves are compared bit-for-bit — the capture must be free
   of observable effect, and CI additionally bounds its cost via
   [--max-telemetry-overhead-ns]. *)
let telemetry_overhead_measurement ~quick () =
  let plan = Lazy.force cnc_plan in
  let reps = if quick then 3 else 8 in
  let time ~mk =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let telemetry = mk () in
      let t0 = Unix.gettimeofday () in
      let r = Result.get_ok (Solver.solve_acs ?telemetry ~plan ~power ()) in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some (r, telemetry)
    done;
    (!best, Option.get !result)
  in
  let off_s, ((off_sched, off_stats), _) = time ~mk:(fun () -> None) in
  let on_s, ((on_sched, on_stats), sink) =
    time ~mk:(fun () ->
        (* Default ring capacity: [pushed] counts every record whether
           or not the ring wrapped, so the denominator stays exact. *)
        Some (Lepts_obs.Telemetry.solve_sink ~label:"bench" ()))
  in
  let bits = Array.map Int64.bits_of_float in
  let bit_identical =
    Int64.bits_of_float off_stats.Solver.objective
    = Int64.bits_of_float on_stats.Solver.objective
    && bits off_sched.Static_schedule.end_times
       = bits on_sched.Static_schedule.end_times
    && bits off_sched.Static_schedule.quotas = bits on_sched.Static_schedule.quotas
  in
  let records =
    match sink with
    | None -> 0
    | Some s ->
      Array.fold_left
        (fun acc (st : Lepts_obs.Telemetry.start) ->
          acc + Lepts_obs.Telemetry.pushed st.Lepts_obs.Telemetry.s_ring)
        0 s.Lepts_obs.Telemetry.starts
  in
  let overhead_ns =
    (on_s -. off_s) *. 1e9 /. float_of_int (max 1 records)
  in
  (off_s, on_s, records, overhead_ns, bit_identical)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.3f" x else "null"

let emit_par_row oc key r =
  let out fmt = Printf.fprintf oc fmt in
  out "  \"%s\": {\n" key;
  out "    \"plan\": \"%s\",\n" (json_escape r.par_plan);
  out "    \"jobs\": %d,\n" r.par_jobs;
  out "    \"solves\": %d,\n" r.par_solves;
  out "    \"seq_s\": %s,\n" (json_float r.seq_s);
  out "    \"spawn_s\": %s,\n" (json_float r.spawn_s);
  out "    \"pool_s\": %s,\n" (json_float r.pool_s);
  out "    \"speedup\": %s,\n" (json_float (par_speedup r));
  out "    \"vs_sequential\": %s,\n" (json_float (par_vs_sequential r));
  out "    \"objective\": %s,\n" (json_float r.par_objective);
  out "    \"bit_identical\": %b\n" r.par_identical;
  out "  },\n"

let emit_huge_row oc ~last r =
  let out fmt = Printf.fprintf oc fmt in
  out "    {\"plan\": \"%s\", \"subs\": %d, \"solve_s\": %s, "
    (json_escape r.huge_name) r.huge_subs (json_float r.huge_solve_s);
  out "\"speedup_vs_seed\": %s, \"objective\": %s}%s\n"
    (json_float (huge_speedup_vs_seed r)) (json_float r.huge_objective)
    (if last then "" else ",")

let emit_solver_json ~path ~quick rows ~stream ~saturated
    ~legacy:(t_seq, t_par, objective, identical) ~continuation ~fig6a
    ~huge:(huge_n8, huge_n16) ~adaptive ~serve
    (tel_off_s, tel_on_s, tel_records, tel_overhead_ns, tel_identical) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"lepts-bench-solver/6\",\n";
  out "  \"quick\": %b,\n" quick;
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      out "    {\"name\": \"%s\", \"ns_per_op\": %s, \"minor_words_per_op\": %s}%s\n"
        (json_escape r.row_name) (json_float r.ns_per_op)
        (json_float r.minor_words_per_op)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  (* [speedup] is spawn-per-call vs persistent pool at the same job
     count (the bug this JSON tracks — machine-independent);
     [vs_sequential] needs >= jobs cores to exceed 1. *)
  emit_par_row oc "parallel_solve" stream;
  emit_par_row oc "parallel_solve_saturated" saturated;
  out "  \"parallel_solve_legacy\": {\n";
  out "    \"plan\": \"CNC (32 subs), 3 starts\",\n";
  out "    \"jobs\": 4,\n";
  out "    \"seq_s\": %s,\n" (json_float t_seq);
  out "    \"par_s\": %s,\n" (json_float t_par);
  out "    \"speedup\": %s,\n" (json_float (t_seq /. Float.max t_par 1e-9));
  out "    \"objective\": %s,\n" (json_float objective);
  out "    \"bit_identical\": %b\n" identical;
  out "  },\n";
  out "  \"warm_start\": {\n";
  out "    \"continuation\": {\n";
  out "      \"plan\": \"%s\",\n" (json_escape continuation.warm_plan);
  out "      \"cold_s\": %s,\n" (json_float continuation.cold_s);
  out "      \"warm_s\": %s,\n" (json_float continuation.warm_s);
  out "      \"speedup\": %s,\n" (json_float (warm_speedup continuation));
  out "      \"close_per_point\": %b,\n" continuation.close_per_point;
  out "      \"total_never_worse\": %b,\n" continuation.total_never_worse;
  out "      \"first_point_bit_identical\": %b\n" continuation.first_identical;
  out "    },\n";
  out "    \"fig6a\": {\n";
  out "      \"plan\": \"%s\",\n" (json_escape fig6a.f6_plan);
  out "      \"cold_s\": %s,\n" (json_float fig6a.f6_cold_s);
  out "      \"warm_s\": %s,\n" (json_float fig6a.f6_warm_s);
  out "      \"speedup\": %s,\n"
    (json_float (fig6a.f6_cold_s /. Float.max fig6a.f6_warm_s 1e-9));
  out "      \"cold_misses\": %d,\n" fig6a.f6_cold_misses;
  out "      \"warm_misses\": %d\n" fig6a.f6_warm_misses;
  out "    }\n";
  out "  },\n";
  (* [speedup_vs_seed] divides the recorded pre-PR-8 n=8 solve time by
     the measured solve wall clock, so it understates the true gain
     on machines slower than the recording one. *)
  out "  \"huge_solve\": {\n";
  out "    \"seed_acs_n8_ns\": %s,\n" (json_float seed_acs_n8_ns);
  out "    \"cases\": [\n";
  emit_huge_row oc ~last:false huge_n8;
  emit_huge_row oc ~last:true huge_n16;
  out "    ]\n";
  out "  },\n";
  (* Energy delta recorded, not gated: improvement depends on how far
     the drifting workload sits from the offline ACEC, so no floor yet.
     [bit_identical] compares the -j 1 and -j 4 sweeps and IS gated. *)
  out "  \"adaptive\": {\n";
  out "    \"plan\": \"CNC (32 subs), static vs adaptive ACS\",\n";
  out "    \"arms\": [\n";
  List.iteri
    (fun i r ->
      out "      {\"label\": \"%s\", \"static_mean_energy\": %s, "
        (json_escape r.ad_label) (json_float r.ad_static_mean);
      out "\"adaptive_mean_energy\": %s, \"improvement_pct\": %s, "
        (json_float r.ad_adaptive_mean) (json_float r.ad_improvement_pct);
      out "\"resolves\": %d, \"drift_events\": %d, \"bit_identical\": %b}%s\n"
        r.ad_resolves r.ad_drift_events r.ad_identical
        (if i = List.length adaptive - 1 then "" else ","))
    adaptive;
  out "    ]\n";
  out "  },\n";
  (* [warm_rps] is the steady-state daemon ceiling (every request a
     cache hit) and carries the [--min-serve-throughput] floor;
     [bit_identical] byte-diffs the cold -j 1 and -j 4 reports. *)
  out "  \"serve_throughput\": {\n";
  out "    \"plan\": \"%d NDJSON requests (tasks 2-3), -j 4, waves of 8\",\n"
    serve.sv_requests;
  out "    \"requests\": %d,\n" serve.sv_requests;
  out "    \"cold_s\": %s,\n" (json_float serve.sv_cold_s);
  out "    \"warm_s\": %s,\n" (json_float serve.sv_warm_s);
  out "    \"cold_rps\": %s,\n" (json_float (serve_cold_rps serve));
  out "    \"warm_rps\": %s,\n" (json_float (serve_warm_rps serve));
  out "    \"coalesced\": %d,\n" serve.sv_coalesced;
  out "    \"bit_identical\": %b\n" serve.sv_identical;
  out "  },\n";
  out "  \"telemetry\": {\n";
  out "    \"plan\": \"CNC (32 subs), ACS solve\",\n";
  out "    \"off_s\": %s,\n" (json_float tel_off_s);
  out "    \"on_s\": %s,\n" (json_float tel_on_s);
  out "    \"records\": %d,\n" tel_records;
  out "    \"overhead_ns_per_inner_iteration\": %s,\n" (json_float tel_overhead_ns);
  out "    \"bit_identical\": %b\n" tel_identical;
  out "  }\n";
  out "}\n";
  close_out oc

let print_solver_kernel_rows rows =
  section "Solver kernels (time and minor allocation per run)";
  List.iter
    (fun r ->
      Printf.printf "  %-44s %12.1f ns/run %12.1f minor words/run\n%!" r.row_name
        r.ns_per_op r.minor_words_per_op)
    rows

let print_par_row label r =
  Printf.printf
    "  %s: seq %.3fs, spawn -j %d %.3fs, pool -j %d %.3fs — spawn/pool %.2fx, \
     seq/pool %.2fx, identical: %b\n%!"
    label r.seq_s r.par_jobs r.spawn_s r.par_jobs r.pool_s (par_speedup r)
    (par_vs_sequential r) r.par_identical

let print_huge_row r =
  Printf.printf "  huge %s: %.3fs — %.1fx vs recorded seed\n%!" r.huge_name
    r.huge_solve_s (huge_speedup_vs_seed r)

let run_solver_json ~path ~quick ~max_telemetry_overhead_ns ~min_parallel_speedup
    ~min_vs_sequential ~min_warm_speedup ~min_huge_speedup
    ~min_serve_throughput () =
  let rows = run_solver_kernel_benchmarks ~quick () in
  print_solver_kernel_rows rows;
  let stream = stream_measurement ~quick () in
  print_par_row stream.par_plan stream;
  let saturated = saturated_measurement ~quick () in
  print_par_row saturated.par_plan saturated;
  let legacy = legacy_measurement () in
  let t_seq, t_par, _, legacy_identical = legacy in
  Printf.printf
    "  CNC 3 starts (legacy): -j 1 %.2fs, -j 4 %.2fs (%.2fx), identical: %b\n%!"
    t_seq t_par (t_seq /. Float.max t_par 1e-9) legacy_identical;
  let continuation = continuation_measurement ~quick () in
  Printf.printf
    "  warm continuation (%s): cold %.2fs, warm %.2fs (%.2fx), close per point: \
     %b, total never worse: %b\n%!"
    continuation.warm_plan continuation.cold_s continuation.warm_s
    (warm_speedup continuation) continuation.close_per_point
    continuation.total_never_worse;
  let fig6a = fig6a_warm_measurement ~quick () in
  Printf.printf
    "  warm fig6a (%s): cold %.2fs, warm %.2fs (%.2fx), misses %d/%d\n%!"
    fig6a.f6_plan fig6a.f6_cold_s fig6a.f6_warm_s
    (fig6a.f6_cold_s /. Float.max fig6a.f6_warm_s 1e-9)
    fig6a.f6_cold_misses fig6a.f6_warm_misses;
  let ((huge_n8, huge_n16) as huge) = huge_measurement ~quick () in
  print_huge_row huge_n8;
  print_huge_row huge_n16;
  let adaptive = adaptive_measurement ~quick () in
  List.iter
    (fun r ->
      Printf.printf
        "  adaptive %s: static %.4f, adaptive %.4f (%+.1f%%), %d resolves, \
         %d drift events, identical: %b\n%!"
        r.ad_label r.ad_static_mean r.ad_adaptive_mean r.ad_improvement_pct
        r.ad_resolves r.ad_drift_events r.ad_identical)
    adaptive;
  let serve = serve_measurement ~quick () in
  Printf.printf
    "  serve: %d requests — cold %.3fs (%.1f req/s), warm %.3fs (%.1f req/s), \
     coalesced %d, identical: %b\n%!"
    serve.sv_requests serve.sv_cold_s (serve_cold_rps serve) serve.sv_warm_s
    (serve_warm_rps serve) serve.sv_coalesced serve.sv_identical;
  let tel = telemetry_overhead_measurement ~quick () in
  let tel_off, tel_on, tel_records, tel_overhead, tel_identical = tel in
  Printf.printf
    "  telemetry: off %.3fs, on %.3fs — %.1f ns per inner iteration (%d records), \
     identical: %b\n%!"
    tel_off tel_on tel_overhead tel_records tel_identical;
  emit_solver_json ~path ~quick rows ~stream ~saturated ~legacy ~continuation
    ~fig6a ~huge ~adaptive ~serve tel;
  Printf.printf "wrote %s\n%!" path;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if not tel_identical then
    fail "solver results differ with telemetry enabled";
  if not (stream.par_identical && saturated.par_identical && legacy_identical)
  then fail "parallel multi-start results are not bit-identical";
  if not (List.for_all (fun r -> r.ad_identical) adaptive) then
    fail "adaptive estimator sweep differs between -j 1 and -j 4";
  if not continuation.close_per_point then
    fail "a warm continuation point ended >5%% worse than its cold counterpart";
  if not continuation.total_never_worse then
    fail "the warm continuation sweep's total energy regressed vs cold";
  if not continuation.first_identical then
    fail "cold-vs-warm continuation sweeps differ on the always-cold first point";
  if fig6a.f6_cold_misses <> 0 || fig6a.f6_warm_misses <> 0 then
    fail "fig6a sweep produced deadline misses (%d cold, %d warm)"
      fig6a.f6_cold_misses fig6a.f6_warm_misses;
  (match max_telemetry_overhead_ns with
  | Some budget when tel_overhead > budget ->
    fail "telemetry overhead %.1f ns/inner-iteration exceeds the %.1f ns budget"
      tel_overhead budget
  | _ -> ());
  (match min_parallel_speedup with
  | Some floor when par_speedup stream < floor ->
    fail "spawn-vs-pool speedup %.2fx below the %.2fx floor"
      (par_speedup stream) floor
  | _ -> ());
  (* Asserted on the saturated CNC solve (solve-dominated, so the
     number reflects actual parallel descent work, not dispatch). *)
  (match min_vs_sequential with
  | Some floor when par_vs_sequential saturated < floor ->
    fail "pool-vs-sequential speedup %.2fx below the %.2fx floor (%d cores)"
      (par_vs_sequential saturated) floor
      (Domain.recommended_domain_count ())
  | _ -> ());
  (match min_warm_speedup with
  | Some floor when warm_speedup continuation < floor ->
    fail "warm continuation speedup %.2fx below the %.2fx floor"
      (warm_speedup continuation) floor
  | _ -> ());
  (match min_huge_speedup with
  | Some floor when huge_speedup_vs_seed huge_n8 < floor ->
    fail "huge-solve speedup %.2fx vs the recorded seed below the %.2fx floor"
      (huge_speedup_vs_seed huge_n8) floor
  | _ -> ());
  if not serve.sv_identical then
    fail "serve reports differ between -j 1 and -j 4";
  (* Gated on the warm (all-cache-hit) rate: it measures the serve
     engine itself — admission, routing, cache replay, folding — not
     NLP solve time, so it is comparatively machine-stable. *)
  (match min_serve_throughput with
  | Some floor when serve_warm_rps serve < floor ->
    fail "warm serve throughput %.1f req/s below the %.1f req/s floor"
      (serve_warm_rps serve) floor
  | _ -> ());
  if !failures <> [] then begin
    List.iter (fun s -> Printf.eprintf "FAIL: %s\n%!" s) (List.rev !failures);
    exit 1
  end

let () =
  (* `--json PATH [--quick] [--max-telemetry-overhead-ns N]
     [--min-parallel-speedup X] [--min-vs-sequential X]
     [--min-warm-speedup X] [--min-huge-speedup X]
     [--min-serve-throughput X]` runs only the
     solver-kernel group and writes the machine-readable summary (the
     CI smoke step), failing when a floor is violated; no arguments
     runs the full reproduction + benchmark pipeline.
     [--min-vs-sequential] should only be set on machines with >= 4
     cores — spawn-vs-pool, the warm floor and the huge-solve floor are
     meaningful anywhere ([--min-huge-speedup] compares against the
     recorded pre-PR-8 seed time, so set it well below the expected
     gain to absorb machine differences). *)
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let rec find_opt_value flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> find_opt_value flag rest
    | [] -> None
  in
  let float_flag flag = Option.map float_of_string (find_opt_value flag args) in
  let json_path args = find_opt_value "--json" args in
  let max_telemetry_overhead_ns = float_flag "--max-telemetry-overhead-ns" in
  match json_path args with
  | Some path ->
    run_solver_json ~path ~quick ~max_telemetry_overhead_ns
      ~min_parallel_speedup:(float_flag "--min-parallel-speedup")
      ~min_vs_sequential:(float_flag "--min-vs-sequential")
      ~min_warm_speedup:(float_flag "--min-warm-speedup")
      ~min_huge_speedup:(float_flag "--min-huge-speedup")
      ~min_serve_throughput:(float_flag "--min-serve-throughput") ()
  | None ->
    regenerate_motivation ();
    regenerate_fig6a ();
    regenerate_fig6b ();
    regenerate_policy_ablation ();
    regenerate_design_ablations ();
    parallel_speedup ();
    run_benchmarks ();
    print_solver_kernel_rows (run_solver_kernel_benchmarks ~quick:false ());
    print_endline "\nbench: done"
