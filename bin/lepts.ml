(* Command-line interface for the lepts library: reproduce the paper's
   experiments, inspect schedules, and run one-off task sets. *)

module Model = Lepts_power.Model
module Plan = Lepts_preempt.Plan
module Task_set = Lepts_task.Task_set
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Objective = Lepts_core.Objective
module Validate = Lepts_core.Validate
module Experiments = Lepts_experiments

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Enable debug logging.")

(* [checked base ~expect ok] parses like [base] and refuses a value that
   fails [ok]. cmdliner reports the refusal as a usage error naming the
   flag (exit 124) before the command prints or computes anything; the
   library's own [Invalid_argument] checks stay for library callers.
   Every float predicate below is written so that NaN fails it. *)
let checked base ~expect ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expect))
    | Error _ as err -> err
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive = checked Arg.int ~expect:"an integer >= 1" (fun n -> n >= 1)

let non_negative = checked Arg.int ~expect:"an integer >= 0" (fun n -> n >= 0)

(* Probabilities and BCEC/WCEC ratios. *)
let unit_interval =
  checked Arg.float ~expect:"a number in [0, 1]" (fun x -> x >= 0. && x <= 1.)

(* The supply range, checked as a pair: [Model.ideal] needs
   0 < v_min <= v_max. *)
let power_arg =
  let v_min =
    Arg.(value & opt float 0.5 & info [ "v-min" ] ~docv:"VOLTS" ~doc:"Minimum supply voltage.")
  and v_max =
    Arg.(value & opt float 4.0 & info [ "v-max" ] ~docv:"VOLTS" ~doc:"Maximum supply voltage.")
  in
  let power v_min v_max =
    if 0. < v_min && v_min <= v_max && v_max < infinity then
      Ok (Model.ideal ~v_min ~v_max ())
    else
      Error
        (Printf.sprintf "options '--v-min' %g and '--v-max' %g: need 0 < v-min <= v-max"
           v_min v_max)
  in
  Term.(cli_parse_result' (const power $ v_min $ v_max))

let rounds_arg default =
  Arg.(value & opt positive default
       & info [ "rounds" ] ~docv:"N" ~doc:"Hyper-periods simulated per schedule.")

let seed_arg =
  Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_arg =
  Arg.(value & opt non_negative 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains (results are bit-identical for every value; \
                 0 = one per core). Each command hands them to its coarsest \
                 independent work — the task sets of a Fig 6(a) point, the \
                 requests of a serve wave, or else the NLP multi-start solves \
                 and the Monte-Carlo rounds — and work nested inside a worker \
                 runs sequentially.")

let resolve_jobs jobs = if jobs = 0 then Lepts_par.Pool.default_jobs () else jobs

let progress line =
  print_endline line;
  flush stdout

(* Timing varies run to run, so throughput reporting goes to stderr:
   stdout stays byte-identical across reruns and across -j values. *)
let print_stats ~label stats =
  Format.eprintf "  [%s] %a@." label Lepts_par.Pool.pp_stats stats

(* --- checkpoint / resume ------------------------------------------------ *)

module Checkpoint = Lepts_robust.Checkpoint
module Drain = Lepts_serve.Drain

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Save completed work units here as the run progresses \
                 (atomic write-rename). If FILE already holds a \
                 checkpoint of the same run, its units are reused. \
                 SIGTERM/SIGINT drain gracefully: save, then exit 3.")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume from the checkpoint in FILE (error if absent or \
                 written by a run with different parameters) and keep \
                 checkpointing to it. The completed run's output is \
                 bit-identical to an uninterrupted one's.")

(* Run a checkpointable command body: open the session its
   [--checkpoint]/[--resume] flags ask for, arm the drain flag when
   checkpointing, and map a graceful drain to exit 3. The fingerprint
   pins every result-affecting parameter, so [--resume] with different
   flags is refused instead of splicing incompatible result streams. The
   body receives the optional session and a [should_stop] poll. *)
let with_session ~checkpoint ~resume ~fingerprint body =
  let session =
    match (checkpoint, resume) with
    | None, None -> Ok None
    | Some _, Some _ ->
      Error "--checkpoint and --resume are mutually exclusive (--resume \
             alone both loads and keeps saving)"
    | Some path, None | None, Some path ->
      Result.map (fun s -> Some (s, path))
        (Checkpoint.start ~path ~resume:(resume <> None) ~fingerprint)
  in
  match session with
  | Error msg ->
    Printf.eprintf "checkpoint: %s\n%!" msg;
    2
  | Ok None -> (
    try body None (fun () -> false)
    with Checkpoint.Drained -> 3)
  | Ok (Some (session, path)) -> (
    Drain.install ();
    try body (Some session) Drain.requested
    with Checkpoint.Drained ->
      Printf.eprintf
        "drained: checkpoint saved to %s; continue with --resume %s\n%!" path
        path;
      3)

(* --- observability ------------------------------------------------------ *)

let telemetry_arg =
  Arg.(value & opt (some string) None
       & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Write a machine-readable run report here: convergence \
                 traces of every captured NLP solve, profiling spans and \
                 the metrics snapshot. Format by suffix: .csv = \
                 convergence rows, .prom/.txt = Prometheus text, \
                 anything else = JSON. Capture is observational — \
                 results are bit-identical with or without it.")

(* Wraps a command body with the observability lifecycle: enable spans,
   reset the default registry so the report covers exactly this run,
   hand the body a telemetry collector, then write the report and/or
   print the span profile. Everything lands on stderr or in FILE —
   stdout stays byte-identical with an unobserved run (CI diffs stdout
   across -j values). When neither profiling nor capture is requested
   this is a pass-through. *)
let with_observability ~command ~profile ~telemetry_file body =
  if (not profile) && telemetry_file = None then body None
  else begin
    Lepts_obs.Span.set_enabled true;
    Lepts_obs.Span.reset ();
    Lepts_obs.Metrics.reset Lepts_obs.Metrics.default;
    let collector = Lepts_obs.Telemetry.collector () in
    let t0 = Unix.gettimeofday () in
    let code = body (Some collector) in
    let elapsed = Unix.gettimeofday () -. t0 in
    let report =
      Lepts_obs.Export.report ~command ~argv:(Array.to_list Sys.argv)
        ~elapsed_s:elapsed ~metrics:Lepts_obs.Metrics.default
        ~telemetry:collector ()
    in
    Option.iter
      (fun path ->
        let data =
          if Filename.check_suffix path ".csv" then
            Lepts_obs.Export.convergence_csv report
          else if
            Filename.check_suffix path ".prom"
            || Filename.check_suffix path ".txt"
          then Lepts_obs.Export.to_prometheus report
          else Lepts_obs.Export.to_json report
        in
        let oc = open_out path in
        output_string oc data;
        close_out oc;
        let dropped = report.Lepts_obs.Export.dropped_solves in
        Printf.eprintf "telemetry: wrote %s (%d solves captured%s)\n%!" path
          (List.length report.Lepts_obs.Export.solves)
          (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else ""))
      telemetry_file;
    if profile then begin
      Printf.eprintf "\nprofile: %s (%.2fs wall)\n%!" command elapsed;
      Format.eprintf "%a%!" Lepts_obs.Span.pp_report
        report.Lepts_obs.Export.spans
    end;
    code
  end

(* --- motivation -------------------------------------------------------- *)

let motivation_cmd ~profile =
  let run verbose =
    setup_logs verbose;
    with_observability ~command:"motivation" ~profile ~telemetry_file:None
    @@ fun _telemetry ->
    match Experiments.Motivation.run () with
    | Error e -> Format.printf "error: %a@." Solver.pp_error e; 1
    | Ok report ->
      print_endline "Motivational example (paper Table 1, Figs 1-2):";
      Lepts_util.Table.print (Experiments.Motivation.to_table report);
      0
  in
  Cmd.v
    (Cmd.info "motivation" ~doc:"Reproduce the paper's motivational example (Table 1, Figs 1-2).")
    Term.(const run $ verbose_arg)

(* --- fig6a ------------------------------------------------------------- *)

let fig6a_cmd ~profile =
  let run verbose sets rounds seed jobs power checkpoint resume telemetry_file =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    let config =
      { Experiments.Fig6a.paper_config with sets_per_point = sets; rounds; seed }
    in
    (* The layout part names how entries are keyed (one "set" section,
       keyed by the cell's index in the largest-first batch), so a file
       keyed another way is refused rather than silently recomputed. *)
    let fingerprint =
      Checkpoint.fingerprint
        ~parts:
          [ "fig6a"; "layout:cells-largest-first"; string_of_int sets;
            string_of_int rounds; string_of_int seed;
            string_of_float power.Model.v_min; string_of_float power.Model.v_max ]
    in
    with_observability ~command:"fig6a" ~profile ~telemetry_file
    @@ fun telemetry ->
    with_session ~checkpoint ~resume ~fingerprint
    @@ fun session should_stop ->
    let t0 = Unix.gettimeofday () in
    let points =
      Experiments.Fig6a.run ~progress ~jobs ?telemetry ?checkpoint:session
        ~should_stop config ~power
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    print_endline "Fig 6(a): ACS improvement over WCS, random task sets:";
    Lepts_util.Table.print (Experiments.Fig6a.to_table points);
    let total_sets = List.length points * sets in
    Printf.eprintf
      "throughput: %d points (%d sets, %d rounds each) in %.1fs — %.2f sets/s at -j %d\n%!"
      (List.length points) total_sets rounds elapsed
      (float_of_int total_sets /. Float.max elapsed 1e-9)
      jobs;
    0
  in
  let sets =
    Arg.(value & opt positive 10
         & info [ "sets" ] ~docv:"N" ~doc:"Random task sets per (tasks, ratio) point (paper: 100).")
  in
  Cmd.v
    (Cmd.info "fig6a" ~doc:"Reproduce Fig 6(a): improvement vs task count and BCEC/WCEC ratio.")
    Term.(const run $ verbose_arg $ sets $ rounds_arg 1000 $ seed_arg $ jobs_arg
          $ power_arg $ checkpoint_arg $ resume_arg $ telemetry_arg)

(* --- fig6b ------------------------------------------------------------- *)

let fig6b_cmd ~profile =
  let run verbose rounds seed jobs power no_gap checkpoint resume telemetry_file =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    let config =
      { Experiments.Fig6b.paper_config with rounds; seed; include_gap = not no_gap }
    in
    let fingerprint =
      Checkpoint.fingerprint
        ~parts:
          [ "fig6b"; string_of_int rounds; string_of_int seed;
            string_of_bool (not no_gap); string_of_float power.Model.v_min;
            string_of_float power.Model.v_max ]
    in
    with_observability ~command:"fig6b" ~profile ~telemetry_file
    @@ fun telemetry ->
    with_session ~checkpoint ~resume ~fingerprint
    @@ fun session should_stop ->
    let points =
      Experiments.Fig6b.run ~progress ~jobs ?telemetry ?checkpoint:session
        ~should_stop config ~power
    in
    print_endline "Fig 6(b): ACS improvement over WCS, real-life applications:";
    Lepts_util.Table.print (Experiments.Fig6b.to_table points);
    0
  in
  let no_gap =
    Arg.(value & flag & info [ "no-gap" ] ~doc:"Skip the (slow) GAP avionics task set.")
  in
  Cmd.v
    (Cmd.info "fig6b" ~doc:"Reproduce Fig 6(b): improvement on the CNC and GAP task sets.")
    Term.(const run $ verbose_arg $ rounds_arg 1000 $ seed_arg $ jobs_arg
          $ power_arg $ no_gap $ checkpoint_arg $ resume_arg $ telemetry_arg)

(* --- schedule ---------------------------------------------------------- *)

let schedule_cmd ~profile =
  let run verbose power =
    setup_logs verbose;
    with_observability ~command:"schedule" ~profile ~telemetry_file:None
    @@ fun _telemetry ->
    let ts = Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 () in
    let plan = Plan.expand ts in
    Format.printf "CNC fully preemptive plan:@.%a@." Plan.pp_timeline plan;
    (match Solver.solve_acs ~plan ~power () with
    | Error e -> Format.printf "error: %a@." Solver.pp_error e
    | Ok (schedule, stats) ->
      Format.printf "%a@." Static_schedule.pp schedule;
      Format.printf "predicted avg energy: %g, worst: %g, feasible: %b@."
        (Static_schedule.predicted_energy schedule ~mode:Objective.Average)
        (Static_schedule.predicted_energy schedule ~mode:Objective.Worst)
        (Validate.is_feasible schedule);
      Format.printf "solver: %d outer, %d inner iterations@."
        stats.Solver.outer_iterations stats.Solver.inner_iterations);
    0
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Expand and solve the CNC task set; print the plan and the ACS schedule.")
    Term.(const run $ verbose_arg $ power_arg)

(* --- random ------------------------------------------------------------ *)

let random_cmd ~profile =
  let run verbose n ratio rounds seed jobs power telemetry_file =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    let rng = Lepts_prng.Xoshiro256.create ~seed in
    let config = Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio in
    with_observability ~command:"random" ~profile ~telemetry_file
    @@ fun telemetry ->
    (* No timing in this output on purpose: CI diffs [-j 1] against
       [-j 4] to enforce the bit-identity guarantee. *)
    (match Lepts_workloads.Random_gen.generate config ~power ~rng with
    | Error msg -> Format.printf "generation failed: %s@." msg; ()
    | Ok ts -> (
      Format.printf "task set: %a@." Task_set.pp ts;
      match
        Experiments.Improvement.measure ~rounds ~jobs ?telemetry
          ~telemetry_tag:"random" ~task_set:ts ~power ~sim_seed:(seed + 1) ()
      with
      | Error e -> Format.printf "error: %a@." Solver.pp_error e
      | Ok r -> Format.printf "%a@." Experiments.Improvement.pp r));
    0
  in
  let n =
    Arg.(value & opt positive 5 & info [ "tasks"; "n" ] ~docv:"N" ~doc:"Number of tasks.")
  in
  let ratio =
    Arg.(value & opt unit_interval 0.1 & info [ "ratio" ] ~docv:"R" ~doc:"BCEC/WCEC ratio.")
  in
  Cmd.v
    (Cmd.info "random" ~doc:"Generate one random task set and measure ACS vs WCS.")
    Term.(const run $ verbose_arg $ n $ ratio $ rounds_arg 1000 $ seed_arg $ jobs_arg
          $ power_arg $ telemetry_arg)

(* --- policies ---------------------------------------------------------- *)

let policies_cmd ~profile =
  let run verbose rounds seed power =
    setup_logs verbose;
    with_observability ~command:"policies" ~profile ~telemetry_file:None
    @@ fun _telemetry ->
    let ts = Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 () in
    (match Experiments.Policies.run ~rounds ~task_set:ts ~power ~seed () with
    | Error e -> Format.printf "error: %a@." Solver.pp_error e
    | Ok cells ->
      print_endline "Policy ablation on the CNC task set (ratio 0.1):";
      Lepts_util.Table.print (Experiments.Policies.to_table cells));
    0
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:"Ablate online policies (max-speed / static / greedy) on both schedules.")
    Term.(const run $ verbose_arg $ rounds_arg 500 $ seed_arg $ power_arg)

(* --- ablations ---------------------------------------------------------- *)

let ablations_cmd ~profile =
  let run verbose rounds seed jobs power =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    with_observability ~command:"ablations" ~profile ~telemetry_file:None
    @@ fun _telemetry ->
    let ts = Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 () in
    let show title = function
      | Error e -> Format.printf "%s: error: %a@." title Solver.pp_error e
      | Ok table ->
        Printf.printf "\n%s:\n" title;
        Lepts_util.Table.print table
    in
    show "NLP formulations (slack vs paper-literal)"
      (Experiments.Ablations.formulations ~jobs ~task_set:ts ~power ());
    show "Objectives (WCS vs ACS vs stochastic)"
      (Experiments.Ablations.objectives ~rounds ~jobs ~task_set:ts ~power ~seed ());
    show "Voltage quantization"
      (Experiments.Ablations.quantization ~rounds ~jobs ~task_set:ts ~power ~seed ());
    show "Scheduling structures (preemptive vs non-preemptive vs YDS bound)"
      (Experiments.Ablations.structures ~jobs ~task_set:ts ~power ());
    (match
       Experiments.Distribution_sweep.run ~rounds ~jobs ~task_set:ts ~power ~seed ()
     with
    | Error e -> Format.printf "distribution sweep: error: %a@." Solver.pp_error e
    | Ok points ->
      print_endline "\nWorkload distribution shapes:";
      Lepts_util.Table.print (Experiments.Distribution_sweep.to_table points));
    (match
       Experiments.Transition_sweep.run ~rounds ~jobs ~task_set:ts ~power ~seed ()
     with
    | Error e -> Format.printf "transition sweep: error: %a@." Solver.pp_error e
    | Ok points ->
      print_endline "\nVoltage-transition overhead:";
      Lepts_util.Table.print (Experiments.Transition_sweep.to_table points));
    0
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Run the design-choice ablations from DESIGN.md on the CNC task set.")
    Term.(const run $ verbose_arg $ rounds_arg 500 $ seed_arg $ jobs_arg $ power_arg)

(* --- utilization sweep --------------------------------------------------- *)

let utilization_cmd ~profile =
  let run verbose rounds seed jobs power =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    with_observability ~command:"utilization" ~profile ~telemetry_file:None
    @@ fun _telemetry ->
    let ts = Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 () in
    let points =
      Experiments.Utilization_sweep.run ~rounds ~jobs ~task_set:ts ~power ~seed ()
    in
    print_endline "ACS improvement vs worst-case utilization (CNC, ratio 0.1):";
    Lepts_util.Table.print (Experiments.Utilization_sweep.to_table points);
    0
  in
  Cmd.v
    (Cmd.info "utilization"
       ~doc:"Sweep worst-case utilization and measure the ACS gain (extension).")
    Term.(const run $ verbose_arg $ rounds_arg 400 $ seed_arg $ jobs_arg $ power_arg)

(* --- faults ------------------------------------------------------------- *)

let faults_cmd ~profile =
  let run verbose n ratio rounds seed jobs power overrun_prob
      overrun_factor jitter_prob jitter_frac denial_prob no_shed no_escalate
      adaptive ewma_alpha drift_threshold hysteresis
      resolve_every resolve_budget fail_on_degraded checkpoint resume
      telemetry_file =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    let adaptive_config =
      { Lepts_robust.Adaptive.estimator =
          { Lepts_sim.Estimator.alpha = ewma_alpha; drift_threshold; hysteresis;
            resolve_budget };
        resolve_every }
    in
    (* Malformed estimator parameters are a usage error (exit 2, like
       --chaos), caught before any solving starts. *)
    (if adaptive then
       try Lepts_sim.Estimator.validate adaptive_config.estimator
       with Invalid_argument msg -> prerr_endline ("lepts faults: " ^ msg); exit 2);
    let workload_result =
      if n = 0 then Ok (Lepts_workloads.Cnc.task_set ~power ~ratio ())
      else
        let rng = Lepts_prng.Xoshiro256.create ~seed in
        Lepts_workloads.Random_gen.generate
          (Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio)
          ~power ~rng
    in
    with_observability ~command:"faults" ~profile ~telemetry_file
    @@ fun telemetry ->
    match workload_result with
    | Error msg -> Format.printf "generation failed: %s@." msg; 1
    | Ok ts -> (
      let plan = Plan.expand ts in
      match
        Lepts_robust.Robust_solver.solve ?telemetry ~plan ~power ()
      with
      | Error e -> Format.printf "error: %a@." Solver.pp_error e; 1
      | Ok (schedule, diagnostics) ->
        Format.printf "%a@." Lepts_robust.Robust_solver.pp_diagnostics diagnostics;
        let spec =
          { Lepts_robust.Fault_injector.seed; overrun_prob; overrun_factor;
            jitter_prob; jitter_frac; denial_prob }
        in
        let containment =
          { Lepts_robust.Containment.shed = not no_shed;
            escalate_early = not no_escalate }
        in
        Format.printf "fault spec: %a@.containment: %a@."
          Lepts_robust.Fault_injector.pp_spec spec
          Lepts_robust.Containment.pp_config containment;
        (* The schedule itself is part of the fingerprint: resuming a
           campaign against a different schedule (changed solver, say)
           must be refused, not silently spliced. *)
        let fingerprint =
          Checkpoint.fingerprint
            ~parts:
              [ "faults"; string_of_int n; string_of_float ratio;
                string_of_int rounds; string_of_int seed;
                string_of_float overrun_prob; string_of_float overrun_factor;
                string_of_float jitter_prob; string_of_float jitter_frac;
                string_of_float denial_prob; string_of_bool (not no_shed);
                string_of_bool (not no_escalate);
                Checkpoint.hash_floats schedule.Static_schedule.end_times;
                Checkpoint.hash_floats schedule.Static_schedule.quotas ]
        in
        with_session ~checkpoint ~resume ~fingerprint
        @@ fun session should_stop ->
        Printf.eprintf "campaign throughput (-j %d):\n%!" jobs;
        let report =
          Lepts_robust.Campaign.run ~rounds ~jobs ~on_stats:print_stats
            ~containment ?checkpoint:session ~should_stop ~spec ~schedule
            ~policy:Lepts_dvs.Policy.Greedy ~seed:(seed + 1) ()
        in
        Printf.printf "\nRobustness report (%d rounds per arm, greedy policy):\n"
          rounds;
        Lepts_util.Table.print (Lepts_robust.Campaign.to_table report);
        if adaptive then begin
          (* The adaptive sweep is a single chained unit of work (each
             epoch's schedule depends on the previous one), so it is
             not checkpointed — like the continuation sweeps, it reruns
             whole on resume. doc/ADAPTATION.md explains. *)
          Printf.eprintf "adaptive sweep throughput (-j %d):\n%!" jobs;
          let points =
            Lepts_robust.Adaptive.sweep ~rounds ~jobs
              ~config:adaptive_config ~on_stats:print_stats ~spec ~schedule
              ~policy:Lepts_dvs.Policy.Greedy ~seed:(seed + 2) ()
          in
          Printf.printf
            "\nAdaptive workload estimation (static vs adaptive ACS, %d \
             rounds per arm):\n"
            rounds;
          Lepts_util.Table.print (Lepts_robust.Adaptive.to_table points);
          List.iter
            (fun (p : Lepts_robust.Adaptive.point) ->
              let mean_ratio =
                let s = ref 0. in
                Array.iteri
                  (fun i e -> s := !s +. (e /. Float.max p.initial.(i) 1e-12))
                  p.estimates;
                !s /. float_of_int (Array.length p.estimates)
              in
              Printf.printf
                "  %-16s final drift %.3f, mean estimate/offline ratio %.2f, \
                 %d/%d re-solve budget used\n"
                p.label p.final_drift mean_ratio p.counters.resolves
                adaptive_config.estimator.resolve_budget)
            points
        end;
        if fail_on_degraded
           && diagnostics.Lepts_robust.Robust_solver.chosen
              <> Lepts_robust.Robust_solver.Acs
        then begin
          Printf.eprintf
            "fail-on-degraded: schedule came from %s, not acs\n%!"
            (Lepts_robust.Robust_solver.stage_name
               diagnostics.Lepts_robust.Robust_solver.chosen);
          4
        end
        else 0)
  in
  let n =
    Arg.(value & opt non_negative 0
         & info [ "tasks"; "n" ] ~docv:"N"
             ~doc:"Number of random tasks; 0 (default) uses the CNC task set.")
  in
  let ratio =
    Arg.(value & opt unit_interval 0.1 & info [ "ratio" ] ~docv:"R" ~doc:"BCEC/WCEC ratio.")
  in
  let overrun_prob =
    Arg.(value & opt unit_interval 0.05
         & info [ "overrun-prob" ] ~docv:"P"
             ~doc:"Per-instance probability of a WCEC overrun.")
  in
  let overrun_factor =
    Arg.(value
         & opt (checked Arg.float ~expect:"a finite number >= 1" (fun f ->
                    f >= 1. && f < infinity))
             1.5
         & info [ "overrun-factor" ] ~docv:"F"
             ~doc:"Actual cycles = F * WCEC on an overrun (F >= 1).")
  in
  let jitter_prob =
    Arg.(value & opt unit_interval 0.05
         & info [ "jitter-prob" ] ~docv:"P"
             ~doc:"Per-instance probability of release jitter.")
  in
  let jitter_frac =
    Arg.(value
         & opt
             (checked Arg.float ~expect:"a number in [0, 1)" (fun x ->
                  x >= 0. && x < 1.))
             0.1
         & info [ "jitter-frac" ] ~docv:"F"
             ~doc:"Maximum jitter as a fraction of the period.")
  in
  let denial_prob =
    Arg.(value & opt unit_interval 0.05
         & info [ "denial-prob" ] ~docv:"P"
             ~doc:"Per-dispatch probability that a voltage change is denied.")
  in
  let no_shed =
    Arg.(value & flag
         & info [ "no-shed" ]
             ~doc:"Containment escalates to v_max but never sheds residual work.")
  in
  let no_escalate =
    Arg.(value & flag
         & info [ "no-escalate" ]
             ~doc:"Containment only acts once the budget is fully exhausted.")
  in
  let fail_on_degraded =
    Arg.(value & flag
         & info [ "fail-on-degraded" ]
             ~doc:"Exit with code 4 when the solve pipeline fell through to \
                   a WCS or RM fallback schedule (the campaign still runs \
                   and the report is still printed). For CI gates that must \
                   distinguish a degraded-but-running system from a healthy \
                   one.")
  in
  let adaptive =
    Arg.(value & flag
         & info [ "adaptive" ]
             ~doc:"After the robustness report, run the static-vs-adaptive \
                   ACS sweep (doc/ADAPTATION.md): fold each round's \
                   observed per-task cycles into an online ACEC estimator \
                   and incrementally re-solve the schedule when the \
                   estimate drifts past --drift-threshold. Output is \
                   bit-identical for every -j value (CI-gated). The sweep \
                   is a chained unit of work and is not checkpointed.")
  in
  let ewma_alpha =
    Arg.(value & opt float 0.2
         & info [ "ewma-alpha" ] ~docv:"A"
             ~doc:"EWMA smoothing factor in (0, 1]; larger forgets faster.")
  in
  let drift_threshold =
    Arg.(value & opt float 0.1
         & info [ "drift-threshold" ] ~docv:"T"
             ~doc:"Relative ACEC drift that triggers an incremental \
                   re-solve (strictly greater-than; drift exactly at T \
                   keeps the plan).")
  in
  let hysteresis =
    Arg.(value & opt float 0.5
         & info [ "hysteresis" ] ~docv:"H"
             ~doc:"In [0, 1]: after a re-solve the trigger re-arms only \
                   once drift falls to T*(1-H) or below; 0 disables.")
  in
  let resolve_every =
    Arg.(value & opt positive 25
         & info [ "resolve-every" ] ~docv:"K"
             ~doc:"Drift-check cadence in rounds (the adaptive epoch \
                   length; re-solves only happen at epoch boundaries).")
  in
  let resolve_budget =
    Arg.(value & opt int 8
         & info [ "resolve-budget" ] ~docv:"B"
             ~doc:"Maximum incremental re-solves per arm; once spent, the \
                   run continues on its last schedule and further drift \
                   events are counted as exhausted.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run a fault-injection campaign (WCEC overruns, release jitter, \
             denied voltage transitions) and print a robustness report, \
             optionally followed by the adaptive-estimator sweep \
             (--adaptive).")
    Term.(const run $ verbose_arg $ n $ ratio $ rounds_arg 500 $ seed_arg
          $ jobs_arg $ power_arg $ overrun_prob
          $ overrun_factor $ jitter_prob $ jitter_frac $ denial_prob $ no_shed
          $ no_escalate $ adaptive $ ewma_alpha $ drift_threshold $ hysteresis
          $ resolve_every $ resolve_budget
          $ fail_on_degraded $ checkpoint_arg $ resume_arg $ telemetry_arg)

(* --- serve --------------------------------------------------------------- *)

let serve_cmd ~profile =
  let run verbose input socket_path spool_dir replay_path journal_path
      accept_backlog read_timeout_ms max_line_bytes idle_exit_ms jobs shards
      high_water wave max_crashes threshold cooldown probes power cache_path
      snapshot_every health_every max_cache_entries cache_stats chaos_spec
      fail_on_degraded telemetry_file =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    let chaos =
      match chaos_spec with
      | None -> Ok None
      | Some spec ->
        Result.map
          (fun p -> Some (Lepts_serve.Chaos.create ~profile:p))
          (Lepts_serve.Chaos.of_string spec)
    in
    let modes =
      List.length
        (List.filter Option.is_some [ socket_path; spool_dir; replay_path ])
    in
    let config =
      { Lepts_serve.Daemon.service =
          { Lepts_serve.Service.jobs; shards; high_water; wave;
            max_worker_crashes = max_crashes;
            breaker =
              { Lepts_serve.Breaker.failure_threshold = threshold; cooldown;
                probes } };
        cache_path; snapshot_every; health_every; journal_path;
        max_cache_entries =
          (if max_cache_entries = 0 then None else Some max_cache_entries) }
    in
    let usage_error =
      if modes > 1 then Some "--socket, --spool and --replay are mutually exclusive"
      else Lepts_serve.Daemon.refused_path config
    in
    match (chaos, usage_error) with
    | Error msg, _ | Ok _, Some msg ->
      prerr_endline ("lepts serve: " ^ msg);
      2
    | Ok chaos, None -> (
      with_observability ~command:"serve" ~profile ~telemetry_file
      @@ fun _telemetry ->
      Drain.install ();
      let finish (result : Lepts_serve.Daemon.result) =
        prerr_endline
          ("lepts serve: "
          ^ Lepts_serve.Daemon.start_name result.Lepts_serve.Daemon.start);
        let report = result.Lepts_serve.Daemon.report in
        Lepts_serve.Service.print_report report;
        if cache_stats then
          print_endline
            (Lepts_serve.Daemon.cache_stats_line
               ~cache:result.Lepts_serve.Daemon.cache);
        Option.iter print_endline result.Lepts_serve.Daemon.chaos_line;
        if report.Lepts_serve.Service.drained then 3
        else if
          fail_on_degraded
          && (report.Lepts_serve.Service.degraded
             || List.exists
                  (fun (o : Lepts_serve.Service.outcome) ->
                    o.Lepts_serve.Service.degraded)
                  report.Lepts_serve.Service.outcomes)
        then 4
        else 0
      in
      let source =
        match (socket_path, spool_dir, replay_path) with
        | Some path, _, _ ->
          Lepts_serve.Transport.socket ~accept_backlog ~read_timeout_ms
            ~max_line_bytes ~idle_exit_ms ?chaos ~path ()
        | None, Some dir, _ ->
          Lepts_serve.Transport.spool ~max_line_bytes ~idle_exit_ms ?chaos ~dir ()
        | None, None, Some path -> Lepts_serve.Transport.replay ~path
        | None, None, None -> (
          let read ic = String.split_on_char '\n' (In_channel.input_all ic) in
          let lines () =
            match input with
            | None -> read stdin
            | Some path -> In_channel.with_open_bin path read
          in
          match lines () with
          | exception Sys_error msg -> Error msg
          | lines ->
            Ok
              (Lepts_serve.Transport.of_lines ?chaos
                 (List.filter (fun l -> String.trim l <> "") lines)))
      in
      match source with
      | Error msg ->
        prerr_endline ("lepts serve: " ^ msg);
        2
      | Ok source ->
        finish
          (Fun.protect
             ~finally:(fun () -> Lepts_serve.Transport.close source)
             (fun () ->
               Lepts_serve.Daemon.run_source ~config ~power ?chaos
                 ~should_stop:Drain.requested ~source ())))
  in
  let input =
    Arg.(value & opt (some string) None
         & info [ "input"; "i" ] ~docv:"FILE"
             ~doc:"Read NDJSON requests from FILE (default: stdin). One \
                   flat JSON object per line, e.g. \
                   {\"id\":\"r1\",\"tasks\":4,\"ratio\":0.3,\"seed\":7}. \
                   Ignored when --socket, --spool or --replay selects a \
                   live ingress.")
  in
  let socket_path =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve as a long-running daemon on a Unix-domain socket \
                   at PATH: clients connect and stream NDJSON requests; \
                   responses go to stdout as they complete. Mutually \
                   exclusive with --spool and --replay. A stale socket \
                   file from a killed daemon is replaced; a live one is a \
                   bind conflict (exit 2).")
  in
  let spool_dir =
    Arg.(value & opt (some string) None
         & info [ "spool" ] ~docv:"DIR"
             ~doc:"Serve as a long-running daemon watching DIR: files \
                   dropped there are consumed (then deleted) as NDJSON \
                   request batches, in lexicographic name order. Names \
                   starting with '.' or ending in .tmp/.part are skipped, \
                   so writers can rename into place atomically. The \
                   file-fed replacement for repeated one-shot batch runs.")
  in
  let replay_path =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"JOURNAL"
             ~doc:"Re-serve the arrival journal recorded by --journal: \
                   every batch, arrival stamp and transport rejection is \
                   replayed exactly, so the report byte-matches the live \
                   run's. The CI determinism pin for live ingress.")
  in
  let journal_path =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Record every polled arrival batch to FILE (atomic \
                   snapshots, same cadence as --snapshot-every) for later \
                   --replay.")
  in
  let accept_backlog =
    Arg.(value & opt int 16
         & info [ "accept-backlog" ] ~docv:"N"
             ~doc:"Pending-connection queue length for --socket (the \
                   listen(2) backlog).")
  in
  let read_timeout_ms =
    Arg.(value & opt int 5000
         & info [ "read-timeout-ms" ] ~docv:"MS"
             ~doc:"With --socket: a connection holding a partial line \
                   longer than this is rejected and closed (the buffered \
                   bytes are reported as a rejected line).")
  in
  let max_line_bytes =
    Arg.(value & opt int 65536
         & info [ "max-line-bytes" ] ~docv:"N"
             ~doc:"Longest accepted NDJSON line on a live ingress; longer \
                   lines are rejected with a diagnostic, not truncated.")
  in
  let idle_exit_ms =
    Arg.(value & opt int 0
         & info [ "idle-exit-ms" ] ~docv:"MS"
             ~doc:"With --socket or --spool: exit cleanly after this long \
                   with no connections and no arrivals; 0 (default) serves \
                   forever. Lets soak tests and scripted runs terminate \
                   without a signal.")
  in
  let shards =
    Arg.(value & opt positive 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Request-queue shards. Requests are partitioned by a \
                   content hash of their id; each shard has its own \
                   circuit breaker and high-water mark, so one failing \
                   client family degrades one shard, not the service.")
  in
  let high_water =
    Arg.(value & opt positive 64
         & info [ "high-water" ] ~docv:"N"
             ~doc:"Per-shard admission high-water mark: valid requests \
                   hashing to a shard beyond its first N are load-shed.")
  in
  let wave =
    Arg.(value & opt positive 8
         & info [ "wave" ] ~docv:"N"
             ~doc:"Requests solved between circuit-breaker folds. Part of \
                   the service semantics, so results are identical for \
                   every -j value.")
  in
  let max_crashes =
    Arg.(value & opt non_negative 2
         & info [ "max-crashes" ] ~docv:"N"
             ~doc:"Worker restarts granted per request before it is failed \
                   and the service marked degraded.")
  in
  let threshold =
    Arg.(value & opt positive 3
         & info [ "breaker-threshold" ] ~docv:"N"
             ~doc:"Consecutive ACS failures that open the circuit.")
  in
  let cooldown =
    Arg.(value & opt positive 8
         & info [ "breaker-cooldown" ] ~docv:"N"
             ~doc:"Requests an open circuit waits before half-open probing.")
  in
  let probes =
    Arg.(value & opt positive 1
         & info [ "breaker-probes" ] ~docv:"N"
             ~doc:"ACS probe slots per half-open episode.")
  in
  let cache_path =
    Arg.(value & opt (some string) None
         & info [ "cache" ] ~docv:"FILE"
             ~doc:"Persist the content-addressed schedule cache to FILE \
                   (atomic snapshots). On startup a valid snapshot is \
                   loaded and previously-solved task sets are served from \
                   it byte-identically; a corrupt or mismatched snapshot \
                   is refused with a diagnostic and the daemon starts \
                   cold.")
  in
  let snapshot_every =
    Arg.(value & opt positive 8
         & info [ "snapshot-every" ] ~docv:"WAVES"
             ~doc:"Waves between periodic cache snapshots (with --cache).")
  in
  let health_every =
    Arg.(value & opt non_negative 0
         & info [ "health-every" ] ~docv:"WAVES"
             ~doc:"Emit a one-line health report (cache hit rate, shard \
                   backlogs, breaker states) to stderr every N waves; 0 \
                   disables.")
  in
  let max_cache_entries =
    Arg.(value & opt non_negative 0
         & info [ "max-cache-entries" ] ~docv:"N"
             ~doc:"Bound the schedule cache to N entries, evicting \
                   deterministically (second-chance, fallback entries \
                   first) when full; 0 (default) leaves it unbounded. A \
                   warm snapshot with a different bound is truncated to \
                   this one, never refused.")
  in
  let cache_stats =
    Arg.(value & flag
         & info [ "cache-stats" ]
             ~doc:"Append a {\"cache\": ...} trailer with \
                   hit/miss/stale/upgrade/eviction counters to stdout. \
                   Off by default: the counters differ between cold and \
                   warm runs, so they would break byte-identical report \
                   comparison.")
  in
  let chaos_spec =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"PROFILE"
             ~doc:"Inject deterministic faults: comma-separated key=value \
                   pairs among crash=P, slow=P, slow-ms=N, drop=P, \
                   cut=P, stall=P, stall-ms=N, flip=P, corrupt=0|1, \
                   seed=N — e.g. \
                   'crash=0.2,slow=0.1,drop=0.1,cut=0.1,corrupt=1,seed=7'. \
                   cut/stall target live socket connections and flip \
                   corrupts spool files; all are keyed by the seed, so \
                   fixed seeds reproduce the same faults on every run.")
  in
  let fail_on_degraded =
    Arg.(value & flag
         & info [ "fail-on-degraded" ]
             ~doc:"Exit with code 4 when any request was served by a \
                   WCS/RM fallback schedule or the service exhausted a \
                   request's worker restarts.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve NDJSON solve requests through the supervised pipeline — \
             one-shot from a file/stdin, or long-running on a Unix-domain \
             socket (--socket) or watched spool directory (--spool): \
             sharded admission control with per-shard circuit breakers, \
             end-to-end request deadlines (budget_ms, charged while \
             queued), coalescing of identical in-flight requests, a \
             persistent bounded content-addressed schedule cache with warm \
             restart, worker-crash supervision, optional chaos \
             injection, an arrival journal for byte-identical offline \
             replay (--journal/--replay), and graceful drain on \
             SIGTERM/SIGINT (exit 3; bind failure exits 2). Output is one \
             JSON line per request plus a summary, byte-identical for \
             every -j value — and across a warm restart.")
    Term.(const run $ verbose_arg $ input $ socket_path $ spool_dir
          $ replay_path $ journal_path $ accept_backlog $ read_timeout_ms
          $ max_line_bytes $ idle_exit_ms $ jobs_arg $ shards $ high_water
          $ wave $ max_crashes $ threshold $ cooldown
          $ probes $ power_arg $ cache_path $ snapshot_every
          $ health_every $ max_cache_entries $ cache_stats $ chaos_spec
          $ fail_on_degraded $ telemetry_arg)

(* --- export -------------------------------------------------------------- *)

let export_cmd ~profile =
  let run verbose n ratio seed power out =
    setup_logs verbose;
    with_observability ~command:"export" ~profile ~telemetry_file:None
    @@ fun _telemetry ->
    let ts =
      if n = 0 then Lepts_workloads.Cnc.task_set ~power ~ratio ()
      else
        let rng = Lepts_prng.Xoshiro256.create ~seed in
        match
          Lepts_workloads.Random_gen.generate
            (Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio)
            ~power ~rng
        with
        | Ok ts -> ts
        | Error msg -> failwith msg
    in
    let plan = Plan.expand ts in
    (match Solver.solve_acs ~plan ~power () with
    | Error e -> Format.printf "error: %a@." Solver.pp_error e
    | Ok (schedule, _) ->
      let csv = Lepts_core.Export.schedule_to_csv schedule in
      (match out with
      | None -> print_string csv
      | Some path ->
        let oc = open_out path in
        output_string oc csv;
        close_out oc;
        Printf.printf "wrote %s (%d sub-instances)\n" path
          (Lepts_core.Static_schedule.size schedule)));
    0
  in
  let n =
    Arg.(value & opt non_negative 0
         & info [ "tasks"; "n" ] ~docv:"N"
             ~doc:"Number of random tasks; 0 (default) exports the CNC schedule.")
  in
  let ratio =
    Arg.(value & opt unit_interval 0.1 & info [ "ratio" ] ~docv:"R" ~doc:"BCEC/WCEC ratio.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the CSV here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export an ACS schedule as CSV (the firmware tables).")
    Term.(const run $ verbose_arg $ n $ ratio $ seed_arg $ power_arg $ out)

let commands ~profile =
  [ motivation_cmd ~profile; fig6a_cmd ~profile; fig6b_cmd ~profile;
    schedule_cmd ~profile; random_cmd ~profile; policies_cmd ~profile;
    ablations_cmd ~profile; utilization_cmd ~profile; faults_cmd ~profile;
    serve_cmd ~profile; export_cmd ~profile ]

(* [lepts profile <cmd> ...] is the whole command tree again, with the
   span profiler enabled and a per-path wall-clock report printed to
   stderr on exit. Stdout is unchanged. *)
let profile_cmd =
  Cmd.group
    (Cmd.info "profile"
       ~doc:"Run any lepts command with hierarchical profiling spans \
             enabled; a per-phase wall-clock report goes to stderr when \
             the command finishes.")
    (commands ~profile:true)

let main_cmd =
  let doc = "low-energy preemptive task scheduling (DATE 2005 reproduction)" in
  Cmd.group (Cmd.info "lepts" ~version:"1.0.0" ~doc)
    (commands ~profile:false @ [ profile_cmd ])

let () = exit (Cmd.eval' main_cmd)
