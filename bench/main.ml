(* Solver benchmark: what the rest of the repo cannot see. The CLI
   prints the paper's tables, perfbench times whole workloads through
   public calls, and `dune runtest` pins outputs bit for bit; this
   binary measures

   - kernel rows: ns and minor words per op of the objective kernels
     and of small ACS solves;
   - the saturated CNC multi-start on the domain pool against the
     sequential solve;
   - warm against cold: a CNC ratio continuation, gated on its descent
     work (inner iterations summed over every start of every point);
   - solver work: inner iterations and minor words of the 660- and
     1936-sub ACS solves, gated against counts recorded below;
   - the per-record cost of solver telemetry.

   Every timing is a median with its quartiles over k repetitions, and
   every A/B comparison interleaves its two sides in the same run.

   Usage: main.exe [--json FILE] [--quick] [--max-telemetry-overhead-ns N]
                   [--min-vs-sequential X] [--min-warm-speedup X]
   --quick shortens every section (the CI smoke run); --json writes the
   summary (schema lepts-bench-solver/11). A violated gate prints a FAIL
   line and exits 1. *)

module Model = Lepts_power.Model
module Plan = Lepts_preempt.Plan
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Objective = Lepts_core.Objective
module Workspace = Lepts_core.Workspace
module Telemetry = Lepts_obs.Telemetry
module Experiments = Lepts_experiments

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let cores = Domain.recommended_domain_count ()

let failures = ref []

(* [check ok fmt ...] records a gate failure unless [ok]. *)
let check ok fmt =
  Printf.ksprintf (fun s -> if not ok then failures := s :: !failures) fmt

(* ----- statistics ------------------------------------------------------- *)

type spread = { median : float; q1 : float; q3 : float }

let spread xs =
  let p p = Lepts_util.Stats.percentile xs ~p in
  { median = p 50.; q1 = p 25.; q3 = p 75. }

let speedup num den = spread (Array.map2 (fun n d -> n /. Float.max d 1e-9) num den)

let show ?(unit = "") s = Printf.sprintf "%.3f%s [IQR %.3f]" s.median unit (s.q3 -. s.q1)

(* Wall-clock by default; [~clock:Sys.time] is the process's CPU time. *)
let time ?(clock = Unix.gettimeofday) f =
  let t0 = clock () in
  let r = f () in
  (clock () -. t0, r)

(* [k] runs of [a] and [b] in pairs, alternating which side runs first
   so that drift over the run (frequency scaling, a neighbour's load,
   heap growth) lands on both sides alike. Returns each side's times,
   pair by pair, and each side's last result. *)
let pairs ?clock ~k a b =
  let ta = Array.make k 0. and tb = Array.make k 0. in
  let ra = ref None and rb = ref None in
  let run f times last i =
    let t, r = time ?clock f in
    times.(i) <- t;
    last := Some r
  in
  for i = 0 to k - 1 do
    if i mod 2 = 0 then (run a ta ra i; run b tb rb i) else (run b tb rb i; run a ta ra i)
  done;
  (ta, tb, Option.get !ra, Option.get !rb)

let bits (s : Static_schedule.t) =
  ( Array.map Int64.bits_of_float s.Static_schedule.end_times,
    Array.map Int64.bits_of_float s.Static_schedule.quotas )

(* ----- JSON ------------------------------------------------------------- *)

type json =
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Obj of (string * json) list
  | List of json list

(* Containers holding only scalars print on one line, others one
   member per line. *)
let rec emit b indent = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int x -> Buffer.add_string b (string_of_int x)
  | Num x when Float.is_finite x -> Printf.bprintf b "%.3f" x
  | Num _ -> Buffer.add_string b "null"
  | Str s -> Printf.bprintf b "\"%s\"" (Lepts_obs.Export.json_escape s)
  | Obj fields -> members b indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) fields)
  | List items -> members b indent '[' ']' (List.map (fun v -> (None, v)) items)

and members b indent opening closing items =
  let nested =
    List.exists (fun (_, v) -> match v with Obj _ | List _ -> true | _ -> false) items
  in
  let pad = String.make (indent + 2) ' ' in
  Buffer.add_char b opening;
  List.iteri
    (fun i (key, v) ->
      if nested then Buffer.add_string b ((if i = 0 then "\n" else ",\n") ^ pad)
      else if i > 0 then Buffer.add_string b ", ";
      Option.iter
        (fun k -> Printf.bprintf b "\"%s\": " (Lepts_obs.Export.json_escape k))
        key;
      emit b (indent + 2) v)
    items;
  if nested then Buffer.add_string b ("\n" ^ String.make indent ' ');
  Buffer.add_char b closing

let spread_json s = Obj [ ("median", Num s.median); ("q1", Num s.q1); ("q3", Num s.q3) ]

let times_json xs = spread_json (spread xs)

(* ----- fixtures --------------------------------------------------------- *)

let cnc_plan = lazy (Plan.expand (Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 ()))

let motivation_plan = lazy (Plan.expand (Experiments.Motivation.task_set ()))

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

let random_plan ~n ~seed ~max_subs =
  lazy
    (let rng = Lepts_prng.Xoshiro256.create ~seed in
     let config =
       { (Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio:0.1) with
         Lepts_workloads.Random_gen.max_sub_instances = max_subs }
     in
     Plan.expand (Result.get_ok (Lepts_workloads.Random_gen.generate config ~power ~rng)))

(* ----- kernel rows ------------------------------------------------------ *)

(* One row: double a batch until it lasts [batch_s], then time [k]
   batches of that many calls. Minor words per op are counted over one
   more batch, exactly: the loop around [f] allocates nothing, so a
   zero-allocation kernel reads 0 (2 words is the boxed float result
   the thunks discard). *)
let kernel_row ~k ~batch_s (name, f) =
  let batch n () =
    for _ = 1 to n do
      f ()
    done
  in
  let rec calibrate n =
    if fst (time (batch n)) >= batch_s then n else calibrate (2 * n)
  in
  let n = calibrate 1 in
  let ns = Array.init k (fun _ -> fst (time (batch n)) *. 1e9 /. float_of_int n) in
  let before = Gc.minor_words () in
  batch n ();
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Printf.printf "  %-44s %s ns/op, %.1f minor words/op\n%!" name (show (spread ns)) words;
  Obj
    [ ("name", Str name); ("ns_per_op", times_json ns); ("ops_per_batch", Int n);
      ("minor_words_per_op", Num words) ]

(* The objective and adjoint kernels the solver calls, on one ACS
   point, plus whole multi-start solves on the two smallest plans (the
   large ones are the solver-work section's). *)
let kernel_section ~quick =
  let plan = Lazy.force cnc_plan in
  let _, acs = Lazy.force cnc_schedules in
  let totals = Objective.instance_totals Objective.Average plan in
  let e = acs.Static_schedule.end_times and w_hat = acs.Static_schedule.quotas in
  let ws = Workspace.create plan in
  let de = Array.make (Plan.size plan) 0. and dwq = Array.make (Plan.size plan) 0. in
  let solve plan () = ignore (Result.get_ok (Solver.solve_acs ~plan ~power ())) in
  let motivation = Lazy.force motivation_plan in
  ( "benchmarks",
    List
      (List.map
         (kernel_row ~k:(if quick then 5 else 21) ~batch_s:(if quick then 0.01 else 0.05))
         [ ( "objective eval, workspace (CNC, 32 subs)",
             fun () -> ignore (Objective.eval_ws ws ~power ~totals ~e ~w_hat) );
           ( "adjoint gradient, workspace (CNC, 32 subs)",
             fun () ->
               ignore
                 (Objective.eval_with_gradient_ws ws ~power ~totals ~e ~w_hat ~de ~dwq) );
           ( Printf.sprintf "ACS solve (motivation, %d subs)" (Plan.size motivation),
             solve motivation );
           ("ACS solve (CNC, 32 subs)", solve plan) ]) )

(* ----- pool against sequential ------------------------------------------ *)

let par_jobs = 4

let blend a b alpha = Array.mapi (fun i x -> (alpha *. x) +. ((1. -. alpha) *. b.(i))) a

(* Warm starts that saturate a jobs = 4 pool: the plan's WCS and ACS
   optima and six convex blends of the two. Both endpoints are repaired
   schedules, so every per-instance quota sum sits at its WCEC and each
   blend is a valid warm start. *)
let saturating_warm_starts () =
  let wcs, acs = Lazy.force cnc_schedules in
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

(* One solve-dominated multi-start, sequential against the shared pool
   at [par_jobs]: the ratio measures parallel descent work, not
   dispatch, and exceeds 1 only with at least [par_jobs] cores. *)
let parallel_section ~quick ~min_vs_sequential =
  let plan = Lazy.force cnc_plan in
  let warm_starts = saturating_warm_starts () in
  (* The greedy start plus one per warm start. *)
  let starts = 1 + List.length warm_starts in
  let solve jobs () =
    Result.get_ok (Solver.solve_acs ~jobs ~warm_starts ~plan ~power ())
  in
  let seq_s, pool_s, (seq, stats), (pool, _) =
    pairs ~k:(if quick then 3 else 9) (solve 1) (solve par_jobs)
  in
  let identical = bits seq = bits pool and speedup = speedup seq_s pool_s in
  Printf.printf "  CNC multi-start, %d starts: seq %s, pool -j %d %s, seq/pool %s\n%!"
    starts (show ~unit:"s" (spread seq_s)) par_jobs
    (show ~unit:"s" (spread pool_s)) (show ~unit:"x" speedup);
  check identical "the parallel multi-start is not bit-identical";
  (* Below [par_jobs] cores the pool cannot beat the sequential solve,
     so the floor is not applied there: the row says so instead. *)
  let gate =
    match min_vs_sequential with
    | None -> "off"
    | Some _ when cores < par_jobs ->
      Printf.printf "  pool-vs-sequential floor skipped: %d core(s) < %d jobs\n%!" cores
        par_jobs;
      "skipped"
    | Some floor ->
      check (speedup.median >= floor)
        "pool-vs-sequential speedup %.2fx below the %.2fx floor (%d cores)"
        speedup.median floor cores;
      "checked"
  in
  ( "parallel_solve_saturated",
    Obj
      [ ("plan", Str (Printf.sprintf "CNC (32 subs), %d starts" starts));
        ("jobs", Int par_jobs);
        ("pairs", Int (Array.length seq_s)); ("seq_s", times_json seq_s);
        ("pool_s", times_json pool_s); ("vs_sequential", spread_json speedup);
        ("vs_sequential_gate", Str gate);
        ("objective", Num stats.Solver.objective); ("bit_identical", Bool identical) ] )

(* ----- warm against cold ------------------------------------------------ *)

(* Cold against warm CNC ratio sweep: point [i] continued from point
   [i-1] via {!Solver.solve_warm}. A cold point runs one descent from
   the greedy start, as a warm point runs one from its seed, so what
   the chain saves is descent work, not starts: the floor gates the
   ratio of the sweeps' inner iterations, which is exact, and the wall
   ratio is reported beside it, ungated. Warm's hard guarantee is
   never-worse than its seed (the previous point's solution), not than
   the cold multi-start of the same point, so a warm point can lose a
   basin race cold wins; the gate bounds that loss at 5%, the bound the
   test suite pins, and requires the sweep total never to regress. *)
let continuation_row ~quick ~min_warm_speedup =
  let ratios =
    if quick then [ 0.1; 0.5; 0.9 ] else List.init 9 (fun i -> float (i + 1) /. 10.)
  in
  let build ~ratio = Lepts_workloads.Cnc.task_set ~power ~ratio () in
  let run warm () =
    (Result.get_ok (Experiments.Continuation.run ~warm ~ratios ~build ~power ()))
      .Experiments.Continuation.points
  in
  let cold_s, warm_s, cold_points, warm_points =
    pairs ~k:(if quick then 5 else 9) (run false) (run true)
  in
  let energies = List.map (fun p -> p.Experiments.Continuation.predicted_energy) in
  let cold = energies cold_points and warm = energies warm_points in
  (* Exact: the solver is deterministic, so every run counts the same. *)
  let inner points =
    List.fold_left
      (fun acc p -> acc + p.Experiments.Continuation.inner_iterations)
      0 points
  in
  let cold_work = inner cold_points and warm_work = inner warm_points in
  let wall = speedup cold_s warm_s and total = List.fold_left ( +. ) 0. in
  let work = float_of_int cold_work /. float_of_int (max warm_work 1) in
  let close = List.for_all2 (fun c w -> w <= (c *. 1.05) +. 1e-9) cold warm in
  let never_worse = total warm <= total cold +. 1e-9 in
  let first_identical =
    Int64.bits_of_float (List.hd cold) = Int64.bits_of_float (List.hd warm)
  in
  let plan = Printf.sprintf "CNC ratio sweep, %d points" (List.length ratios) in
  Printf.printf
    "  warm continuation (%s): inner iterations cold %d, warm %d, cold/warm %.2fx; \
     wall cold %s, warm %s, cold/warm %s (not gated)\n%!"
    plan cold_work warm_work work
    (show ~unit:"s" (spread cold_s)) (show ~unit:"s" (spread warm_s))
    (show ~unit:"x" wall);
  check close "a warm continuation point ended >5%% worse than its cold counterpart";
  check never_worse "the warm continuation sweep's total energy regressed vs cold";
  check first_identical
    "cold-vs-warm continuation sweeps differ on the always-cold first point";
  Option.iter
    (fun floor ->
      check (work >= floor)
        "warm continuation work ratio %.2fx (inner iterations, cold %d / warm %d) below \
         the %.2fx floor"
        work cold_work warm_work floor)
    min_warm_speedup;
  Obj
    [ ("plan", Str plan); ("pairs", Int (Array.length cold_s));
      ("cold_inner_iterations", Int cold_work); ("warm_inner_iterations", Int warm_work);
      ("work_speedup", Num work); ("cold_s", times_json cold_s);
      ("warm_s", times_json warm_s); ("wall_speedup", spread_json wall);
      ("close_per_point", Bool close); ("total_never_worse", Bool never_worse);
      ("first_point_bit_identical", Bool first_identical) ]

(* ----- solver work ------------------------------------------------------ *)

(* The two largest plans, 660 subs under the default expansion cap and
   1936 with it raised (seed 104 is the first seed whose 16-task draw
   is RM-schedulable at that size), each with the inner iterations its
   cold ACS solve performs, summed over every start (one, the greedy
   start), and the minor words the solve allocates. The solver is
   deterministic, so both counts are the same on every run. The gate
   allows [work_slack] of the iterations and [alloc_slack] of the
   words: the allocation count also depends on the compiler's
   unboxing, which may differ between OCaml versions, and the limit
   still sits more than 10x below what a solve allocated while its
   kernels boxed floats and called polymorphic compare (9.1 M and
   23.4 M words). A deliberate change to either count updates these
   constants and says why in CHANGES.md. *)
type work_case = {
  plan : Plan.t Lazy.t;
  inner : int;  (** recorded inner iterations *)
  words : int;  (** recorded minor words of one solve *)
}

let work_cases =
  [ { plan = random_plan ~n:8 ~seed:108 ~max_subs:1000; inner = 1860;
      words = 39_420 };
    { plan = random_plan ~n:16 ~seed:104 ~max_subs:2600; inner = 1920;
      words = 51_272 } ]

let work_slack = 1.10

let alloc_slack = 2.

let work_case ~k case =
  let plan = Lazy.force case.plan in
  let subs = Plan.size plan in
  let solve () =
    let sink = Telemetry.solve_sink ~label:"bench" () in
    let before = Gc.minor_words () in
    let _, stats = Result.get_ok (Solver.solve_acs ~telemetry:sink ~plan ~power ()) in
    let words = Gc.minor_words () -. before in
    (stats, sink, int_of_float words)
  in
  let runs = Array.init k (fun _ -> time solve) in
  let solve_s = Array.map fst runs and stats, sink, words = snd runs.(0) in
  let starts = Array.length sink.Telemetry.starts in
  let inner = Telemetry.sum_starts (fun s -> s.Telemetry.inner_iterations) sink in
  let limit = int_of_float (float_of_int case.inner *. work_slack) in
  let words_limit = int_of_float (float_of_int case.words *. alloc_slack) in
  Printf.printf
    "  ACS solve (%d subs): %d inner iterations over %d starts (recorded %d, limit \
     %d), %d minor words (recorded %d, limit %d), %s\n%!"
    subs inner starts case.inner limit words case.words words_limit
    (show ~unit:"s" (spread solve_s));
  check (inner <= limit)
    "ACS solve (%d subs): %d inner iterations exceed %d (%.0f%% of the recorded %d)" subs
    inner limit (work_slack *. 100.) case.inner;
  check (words <= words_limit)
    "ACS solve (%d subs): %d minor words exceed %d (%.0fx the recorded %d)" subs words
    words_limit alloc_slack case.words;
  Obj
    [ ("plan", Str (Printf.sprintf "ACS solve (%d subs)" subs)); ("subs", Int subs);
      ("starts", Int starts); ("inner_iterations", Int inner);
      ("recorded_inner_iterations", Int case.inner);
      ("outer_rounds",
       Int (Telemetry.sum_starts (fun s -> s.Telemetry.outer_rounds) sink));
      ("minor_words", Int words); ("recorded_minor_words", Int case.words);
      ("solve_s", times_json solve_s); ("objective", Num stats.Solver.objective) ]

let work_section ~quick =
  ( "solver_work",
    Obj
      [ ("limit_pct_of_recorded", Num (work_slack *. 100.));
        ("alloc_limit_x_recorded", Num alloc_slack);
        ("cases", List (List.map (work_case ~k:(if quick then 1 else 3)) work_cases)) ] )

(* ----- telemetry overhead ----------------------------------------------- *)

(* The same CNC ACS solve without and with a convergence sink. The
   sink counts every record pushed to it (one per inner iteration of
   every start), ring wrap or not, so a pair's per-record cost is its
   time difference over that count. One solve varies by more than the
   whole capture costs, so the gate reads the median over many pairs,
   timed in CPU time: the solve runs on one domain, and time spent
   waiting for a core on a shared machine would land on one side of a
   pair. *)
let telemetry_section ~quick ~max_telemetry_overhead_ns =
  let plan = Lazy.force cnc_plan in
  let off () = Result.get_ok (Solver.solve_acs ~plan ~power ()) in
  let on () =
    let sink = Telemetry.solve_sink ~label:"bench" () in
    (Result.get_ok (Solver.solve_acs ~telemetry:sink ~plan ~power ()), sink)
  in
  let off_s, on_s, (off_sched, off_stats), ((on_sched, on_stats), sink) =
    pairs ~clock:Sys.time ~k:(if quick then 41 else 81) off on
  in
  let records =
    Telemetry.sum_starts (fun s -> Telemetry.pushed s.Telemetry.s_ring) sink
  in
  let per_record off on = (on -. off) *. 1e9 /. float_of_int records in
  let overhead = spread (Array.map2 per_record off_s on_s) in
  let identical =
    Int64.bits_of_float off_stats.Solver.objective
    = Int64.bits_of_float on_stats.Solver.objective
    && bits off_sched = bits on_sched
  in
  Printf.printf
    "  telemetry (CNC ACS solve, %d pairs, CPU time): %s ns per record (%d records)\n%!"
    (Array.length off_s) (show overhead) records;
  check identical "solver results differ with telemetry enabled";
  Option.iter
    (fun budget ->
      check (overhead.median <= budget)
        "telemetry overhead %.1f ns/record exceeds the %.1f ns budget" overhead.median
        budget)
    max_telemetry_overhead_ns;
  ( "telemetry",
    Obj
      [ ("plan", Str "CNC (32 subs), ACS solve"); ("pairs", Int (Array.length off_s));
        ("records", Int records); ("off_cpu_s", times_json off_s);
        ("on_cpu_s", times_json on_s);
        ("overhead_ns_per_record", spread_json overhead);
        ("bit_identical", Bool identical) ] )

(* ----- entry point ------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let rec value flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> value flag rest
    | [] -> None
  in
  let float_flag flag = Option.map float_of_string (value flag args) in
  let quick = List.mem "--quick" args in
  Printf.printf "=== Solver benchmark (%d core(s)%s) ===\n%!" cores
    (if quick then ", quick" else "");
  let kernels = kernel_section ~quick in
  let parallel =
    parallel_section ~quick ~min_vs_sequential:(float_flag "--min-vs-sequential")
  in
  let continuation =
    continuation_row ~quick ~min_warm_speedup:(float_flag "--min-warm-speedup")
  in
  let work = work_section ~quick in
  let telemetry =
    telemetry_section ~quick
      ~max_telemetry_overhead_ns:(float_flag "--max-telemetry-overhead-ns")
  in
  Option.iter
    (fun path ->
      let b = Buffer.create 4096 in
      emit b 0
        (Obj
           [ ("schema", Str "lepts-bench-solver/11"); ("quick", Bool quick);
             ("cores", Int cores); kernels; parallel;
             ("warm_start", Obj [ ("continuation", continuation) ]);
             work; telemetry ]);
      Buffer.add_char b '\n';
      Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
      Printf.printf "wrote %s\n%!" path)
    (value "--json" args);
  if !failures <> [] then begin
    List.iter (fun s -> Printf.eprintf "FAIL: %s\n%!" s) (List.rev !failures);
    exit 1
  end
