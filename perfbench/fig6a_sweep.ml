(* fig6a-sweep: the paper's Fig 6(a) grid through Fig6a.run on a pool
   of two domains. Many small plans split the work between the WCS and
   ACS solves, literal refinement and the Monte-Carlo simulator, and it
   is the only workload in which the domain pool fans out.

   The grid keeps Fig6a.run's own seeding (2005): its set 0 at (n=4,
   ratio 0.1) is one whose WCS schedule fails Validate.check and whose
   ACS solve then stalls. Fig6a.run drops such sets silently and does
   not expose its schedules, so every run also makes the same public
   calls as Fig6a.run, set by set (the replica below), checks that they
   reproduce its points bit for bit, and counts a set as failed when it
   is dropped, misses a deadline or returns a schedule Validate.check
   rejects. *)

open Common
module Fig6a = Lepts_experiments.Fig6a
module Plan = Lepts_preempt.Plan
module Pool = Lepts_par.Pool
module Rng = Lepts_prng.Xoshiro256
module Random_gen = Lepts_workloads.Random_gen
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Validate = Lepts_core.Validate
module Runner = Lepts_sim.Runner

let jobs = 2

let config =
  { Fig6a.task_counts = [ 2; 4; 6; 8; 10 ]; ratios = [ 0.1; 0.5; 0.9 ];
    sets_per_point = 2; rounds = 100; seed = 2005 }

let grid =
  List.concat_map
    (fun n -> List.map (fun r -> (n, r)) config.Fig6a.ratios)
    config.Fig6a.task_counts

let sets_per_pass = List.length grid * config.Fig6a.sets_per_point

(* Fig6a's per-set generator seed. *)
let gen_seed ~n_tasks ~ratio set =
  config.Fig6a.seed + (1_000_000 * n_tasks)
  + (10_000 * int_of_float (ratio *. 100.))
  + set

let generate ~n_tasks ~ratio set =
  let rng = Rng.create ~seed:(gen_seed ~n_tasks ~ratio set) in
  Random_gen.generate (Random_gen.default_config ~n_tasks ~ratio) ~power ~rng

(* Set-up a user of the sweep pays before the first set solves:
   generating and expanding every task set of the grid, and spawning
   the pool's worker domain. *)
let setup_once () =
  List.iter
    (fun (n_tasks, ratio) ->
      for set = 0 to config.Fig6a.sets_per_point - 1 do
        match generate ~n_tasks ~ratio set with
        | Ok ts -> ignore (Plan.expand ts)
        | Error _ -> ()
      done)
    grid;
  Pool.shutdown (Pool.create ~jobs)

let point_key (p : Fig6a.point) =
  ( p.Fig6a.n_tasks, p.Fig6a.ratio, bits p.Fig6a.mean_improvement_pct,
    bits p.Fig6a.stddev_improvement_pct, p.Fig6a.sets_measured,
    p.Fig6a.total_misses )

(* Dropped sets and sets with a deadline miss. A point reports only its
   miss total, so at most that many of its measured sets missed. *)
let failures points =
  List.fold_left
    (fun acc (p : Fig6a.point) ->
      acc
      + (config.Fig6a.sets_per_point - p.Fig6a.sets_measured)
      + min p.Fig6a.total_misses p.Fig6a.sets_measured)
    0 points

let quality points =
  let sum, n =
    List.fold_left
      (fun (s, n) (p : Fig6a.point) ->
        if p.Fig6a.sets_measured = 0 then (s, n)
        else
          ( s +. (p.Fig6a.mean_improvement_pct *. float_of_int p.Fig6a.sets_measured),
            n + p.Fig6a.sets_measured ))
      (0., 0) points
  in
  sum /. float_of_int n

(* One timed pass: the whole grid through Fig6a.run. Its progress
   callback fires after each point, when the pool is idle; it takes a
   set-up sample there, and the pass's time leaves those samples out. *)
let pass ~setup =
  let spent = ref 0. in
  let progress _ = spent := !spent +. Setup.take setup in
  let t0 = now () in
  let points = Fig6a.run ~jobs ~progress config ~power in
  (points, now () -. t0 -. !spent)

let run_passes ~setup ~seconds =
  (* The shared pool spawns on first use; spawn it before timing. *)
  ignore (Pool.shared ~jobs);
  settle ();
  let before = heap_mb () in
  let start = now () in
  let first = pass ~setup in
  let heap = heap_mb () in
  let rec go last acc =
    if another ~start ~seconds ~last then
      let ((_, wall) as p) = pass ~setup in
      go wall (p :: acc)
    else List.rev acc
  in
  (go (snd first) [ first ], before, heap)

let check_repeats passes =
  match passes with
  | [] -> assert false
  | (first, _) :: rest ->
    let key = List.map point_key first in
    List.iteri
      (fun i (points, _) ->
        if List.map point_key points <> key then
          check_failed "fig6a pass %d differs from pass 0" (i + 1))
      rest;
    (* A sub-grid re-run generates the same sets, so its points must
       match the full pass bit for bit even when only one pass fit. *)
    let sub =
      Fig6a.run ~jobs { config with Fig6a.task_counts = [ 2; 4 ]; ratios = [ 0.1 ] } ~power
    in
    List.iter
      (fun (p : Fig6a.point) ->
        match
          List.find_opt
            (fun (q : Fig6a.point) ->
              q.Fig6a.n_tasks = p.Fig6a.n_tasks && q.Fig6a.ratio = p.Fig6a.ratio)
            first
        with
        | Some q when point_key q = point_key p -> ()
        | _ ->
          check_failed "fig6a re-run of point n=%d ratio=%g differs" p.Fig6a.n_tasks
            p.Fig6a.ratio)
      sub;
    first

(* --- traced replica ---------------------------------------------------------- *)

(* Counts a set's replica makes, alongside its spans. *)
type counts = {
  mutable subs : int;
  mutable solver_calls : int;
  mutable outer : int;
  mutable inner : int;
  mutable literal_calls : int;
  mutable literal_wins : int;
  mutable validate_calls : int;
  mutable checked : int;  (** returned schedules the benchmark checked *)
  mutable validate_rejects : int;
  mutable worst_margin : float;
  mutable sim_rounds : int;
  mutable failed_sets : int;
}

let zero () =
  { subs = 0; solver_calls = 0; outer = 0; inner = 0; literal_calls = 0;
    literal_wins = 0; validate_calls = 0; checked = 0; validate_rejects = 0; worst_margin = 0.;
    sim_rounds = 0; failed_sets = 0 }

let add a b =
  a.subs <- a.subs + b.subs;
  a.solver_calls <- a.solver_calls + b.solver_calls;
  a.outer <- a.outer + b.outer;
  a.inner <- a.inner + b.inner;
  a.literal_calls <- a.literal_calls + b.literal_calls;
  a.literal_wins <- a.literal_wins + b.literal_wins;
  a.validate_calls <- a.validate_calls + b.validate_calls;
  a.checked <- a.checked + b.checked;
  a.validate_rejects <- a.validate_rejects + b.validate_rejects;
  a.worst_margin <- Float.max a.worst_margin b.worst_margin;
  a.sim_rounds <- a.sim_rounds + b.sim_rounds;
  a.failed_sets <- a.failed_sets + b.failed_sets

(* One set, making Improvement.measure's public calls in its order
   (Fig6a's defaults: cold ACS multi-start, paper baseline, one solver
   job), each under a span. The benchmark adds one Validate.check of
   each returned schedule, the boundary check the library skips here,
   and the violation margin of each one it rejects. *)
let replica_set ~n_tasks ~ratio set =
  let r = Spans.create () and c = zero () in
  let id = Printf.sprintf "n%d:r%.1f:set%d" n_tasks ratio set in
  let span name f = Spans.with_ r ~name ~id f in
  let count_stats (st : Solver.stats) =
    c.solver_calls <- c.solver_calls + 1;
    c.outer <- c.outer + st.Solver.outer_iterations;
    c.inner <- c.inner + st.Solver.inner_iterations
  in
  let check schedule =
    let valid =
      span "validate" (fun () ->
          c.validate_calls <- c.validate_calls + 1;
          c.checked <- c.checked + 1;
          Result.is_ok (Validate.check schedule))
    in
    if not valid then begin
      c.validate_rejects <- c.validate_rejects + 1;
      let margin = span "check" (fun () -> violation_margin schedule) in
      c.worst_margin <- Float.max c.worst_margin margin
    end
  in
  let refine ~mode ~plan best =
    if Plan.size plan > 120 then best
    else
      match span "literal" (fun () -> Lepts_core.Literal_nlp.solve ~mode ~plan ~power ()) with
      | Error _ ->
        c.literal_calls <- c.literal_calls + 1;
        best
      | Ok (candidate, _) ->
        c.literal_calls <- c.literal_calls + 1;
        if
          Static_schedule.predicted_energy candidate ~mode
          < Static_schedule.predicted_energy best ~mode
          && span "validate" (fun () ->
                 c.validate_calls <- c.validate_calls + 1;
                 Validate.is_feasible candidate)
        then begin
          c.literal_wins <- c.literal_wins + 1;
          candidate
        end
        else best
  in
  let simulate ~sim_seed schedule =
    span "sim" (fun () ->
        let rng = Rng.create ~seed:sim_seed in
        let results =
          Array.init config.Fig6a.rounds (fun round ->
              Runner.round ~schedule ~policy:Lepts_dvs.Policy.Greedy ~rng ~round ())
        in
        c.sim_rounds <- c.sim_rounds + config.Fig6a.rounds;
        let summary = Runner.summarize results in
        Runner.record_metrics summary;
        summary)
  in
  let result =
    span "set" (fun () ->
        let seed = gen_seed ~n_tasks ~ratio set in
        match span "workloads.generate" (fun () -> generate ~n_tasks ~ratio set) with
        | Error _ -> None
        | Ok task_set -> (
          let plan = span "preempt.expand" (fun () -> Plan.expand task_set) in
          c.subs <- Plan.size plan;
          match span "solver.wcs" (fun () -> Solver.solve_wcs ~jobs:1 ~plan ~power ()) with
          | Error _ -> None
          | Ok (wcs, st) -> (
            count_stats st;
            let wcs = refine ~mode:Lepts_core.Objective.Worst ~plan wcs in
            check wcs;
            let warm = [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ] in
            match
              span "solver.acs" (fun () ->
                  Solver.solve_acs ~jobs:1 ~warm_starts:warm ~plan ~power ())
            with
            | Error _ -> None
            | Ok (acs, st) ->
              count_stats st;
              let acs = refine ~mode:Lepts_core.Objective.Average ~plan acs in
              check acs;
              let sw = simulate ~sim_seed:(seed + 7919) wcs in
              let sa = simulate ~sim_seed:(seed + 7919) acs in
              Some
                ( 100. *. (sw.Runner.mean_energy -. sa.Runner.mean_energy)
                  /. sw.Runner.mean_energy,
                  sw.Runner.deadline_misses + sa.Runner.deadline_misses ))))
  in
  (match result with
  | Some (_, 0) when c.validate_rejects = 0 -> ()
  | _ -> c.failed_sets <- 1);
  (result, r, c)

(* Fig6a's point reduction over the replica's sets. *)
let replica_point ~n_tasks ~ratio results =
  let measured = List.filter_map Fun.id results in
  let arr = Array.of_list (List.map fst measured) in
  { Fig6a.n_tasks; ratio;
    mean_improvement_pct =
      (if Array.length arr = 0 then Float.nan else Lepts_util.Stats.mean arr);
    stddev_improvement_pct =
      (if Array.length arr < 2 then 0. else Lepts_util.Stats.stddev arr);
    sets_measured = Array.length arr;
    total_misses = List.fold_left (fun a (_, m) -> a + m) 0 measured }

(* The whole grid through the replica, one point after another, each
   point's sets on the pool. With [root], every set's spans are grafted
   under one "pass" span; [between] runs after each point. *)
type replica = {
  points : Fig6a.point list;
  totals : counts;
  busy : float;  (** pool domain-seconds spent in sets *)
  capacity : float;  (** pool domain-seconds while it ran the points *)
  wall : float;
}

let replica_pass ?root ~between () =
  let totals = zero () and busy = ref 0. and capacity = ref 0. in
  let one (n_tasks, ratio) =
    let sets, stats =
      Pool.run ~jobs ~n:config.Fig6a.sets_per_point ~f:(fun set ->
          replica_set ~n_tasks ~ratio set)
    in
    busy := !busy +. Array.fold_left ( +. ) 0. stats.Pool.per_domain_busy_s;
    capacity := !capacity +. (stats.Pool.elapsed_s *. float_of_int stats.Pool.jobs);
    Array.iter
      (fun (_, r, c) ->
        Option.iter (fun root -> Spans.adopt root r) root;
        add totals c)
      sets;
    between ();
    replica_point ~n_tasks ~ratio (Array.to_list (Array.map (fun (x, _, _) -> x) sets))
  in
  let all () = List.map one grid in
  let points, wall =
    time (fun () ->
        match root with
        | Some root -> Spans.with_ root ~name:"pass" all
        | None -> all ())
  in
  if totals.worst_margin > gross_margin then
    check_failed "a fig6a schedule breaks a bound by more than %g" gross_margin;
  { points; totals; busy = !busy; capacity = !capacity; wall }

(* The timed passes, their output checks, then one replica pass: it
   takes set-up samples between its points in the untraced run and
   records spans in the traced one. Failures are the replica's when it
   reproduces the timed pass, else what Fig6a.run's points expose. *)
let measure ?root ~seconds ~out () =
  let setup = Setup.create ~workload:"fig6a-sweep" ~out in
  let passes, before, heap = run_passes ~setup ~seconds in
  let points = check_repeats passes in
  let between () = if root = None then ignore (Setup.take setup) in
  let rep = replica_pass ?root ~between () in
  let faithful = List.map point_key rep.points = List.map point_key points in
  let n_passes = List.length passes in
  let walls = List.map snd passes in
  let per_pass = if faithful then rep.totals.failed_sets else failures points in
  let t = rep.totals in
  let setup_s = Setup.median setup in
  ( { correct = true;
      attempted = n_passes * sets_per_pass;
      failed = n_passes * per_pass;
      metrics =
        [ ("setup_s", setup_s, "s");
          ("throughput_per_s", float_of_int sets_per_pass /. median walls, "1/s");
          ("latency_ms", 1000. *. median walls, "ms");
          ("quality_pct", quality points, "%");
          ("heap_mb", heap, "MB") ];
      notes =
        [ Printf.sprintf "fig6a: %d pass(es) of %d sets (%d per point, %d rounds), -j %d"
            n_passes sets_per_pass config.Fig6a.sets_per_point config.Fig6a.rounds jobs;
          Printf.sprintf "latency_ms: median grid makespan of %d pass(es)" n_passes;
          (if faithful then
             Printf.sprintf
               "validate: %d of %d returned schedules rejected (worst margin %.3g; run fails \
                past %g); %d of %d sets failed"
               t.validate_rejects t.checked t.worst_margin
               gross_margin per_pass sets_per_pass
           else
             "validate: STALE replica; failures counted from Fig6a.run's points (dropped sets \
              and misses) only");
          Setup.note setup;
          heap_note ~before ~after:heap ] },
    List.map (fun w -> w *. 1000.) walls,
    rep,
    faithful,
    median walls )

let traced ~out =
  let root = Spans.create () in
  let untraced, _, rep, faithful, untraced_wall = measure ~root ~seconds:0. ~out () in
  let totals = rep.totals and wall = rep.wall in
  let self = Spans.self root in
  (* Sets run on [jobs] domains at once, so the account is kept in
     domain-seconds: the pass's wall time times the pool size. Layer
     self times inside sets plus the pool's idle share are attributed;
     the sets' own self time is not. *)
  let capacity = wall *. float_of_int jobs in
  let set_total = Spans.total root "set" in
  let layers =
    [ "workloads.generate"; "preempt.expand"; "solver.wcs"; "solver.acs"; "literal";
      "validate"; "check"; "sim" ]
  in
  let attributed =
    List.fold_left (fun a l -> a +. self l) 0. layers +. (capacity -. set_total)
  in
  let solve_s = self "solver.wcs" +. self "solver.acs" in
  let per_layer =
    [ ("workloads.generate_s", self "workloads.generate");
      ("preempt.expand_s", self "preempt.expand");
      ("preempt.subs", float_of_int totals.subs);
      ("solver.wcs_s", self "solver.wcs");
      ("solver.acs_s", self "solver.acs");
      ("solver.calls", float_of_int totals.solver_calls);
      ("solver.outer", float_of_int totals.outer);
      ("solver.inner", float_of_int totals.inner);
      ("solver.inner_per_s", float_of_int totals.inner /. solve_s);
      ("literal.s", self "literal");
      ("literal.calls", float_of_int totals.literal_calls);
      ("literal.wins", float_of_int totals.literal_wins);
      ("validate.s", self "validate");
      ("validate.calls", float_of_int totals.validate_calls);
      ("validate.rejects", float_of_int totals.validate_rejects);
      ("validate.worst_margin", totals.worst_margin);
      ("sim.s", self "sim");
      ("sim.rounds", float_of_int totals.sim_rounds);
      ("sim.rounds_per_s", float_of_int totals.sim_rounds /. self "sim");
      ("pool.busy_s", rep.busy);
      ("pool.utilization_pct", 100. *. rep.busy /. rep.capacity);
      ("trace.unattributed_pct", 100. *. (capacity -. attributed) /. capacity);
      ("trace.overhead_pct", 100. *. (wall -. untraced_wall) /. untraced_wall) ]
  in
  (untraced, root, per_layer, faithful)
