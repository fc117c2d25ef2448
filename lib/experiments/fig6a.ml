module Rng = Lepts_prng.Xoshiro256
module Random_gen = Lepts_workloads.Random_gen
module Checkpoint = Lepts_robust.Checkpoint

type config = {
  task_counts : int list;
  ratios : float list;
  sets_per_point : int;
  rounds : int;
  seed : int;
}

let paper_config =
  { task_counts = [ 2; 4; 6; 8; 10 ]; ratios = [ 0.1; 0.5; 0.9 ];
    sets_per_point = 100; rounds = 1000; seed = 2005 }

let quick_config = { paper_config with sets_per_point = 3; rounds = 200 }

type point = {
  n_tasks : int;
  ratio : float;
  mean_improvement_pct : float;
  stddev_improvement_pct : float;
  sets_measured : int;
  total_misses : int;
}

let log_src = Logs.Src.create "lepts.experiments.fig6a" ~doc:"Fig 6(a) sweep"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Checkpoint codec for one set's measurement: dropped (generation or
   solve failed) or the full Improvement record, floats bit-exact. The
   entry records a drop, not its cause, so a drop read back says only
   when it happened. *)
let set_fields = function
  | Error _ -> [ "none" ]
  | Ok (r : Improvement.t) ->
    [ "ok";
      Checkpoint.float_field r.Improvement.wcs_energy;
      Checkpoint.float_field r.Improvement.acs_energy;
      Checkpoint.float_field r.Improvement.improvement_pct;
      string_of_int r.Improvement.wcs_misses;
      string_of_int r.Improvement.acs_misses;
      string_of_int r.Improvement.sub_instances ]

let set_of_fields = function
  | [ "none" ] -> Error "dropped in an earlier session"
  | [ "ok"; we; ae; imp; wm; am; subs ] ->
    Ok
      { Improvement.wcs_energy = Checkpoint.float_of_field we;
        acs_energy = Checkpoint.float_of_field ae;
        improvement_pct = Checkpoint.float_of_field imp;
        wcs_misses = int_of_string wm; acs_misses = int_of_string am;
        sub_instances = int_of_string subs }
  | fields ->
    failwith
      (Printf.sprintf "Fig6a: set entry has %d fields" (List.length fields))

(* One set: generate → solve → simulate, from seeds that depend only on
   its (task count, ratio, set) triple, so sets are independent and
   reproducible whichever domain runs them and in whatever order. *)
let measure_set ~jobs ?telemetry config ~power ~n_tasks ~ratio set =
  let gen_seed =
    config.seed + (1_000_000 * n_tasks) + (10_000 * int_of_float (ratio *. 100.)) + set
  in
  let rng = Rng.create ~seed:gen_seed in
  let gen_config = Random_gen.default_config ~n_tasks ~ratio in
  match Random_gen.generate gen_config ~power ~rng with
  | Error msg -> Error ("generation failed: " ^ msg)
  | Ok task_set ->
    Result.map_error (Format.asprintf "%a" Lepts_core.Solver.pp_error)
      (Improvement.measure ~rounds:config.rounds ~jobs ?telemetry
         ~telemetry_tag:(Printf.sprintf "fig6a:n%d:r%.1f:set%d" n_tasks ratio set)
         ~task_set ~power ~sim_seed:(gen_seed + 7919) ())

(* A point's reduction over its sets, in set order. *)
let reduce ~n_tasks ~ratio sets =
  let measured = List.filter_map Result.to_option (Array.to_list sets) in
  let arr = Array.of_list (List.map (fun r -> r.Improvement.improvement_pct) measured) in
  let misses =
    List.fold_left
      (fun acc r -> acc + r.Improvement.wcs_misses + r.Improvement.acs_misses)
      0 measured
  in
  { n_tasks; ratio;
    mean_improvement_pct = (if Array.length arr = 0 then Float.nan else Lepts_util.Stats.mean arr);
    stddev_improvement_pct = (if Array.length arr < 2 then 0. else Lepts_util.Stats.stddev arr);
    sets_measured = Array.length arr;
    total_misses = misses }

let run ?(progress = fun _ -> ()) ?(jobs = 1) ?telemetry ?checkpoint ?should_stop
    config ~power =
  let points =
    Array.of_list
      (List.concat_map
         (fun n -> List.map (fun r -> (n, r)) config.ratios)
         config.task_counts)
  in
  let sets = config.sets_per_point in
  (* Cell [p * sets + set] is set [set] of point [p] in config order.
     The batch runs the cells largest task count first (ratios and sets
     in config order), the longest-processing-time rule: the costly
     sets start early and the cheap ones fill the domains at the end,
     so no domain waits at a point boundary. *)
  let order =
    List.init (Array.length points) Fun.id
    |> List.stable_sort (fun p q -> Int.compare (fst points.(q)) (fst points.(p)))
    |> List.concat_map (fun p -> List.init sets (fun set -> (p * sets) + set))
    |> Array.of_list
  in
  let results =
    Lepts_obs.Span.with_ ~name:"fig6a:grid" @@ fun () ->
    (* Pool workers open their spans with the grid's path as explicit
       parent, so the merged span tree is identical for every [jobs]. *)
    let span_parent =
      match Lepts_obs.Span.current () with Some p -> p | None -> ""
    in
    let one i =
      Lepts_obs.Span.with_ ~parent:span_parent ~name:"set" @@ fun () ->
      let c = order.(i) in
      let n_tasks, ratio = points.(c / sets) in
      measure_set ~jobs ?telemetry config ~power ~n_tasks ~ratio (c mod sets)
    in
    (* Each measurement gets the same [jobs]: on a pool worker its
       solves and rounds run sequentially, so only a cell that runs
       alone (a one-cell grid, or a lone cell left for the last
       checkpoint chunk) spreads them over the domains. [chunk:jobs]
       saves after every [jobs] cells — a set is the expensive unit
       here, so a crash loses at most [jobs] sets. *)
    Checkpoint.map_indices ?session:checkpoint ?should_stop ~chunk:jobs ~section:"set"
      ~encode:set_fields ~decode:set_of_fields ~jobs ~n:(Array.length order) ~f:one ()
  in
  (* [order] is a permutation, so every slot of the copy is rewritten. *)
  let by_cell = Array.copy results in
  Array.iteri (fun i r -> by_cell.(order.(i)) <- r) results;
  List.mapi
    (fun p (n_tasks, ratio) ->
      let cells = Array.sub by_cell (p * sets) sets in
      Array.iteri
        (fun set -> function
          | Ok _ -> ()
          | Error e ->
            Log.warn (fun m ->
                m "fig6a: dropped set %d at n=%d ratio=%.1f: %s" set n_tasks ratio e))
        cells;
      let point = reduce ~n_tasks ~ratio cells in
      progress
        (Printf.sprintf "fig6a: n=%d ratio=%.1f -> %.1f%% (%d sets)" n_tasks ratio
           point.mean_improvement_pct point.sets_measured);
      point)
    (Array.to_list points)

let to_table points =
  let table =
    Lepts_util.Table.create
      ~header:[ "tasks"; "BCEC/WCEC"; "improvement"; "stddev"; "sets"; "misses" ]
  in
  List.iter
    (fun p ->
      Lepts_util.Table.add_row table
        [ string_of_int p.n_tasks;
          Lepts_util.Table.float_cell ~decimals:1 p.ratio;
          Lepts_util.Table.percent_cell p.mean_improvement_pct;
          Lepts_util.Table.percent_cell p.stddev_improvement_pct;
          string_of_int p.sets_measured;
          string_of_int p.total_misses ])
    points;
  table
