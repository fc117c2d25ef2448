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

(* Checkpoint codec for one set's measurement: absent (generation or
   solve failed) or the full Improvement record, floats bit-exact. *)
let set_fields = function
  | None -> [ "none" ]
  | Some (r : Improvement.t) ->
    [ "ok";
      Checkpoint.float_field r.Improvement.wcs_energy;
      Checkpoint.float_field r.Improvement.acs_energy;
      Checkpoint.float_field r.Improvement.improvement_pct;
      string_of_int r.Improvement.wcs_misses;
      string_of_int r.Improvement.acs_misses;
      string_of_int r.Improvement.sub_instances ]

let set_of_fields = function
  | [ "none" ] -> None
  | [ "ok"; we; ae; imp; wm; am; subs ] ->
    Some
      { Improvement.wcs_energy = Checkpoint.float_of_field we;
        acs_energy = Checkpoint.float_of_field ae;
        improvement_pct = Checkpoint.float_of_field imp;
        wcs_misses = int_of_string wm; acs_misses = int_of_string am;
        sub_instances = int_of_string subs }
  | fields ->
    failwith
      (Printf.sprintf "Fig6a: set entry has %d fields" (List.length fields))

let run_point ?(jobs = 1) ?(warm_start = false) ?telemetry ?checkpoint ?should_stop
    config ~power ~n_tasks ~ratio =
  Lepts_obs.Span.with_ ~name:"fig6a:point" @@ fun () ->
  (* Pool workers open their spans with the point's path as explicit
     parent, so the merged span tree is identical for every [jobs]. *)
  let span_parent =
    match Lepts_obs.Span.current () with Some p -> p | None -> ""
  in
  (* Task sets are independent (per-set seeds), so the whole
     generate → solve → simulate pipeline of each set can run on its
     own domain; results come back indexed by set, and the reduction
     below walks them in set order — bit-identical for every [jobs].
     Each measurement gets the same [jobs]: on a pool worker its solves
     and rounds run sequentially, so only a set that runs alone (a
     one-set point, or a lone set left for the last checkpoint chunk)
     spreads them over the domains. *)
  let one_set set =
    Lepts_obs.Span.with_ ~parent:span_parent ~name:"set" @@ fun () ->
    (* One generator stream per (n, ratio, set) triple so points are
       independent and reproducible. *)
    let gen_seed =
      config.seed + (1_000_000 * n_tasks) + (10_000 * int_of_float (ratio *. 100.))
      + set
    in
    let rng = Rng.create ~seed:gen_seed in
    let gen_config = Random_gen.default_config ~n_tasks ~ratio in
    match Random_gen.generate gen_config ~power ~rng with
    | Error _ -> None
    | Ok task_set -> (
      match
        Improvement.measure ~rounds:config.rounds ~jobs ~warm_start ?telemetry
          ~telemetry_tag:
            (Printf.sprintf "fig6a:n%d:r%.1f:set%d" n_tasks ratio set)
          ~task_set ~power ~sim_seed:(gen_seed + 7919) ()
      with
      | Error _ -> None
      | Ok r -> Some r)
  in
  (* Sets flow through the checkpointable driver, one section per
     (task count, ratio) point so keys never collide across points.
     [chunk:jobs] runs one set per domain and saves after each such
     round — a set is the expensive unit here (generate + two NLP
     solves + simulations), so a crash loses at most [jobs] sets. *)
  let results =
    Checkpoint.map_indices ?session:checkpoint ?should_stop ~chunk:jobs
      ~section:(Printf.sprintf "set:n%d:r%g" n_tasks ratio)
      ~encode:set_fields ~decode:set_of_fields ~jobs ~n:config.sets_per_point
      ~f:one_set ()
  in
  let measured = List.filter_map Fun.id (Array.to_list results) in
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

let run ?(progress = fun _ -> ()) ?(jobs = 1) ?(warm_start = false) ?telemetry
    ?checkpoint ?should_stop config ~power =
  List.concat_map
    (fun n_tasks ->
      List.map
        (fun ratio ->
          let point =
            run_point ~jobs ~warm_start ?telemetry ?checkpoint
              ?should_stop config ~power ~n_tasks ~ratio
          in
          progress
            (Printf.sprintf "fig6a: n=%d ratio=%.1f -> %.1f%% (%d sets)" n_tasks
               ratio point.mean_improvement_pct point.sets_measured);
          point)
        config.ratios)
    config.task_counts

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
