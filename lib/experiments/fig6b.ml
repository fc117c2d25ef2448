type config = { ratios : float list; rounds : int; seed : int; include_gap : bool }

let paper_config = { ratios = [ 0.1; 0.5; 0.9 ]; rounds = 1000; seed = 2005; include_gap = true }
let quick_config = { paper_config with rounds = 100 }

type point = {
  application : string;
  ratio : float;
  improvement_pct : float;
  misses : int;
}

let applications config =
  ("CNC", fun ~power ~ratio -> Lepts_workloads.Cnc.task_set ~power ~ratio ())
  ::
  (if config.include_gap then
     [ ("GAP", fun ~power ~ratio -> Lepts_workloads.Gap.task_set ~power ~ratio ()) ]
   else [])

(* Checkpoint codec for one (application, ratio) cell: absent when the
   solver failed, otherwise the full point. Application names are
   whitespace-free, so they are valid entry fields as-is. *)
let point_fields = function
  | None -> [ "none" ]
  | Some p ->
    [ "ok"; p.application;
      Lepts_robust.Checkpoint.float_field p.ratio;
      Lepts_robust.Checkpoint.float_field p.improvement_pct;
      string_of_int p.misses ]

let point_of_fields = function
  | [ "none" ] -> None
  | [ "ok"; application; ratio; imp; misses ] ->
    Some
      { application;
        ratio = Lepts_robust.Checkpoint.float_of_field ratio;
        improvement_pct = Lepts_robust.Checkpoint.float_of_field imp;
        misses = int_of_string misses }
  | fields ->
    failwith
      (Printf.sprintf "Fig6b: point entry has %d fields" (List.length fields))

let run ?(progress = fun _ -> ()) ?(jobs = 1) ?telemetry ?checkpoint ?should_stop
    config ~power =
  (* Few points here (two applications, three ratios): parallelism
     lives inside each measurement, across its simulation rounds — the
     cell map itself stays sequential. Cells flow through the
     checkpoint driver (one cell per chunk), and progress lines are
     emitted only after the map completes, so a resumed run's stdout
     is byte-identical to an uninterrupted one's. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun (name, build) ->
           List.map (fun ratio -> (name, build, ratio)) config.ratios)
         (applications config))
  in
  let one i =
    let name, build, ratio = cells.(i) in
    Lepts_obs.Span.with_ ~name:"fig6b:point" @@ fun () ->
    let task_set = build ~power ~ratio in
    match
      Improvement.measure ~rounds:config.rounds ~jobs ?telemetry
        ~telemetry_tag:(Printf.sprintf "fig6b:%s:r%.1f" name ratio)
        ~task_set ~power
        ~sim_seed:(config.seed + int_of_float (ratio *. 1000.)) ()
    with
    | Error _ -> None
    | Ok r ->
      Some
        { application = name; ratio;
          improvement_pct = r.Improvement.improvement_pct;
          misses = r.Improvement.wcs_misses + r.Improvement.acs_misses }
  in
  let results =
    Lepts_robust.Checkpoint.map_indices ?session:checkpoint ?should_stop
      ~chunk:1 ~section:"point" ~encode:point_fields ~decode:point_of_fields
      ~jobs:1 ~n:(Array.length cells) ~f:one ()
  in
  Array.iteri
    (fun i res ->
      let name, _, ratio = cells.(i) in
      match res with
      | None ->
        progress
          (Printf.sprintf "fig6b: %s ratio=%.1f -> solver failed" name ratio)
      | Some p ->
        progress
          (Printf.sprintf "fig6b: %s ratio=%.1f -> %.1f%%" name ratio
             p.improvement_pct))
    results;
  List.filter_map Fun.id (Array.to_list results)

let to_table points =
  let table =
    Lepts_util.Table.create ~header:[ "application"; "BCEC/WCEC"; "improvement"; "misses" ]
  in
  List.iter
    (fun p ->
      Lepts_util.Table.add_row table
        [ p.application;
          Lepts_util.Table.float_cell ~decimals:1 p.ratio;
          Lepts_util.Table.percent_cell p.improvement_pct;
          string_of_int p.misses ])
    points;
  table
