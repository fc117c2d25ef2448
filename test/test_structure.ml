(* The structure-exploiting kernels — flat block projection,
   incremental forward sweeps, pruned penalty/multiplier/adjoint loops
   — must be bit-identical to the dense reference in [Reference], at
   every level from a single projection to a full multi-start solve
   (DESIGN.md §12). *)

open Lepts_core
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Projection = Lepts_optim.Projection
module Pg = Lepts_optim.Projected_gradient
module Rng = Lepts_prng.Xoshiro256

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let check_bits_arr msg (expect : float array) (got : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float got.(i)))
      then Alcotest.failf "%s.(%d): %h <> %h" msg i x got.(i))
    expect

(* --- projection kernels ------------------------------------------------- *)

let sizes = [ 1; 2; 3; 4; 7; 16; 17; 31; 32; 33; 64; 88; 200; 255; 256; 257; 300; 512 ]

(* Random inputs plus the adversarial shapes: heavy ties (the sort
   order is only unique up to ties), negatives (clipped coordinates),
   all zeros, and a zero total. *)
let projection_inputs rng n =
  let random = Array.init n (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:5.) in
  let ties =
    Array.init n (fun _ -> float_of_int (Rng.int rng ~bound:4) /. 2.)
  in
  [ (random, 3.5); (random, 0.); (ties, 2.25); (Array.make n 0., 1.) ]

let test_fast_projection_bit_identical () =
  let rng = Rng.create ~seed:41 in
  List.iter
    (fun n ->
      List.iter
        (fun (x, total) ->
          let reference = Array.copy x in
          Reference.simplex_ip ~total ~scratch:(Array.make n 0.) reference;
          let fast = Array.copy x in
          (* Deliberately oversized buffers: the fast kernel projects a
             prefix of a shared max-length allocation. *)
          let fast_buf = Array.make (n + 3) nan in
          Array.blit fast 0 fast_buf 0 n;
          Projection.simplex_fast_ip ~total ~scratch:(Array.make (n + 3) nan)
            ~n fast_buf;
          check_bits_arr
            (Printf.sprintf "fast projection n=%d total=%g" n total)
            reference (Array.sub fast_buf 0 n))
        (projection_inputs rng n))
    sizes

(* --- workspace block index ---------------------------------------------- *)

let test_block_index_matches_plan () =
  let plans =
    [ Plan.expand (Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 ());
      (let rng = Rng.create ~seed:105 in
       Plan.expand
         (Result.get_ok
            (Lepts_workloads.Random_gen.generate
               (Lepts_workloads.Random_gen.default_config ~n_tasks:5 ~ratio:0.3)
               ~power ~rng))) ]
  in
  List.iter
    (fun plan ->
      let ws = Workspace.create plan in
      let m = Plan.size plan in
      Alcotest.(check int) "offsets span m" m ws.Workspace.blk_off.(ws.Workspace.n_blocks);
      (* The flat index must list every instance's sub-instances
         contiguously, in (task, instance) order, tagged with the
         owning task — exactly the simplex constraints of the NLP. *)
      let b = ref 0 in
      Array.iteri
        (fun i per ->
          Array.iter
            (fun subs ->
              let off = ws.Workspace.blk_off.(!b) in
              Alcotest.(check int) "block length" (Array.length subs)
                (ws.Workspace.blk_off.(!b + 1) - off);
              Alcotest.(check int) "block task" i ws.Workspace.blk_task.(!b);
              Array.iteri
                (fun j k ->
                  Alcotest.(check int) "block element" k
                    ws.Workspace.blk_idx.(off + j))
                subs;
              incr b)
            per)
        plan.Plan.instance_subs;
      Alcotest.(check int) "every instance is a block" !b ws.Workspace.n_blocks;
      let seen = Array.make m false in
      Array.iter (fun k -> seen.(k) <- true) ws.Workspace.blk_idx;
      Alcotest.(check bool) "index is a permutation" true
        (Array.for_all Fun.id seen))
    plans

(* --- full solves --------------------------------------------------------- *)

(* Random task sets at several sizes and ratios; [max_sub_instances]
   keeps each solve fast enough for the suite. *)
let solve_fixtures =
  lazy
    (let rng = Rng.create ~seed:2026 in
     List.filter_map
       (fun (n, ratio) ->
         let config =
           { (Lepts_workloads.Random_gen.default_config ~n_tasks:n ~ratio) with
             Lepts_workloads.Random_gen.max_sub_instances = 150 }
         in
         match Lepts_workloads.Random_gen.generate config ~power ~rng with
         | Error _ -> None
         | Ok ts -> Some (Plan.expand ts))
       [ (2, 0.2); (3, 0.5); (4, 0.2); (5, 0.3) ])

let test_fast_solve_bit_identical () =
  List.iter
    (fun plan ->
      List.iter
        (fun mode ->
          let exact, exact_stats =
            Result.get_ok (Reference.solve ~mode ~plan ~power ())
          in
          let fast, fast_stats = Result.get_ok (Solver.solve ~mode ~plan ~power ()) in
          check_bits_arr "end-times" exact.Static_schedule.end_times
            fast.Static_schedule.end_times;
          check_bits_arr "quotas" exact.Static_schedule.quotas
            fast.Static_schedule.quotas;
          check_bits_arr "objective" [| exact_stats.Solver.objective |]
            [| fast_stats.Solver.objective |];
          Alcotest.(check int) "outer rounds" exact_stats.Solver.outer_iterations
            fast_stats.Solver.outer_iterations;
          Alcotest.(check int) "inner iterations" exact_stats.Solver.inner_iterations
            fast_stats.Solver.inner_iterations)
        [ Objective.Average; Objective.Worst ])
    (Lazy.force solve_fixtures)

let test_warm_fast_matches_warm_exact () =
  let plan = Plan.expand (Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 ()) in
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  let exact, exact_stats =
    Result.get_ok (Reference.solve_warm ~mode:Objective.Average ~prev:wcs ~plan ~power ())
  in
  let fast, fast_stats =
    Result.get_ok (Solver.solve_warm ~mode:Objective.Average ~prev:wcs ~plan ~power ())
  in
  check_bits_arr "warm end-times" exact.Static_schedule.end_times
    fast.Static_schedule.end_times;
  check_bits_arr "warm quotas" exact.Static_schedule.quotas
    fast.Static_schedule.quotas;
  check_bits_arr "warm objective" [| exact_stats.Solver.objective |]
    [| fast_stats.Solver.objective |];
  Alcotest.(check int) "warm outer rounds" exact_stats.Solver.outer_iterations
    fast_stats.Solver.outer_iterations

let test_budgeted_fast_solve_returns () =
  (* The coarsened wall-budget polling (one clock read per 32 inner
     iterations) must still latch: an already-expired budget returns the
     best repaired iterate instead of spinning. *)
  let plan = Plan.expand (Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 ()) in
  match Solver.solve_acs ~wall_budget:1e-9 ~plan ~power () with
  | Error e -> Alcotest.failf "budgeted fast solve failed: %a" Solver.pp_error e
  | Ok (schedule, _) ->
    Alcotest.(check bool) "feasible under expired budget" true
      (Validate.is_feasible schedule)

(* --- should_stop --------------------------------------------------------- *)

let quadratic_problem () =
  let f (x : float array) = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. x in
  let grad_into (x : float array) ~into =
    Array.iteri (fun i v -> into.(i) <- 2. *. v) x
  in
  let project_ip (_ : float array) = () in
  (f, grad_into, project_ip)

let test_should_stop_halts_descent () =
  let f, grad_into, project_ip = quadratic_problem () in
  let r =
    Pg.minimize_ws ~should_stop:(fun () -> true) ~f ~grad_into ~project_ip
      ~x0:[| 3.; -1. |] ()
  in
  Alcotest.(check int) "no iterations" 0 r.Pg.iterations;
  Alcotest.(check bool) "not converged" false r.Pg.converged;
  check_bits_arr "iterate untouched" [| 3.; -1. |] r.Pg.x

let test_should_stop_false_is_inert () =
  let f, grad_into, project_ip = quadratic_problem () in
  let run ?should_stop () =
    Pg.minimize_ws ?should_stop ~f ~grad_into ~project_ip ~x0:[| 3.; -1. |] ()
  in
  let plain = run () in
  let polled = run ~should_stop:(fun () -> false) () in
  Alcotest.(check int) "same iterations" plain.Pg.iterations polled.Pg.iterations;
  Alcotest.(check bool) "same convergence" plain.Pg.converged polled.Pg.converged;
  check_bits_arr "same minimiser" plain.Pg.x polled.Pg.x;
  check_bits_arr "same value" [| plain.Pg.value |] [| polled.Pg.value |]

let suite =
  [ ("fast projection bit-identical", `Quick, test_fast_projection_bit_identical);
    ("block index matches plan", `Quick, test_block_index_matches_plan);
    ("fast solve bit-identical to exact", `Slow, test_fast_solve_bit_identical);
    ("warm fast matches warm exact", `Quick, test_warm_fast_matches_warm_exact);
    ("budgeted fast solve returns", `Quick, test_budgeted_fast_solve_returns);
    ("should_stop halts descent", `Quick, test_should_stop_halts_descent);
    ("absent should_stop signal is inert", `Quick, test_should_stop_false_is_inert) ]
