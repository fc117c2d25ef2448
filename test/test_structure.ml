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
          (* A one-block index over a prefix of deliberately oversized
             buffers: the kernel must touch only the indexed
             coordinates. *)
          let fast_buf = Array.make (n + 3) nan in
          Array.blit x 0 fast_buf 0 n;
          Projection.simplex_blocks_ip ~off:[| 0; n |] ~idx:(Array.init n Fun.id)
            ~totals:[| total |] ~base:0 ~scratch:(Array.make (n + 3) nan) fast_buf;
          check_bits_arr
            (Printf.sprintf "fast projection n=%d total=%g" n total)
            reference (Array.sub fast_buf 0 n);
          Alcotest.(check bool) "tail untouched" true
            (Array.for_all Float.is_nan (Array.sub fast_buf n 3)))
        (projection_inputs rng n))
    sizes

(* Random block layouts over a shuffled index behind a base offset, as
   the solver (base 0) and the literal NLP (base m) use it: singletons,
   short and long blocks (one past the heapsort threshold), ties and
   zero totals. Every block must equal the dense reference on its own
   coordinates, and the coordinates before [base] must stay put. *)
let test_block_projection_bit_identical () =
  let rng = Rng.create ~seed:43 in
  List.iter
    (fun (lengths, base) ->
      let lengths = Array.of_list lengths in
      let n_blocks = Array.length lengths in
      let m = Array.fold_left ( + ) 0 lengths in
      let off = Array.make (n_blocks + 1) 0 in
      Array.iteri (fun b n -> off.(b + 1) <- off.(b) + n) lengths;
      (* Fisher-Yates shuffle of the coordinates. *)
      let idx = Array.init m Fun.id in
      for i = m - 1 downto 1 do
        let j = Rng.int rng ~bound:(i + 1) in
        let t = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- t
      done;
      let x =
        Array.init (base + m) (fun _ ->
            if Rng.int rng ~bound:3 = 0 then float_of_int (Rng.int rng ~bound:4) /. 2.
            else Rng.uniform rng ~lo:(-2.) ~hi:5.)
      in
      let totals =
        Array.init n_blocks (fun b ->
            if b mod 4 = 3 then 0. else Rng.uniform rng ~lo:0. ~hi:6.)
      in
      let got = Array.copy x in
      let longest = Array.fold_left max 1 lengths in
      Projection.simplex_blocks_ip ~off ~idx ~totals ~base
        ~scratch:(Array.make longest nan) got;
      check_bits_arr "prefix before base" (Array.sub x 0 base) (Array.sub got 0 base);
      for b = 0 to n_blocks - 1 do
        let coords = Array.init lengths.(b) (fun p -> base + idx.(off.(b) + p)) in
        let expect =
          Reference.simplex ~total:totals.(b) (Array.map (fun k -> x.(k)) coords)
        in
        check_bits_arr
          (Printf.sprintf "block %d (n=%d, total=%g)" b lengths.(b) totals.(b))
          expect
          (Array.map (fun k -> got.(k)) coords)
      done)
    [ ([ 1; 1; 1; 1 ], 0);
      ([ 3; 1; 2; 1; 5; 1; 1; 4 ], 0);
      ([ 1; 7; 300; 1; 2; 257; 1 ], 0);
      ([ 2; 1; 1; 9; 3 ], 11);
      ([ 1; 260; 4; 1 ], 5) ];
  let check_invalid name ~off ~idx ~totals ~base ~scratch x =
    Alcotest.check_raises name (Invalid_argument name) (fun () ->
        Projection.simplex_blocks_ip ~off ~idx ~totals ~base ~scratch x)
  in
  check_invalid "Projection.simplex_blocks_ip: negative total" ~off:[| 0; 2 |]
    ~idx:[| 0; 1 |] ~totals:[| -1. |] ~base:0 ~scratch:[| 0.; 0. |] [| 1.; 2. |];
  check_invalid "Projection.simplex_blocks_ip: empty block" ~off:[| 0; 0; 2 |]
    ~idx:[| 0; 1 |] ~totals:[| 1.; 1. |] ~base:0 ~scratch:[| 0.; 0. |] [| 1.; 2. |];
  check_invalid "Projection.simplex_blocks_ip: scratch shorter than a block"
    ~off:[| 0; 2 |] ~idx:[| 0; 1 |] ~totals:[| 1. |] ~base:0 ~scratch:[| 0. |]
    [| 1.; 2. |];
  check_invalid "Projection.simplex_blocks_ip: index exceeds buffer" ~off:[| 0; 2 |]
    ~idx:[| 0; 1 |] ~totals:[| 1. |] ~base:1 ~scratch:[| 0.; 0. |] [| 1.; 2. |];
  check_invalid "Projection.simplex_blocks_ip: fewer totals than blocks"
    ~off:[| 0; 1; 2 |] ~idx:[| 0; 1 |] ~totals:[| 1. |] ~base:0 ~scratch:[| 0. |]
    [| 1.; 2. |]

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

(* The multi-scenario objective: every scenario's waterfall split and
   adjoint must be its own, so the solver may reuse a split only for
   the scenario that made it. Pinned against the dense reference, which
   splits afresh at every evaluation, on the same sampled scenarios, on
   a preemptive plan and on CNC, cold and with a warm start. *)
let test_stochastic_solve_bit_identical () =
  let preemptive =
    Plan.expand
      (Lepts_task.Task_set.scale_wcec_to_utilization
         (Lepts_task.Task_set.create
            [ Lepts_task.Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
              Lepts_task.Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
              Lepts_task.Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
         ~power ~target:0.7)
  in
  let cnc = Plan.expand (Lepts_workloads.Cnc.task_set ~power ~ratio:0.3 ()) in
  List.iter
    (fun (plan, scenarios, seed, warm) ->
      let warm_starts =
        if not warm then []
        else
          let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
          [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]
      in
      let exact, exact_stats =
        Result.get_ok
          (Reference.solve_stochastic ~warm_starts ~scenarios ~seed ~plan ~power ())
      in
      let fast, fast_stats =
        Result.get_ok
          (Solver.solve_stochastic ~warm_starts ~scenarios ~seed ~plan ~power ())
      in
      let tag = Printf.sprintf "%d subs, %d scenarios" (Plan.size plan) scenarios in
      check_bits_arr (tag ^ " end-times") exact.Static_schedule.end_times
        fast.Static_schedule.end_times;
      check_bits_arr (tag ^ " quotas") exact.Static_schedule.quotas
        fast.Static_schedule.quotas;
      check_bits_arr (tag ^ " objective") [| exact_stats.Solver.objective |]
        [| fast_stats.Solver.objective |];
      Alcotest.(check int) (tag ^ " inner iterations") exact_stats.Solver.inner_iterations
        fast_stats.Solver.inner_iterations)
    [ (preemptive, 4, 9, false); (preemptive, 3, 2, true); (cnc, 2, 5, false);
      (cnc, 1, 7, false) ]

let test_budgeted_fast_solve_returns () =
  (* The coarsened wall-budget polling (one clock read per 32 inner
     iterations) must still latch: an already-expired budget returns the
     best repaired iterate instead of spinning. *)
  let plan = Plan.expand (Lepts_workloads.Cnc.task_set ~power ~ratio:0.1 ()) in
  match
    Solver.solve_acs
      ~budget:{ Solver.default_budget with wall_budget = Some 1e-9 }
      ~plan ~power ()
  with
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
    ("block projection bit-identical", `Quick, test_block_projection_bit_identical);
    ("block index matches plan", `Quick, test_block_index_matches_plan);
    ("fast solve bit-identical to exact", `Slow, test_fast_solve_bit_identical);
    ("warm fast matches warm exact", `Quick, test_warm_fast_matches_warm_exact);
    ("stochastic solve bit-identical", `Slow, test_stochastic_solve_bit_identical);
    ("budgeted fast solve returns", `Quick, test_budgeted_fast_solve_returns);
    ("should_stop halts descent", `Quick, test_should_stop_halts_descent);
    ("absent should_stop signal is inert", `Quick, test_should_stop_false_is_inert) ]
