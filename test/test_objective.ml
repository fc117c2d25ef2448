open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model

let power = Model.ideal ~v_min:1. ~v_max:4. ()

(* The motivational example: 3 equal-period tasks, WCEC 20, ACEC 10. *)
let motivation_plan () =
  Plan.expand
    (Task_set.create
       [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
         Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
         Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ])

let quotas3 = [| 20.; 20.; 20. |]

(* The production objective on a fresh workspace. *)
let eval ~plan ~power ~totals ~e ~w_hat =
  Objective.eval_ws (Workspace.create plan) ~power ~totals ~e ~w_hat

(* The production adjoint on a fresh workspace: [(energy, de, dw_hat)]. *)
let adjoint ~plan ~power ~totals ~e ~w_hat =
  let m = Plan.size plan in
  let de = Array.make m 0. and dwq = Array.make m 0. in
  let energy =
    Objective.eval_with_gradient_ws (Workspace.create plan) ~power ~totals ~e ~w_hat ~de ~dwq
  in
  (energy, de, dwq)

let test_wcs_schedule_average_energy () =
  (* WCS end-times 6.67/13.33/20 under greedy reclamation on the
     average workload: energies computed by hand in the paper's
     Fig 1(b) reconstruction (~159.4). *)
  let plan = motivation_plan () in
  let totals = Objective.instance_totals Objective.Average plan in
  let e = [| 20. /. 3.; 40. /. 3.; 20. |] in
  let energy = eval ~plan ~power ~totals ~e ~w_hat:quotas3 in
  (* task1: v = 20/6.667 = 3, E = 10*9 = 90, finishes at 10/3.
     task2: v = 20/(13.33-3.33) = 2, E = 40, finishes at 8.33.
     task3: v = 20/(20-8.33) = 1.714, E = 29.39. *)
  Alcotest.(check (float 0.1)) "Fig 1(b) energy" 159.39 energy

let test_acs_schedule_average_energy () =
  let plan = motivation_plan () in
  let totals = Objective.instance_totals Objective.Average plan in
  let energy = eval ~plan ~power ~totals ~e:[| 10.; 15.; 20. |] ~w_hat:quotas3 in
  (* All three tasks run at 2 V on 10 Mcycles: 3 * 40 = 120 (Fig 2). *)
  Alcotest.(check (float 1e-6)) "Fig 2 energy" 120. energy

let test_worst_case_energy () =
  let plan = motivation_plan () in
  let totals = Objective.instance_totals Objective.Worst plan in
  let wcs = eval ~plan ~power ~totals ~e:[| 20. /. 3.; 40. /. 3.; 20. |] ~w_hat:quotas3 in
  Alcotest.(check (float 1e-6)) "WCS worst = 3 * 20 * 9" 540. wcs;
  let acs = eval ~plan ~power ~totals ~e:[| 10.; 15.; 20. |] ~w_hat:quotas3 in
  (* 20*4 + 20*16 + 20*16 = 720 (Fig 1(c)). *)
  Alcotest.(check (float 1e-6)) "ACS worst" 720. acs

let test_trace_consistency () =
  let plan = motivation_plan () in
  let totals = Objective.instance_totals Objective.Average plan in
  let e = [| 10.; 15.; 20. |] in
  let tr = Reference.trace ~plan ~power ~totals ~e ~w_hat:quotas3 in
  Alcotest.(check (float 1e-9)) "energy matches eval_ws"
    (eval ~plan ~power ~totals ~e ~w_hat:quotas3)
    tr.Reference.energy;
  (* Greedy: each task starts when the previous finishes. *)
  Alcotest.(check (float 1e-9)) "t2 starts at t1 finish"
    tr.Reference.finish_times.(0) tr.Reference.start_times.(1);
  Alcotest.(check (float 1e-9)) "voltages 2V" 2. tr.Reference.voltages.(0)

let test_vmin_clamp () =
  (* Tiny average workload with a huge window: the voltage clamps at
     v_min, execution finishes early. *)
  let plan =
    Plan.expand
      (Task_set.create [ Task.create ~name:"t" ~period:100 ~wcec:1. ~acec:0.5 ~bcec:0. ])
  in
  let totals = Objective.instance_totals Objective.Average plan in
  (* 0.5 Mcycles at v_min = 1 V. *)
  Alcotest.(check (float 1e-12)) "priced at v_min" 0.5
    (eval ~plan ~power ~totals ~e:[| 100. |] ~w_hat:[| 1. |]);
  let tr = Reference.trace ~plan ~power ~totals ~e:[| 100. |] ~w_hat:[| 1. |] in
  Alcotest.(check (float 1e-9)) "clamped" power.Model.v_min tr.Reference.voltages.(0);
  Alcotest.(check bool) "finishes early" true (tr.Reference.finish_times.(0) < 100.)

let test_vmax_clamp_on_infeasible () =
  (* A window too small for the quota prices at v_max (bounded), like
     the runtime would behave; feasibility is the constraints' job. *)
  let plan =
    Plan.expand
      (Task_set.create [ Task.create ~name:"t" ~period:10 ~wcec:20. ~acec:20. ~bcec:0. ])
  in
  let totals = Objective.instance_totals Objective.Worst plan in
  let e = [| 1. |] in
  let energy = eval ~plan ~power ~totals ~e ~w_hat:[| 20. |] in
  Alcotest.(check (float 1e-6)) "priced at v_max" (20. *. 16.) energy

let test_zero_quota_skipped () =
  let plan = motivation_plan () in
  let totals = Objective.instance_totals Objective.Average plan in
  (* Give task2 zero quota: its ACEC cannot run, no energy charged for
     it, task3 starts after task1. *)
  let e = [| 10.; 15.; 20. |] and w_hat = [| 20.; 0.; 20. |] in
  (* t1 runs 10 at 2 V (40) and finishes at 5; t3 then stretches its
     quota over [5, 20] at 4/3 V: 10 * 16/9. *)
  Alcotest.(check (float 1e-9)) "only t1 and t3 charged"
    (40. +. (10. *. 16. /. 9.))
    (eval ~plan ~power ~totals ~e ~w_hat);
  let tr = Reference.trace ~plan ~power ~totals ~e ~w_hat in
  Alcotest.(check (float 0.)) "no voltage for empty sub" 0. tr.Reference.voltages.(1);
  Alcotest.(check (float 1e-9)) "t3 starts at t1 finish"
    tr.Reference.finish_times.(0) tr.Reference.start_times.(2)

let test_gradient_matches_numdiff_interior () =
  (* At a clean interior point of the motivational example the adjoint
     must match central differences to high accuracy. *)
  let plan = motivation_plan () in
  let totals = Objective.instance_totals Objective.Average plan in
  let e = [| 8.; 14.; 19.5 |] in
  let m = 3 in
  let f x = eval ~plan ~power ~totals ~e:(Array.sub x 0 m) ~w_hat:(Array.sub x m m) in
  let x = Array.append e quotas3 in
  let _, de, dq = adjoint ~plan ~power ~totals ~e ~w_hat:quotas3 in
  let num = Reference.Numdiff.gradient ~h:1e-7 ~f x in
  let ana = Array.append de dq in
  Array.iteri
    (fun i a ->
      let rel = Float.abs (a -. num.(i)) /. Float.max 1. (Float.abs num.(i)) in
      if rel > 1e-5 then Alcotest.failf "coord %d: ana %g vs num %g" i a num.(i))
    ana

let test_gradient_random_feasible_points () =
  (* Random feasible schedules on a preemptive task set: gradients are
     validated coordinate-wise away from kinks. *)
  let ts =
    Task_set.create
      [ Task.with_ratio ~name:"a" ~period:4 ~wcec:3. ~ratio:0.3;
        Task.with_ratio ~name:"b" ~period:8 ~wcec:5. ~ratio:0.3 ]
  in
  let plan = Plan.expand ts in
  let m = Plan.size plan in
  let totals = Objective.instance_totals Objective.Average plan in
  let rng = Lepts_prng.Xoshiro256.create ~seed:77 in
  let power = Model.ideal ~v_min:0.1 ~v_max:8. () in
  for _ = 1 to 20 do
    (* Build a feasible-ish point: greedy fill then stretch randomly. *)
    match Solver.initial_point ~plan ~power with
    | Error _ -> Alcotest.fail "schedulable"
    | Ok (e0, q0) ->
      let e =
        Array.mapi
          (fun k ek ->
            let b = plan.Plan.order.(k).Lepts_preempt.Sub_instance.boundary in
            ek +. (Lepts_prng.Xoshiro256.float rng *. 0.7 *. (b -. ek)))
          e0
      in
      let f x = eval ~plan ~power ~totals ~e:(Array.sub x 0 m) ~w_hat:(Array.sub x m m) in
      let x = Array.append e q0 in
      let fx, de, dq = adjoint ~plan ~power ~totals ~e ~w_hat:q0 in
      Alcotest.(check (float 1e-9)) "value agrees" (f x) fx;
      let num = Reference.Numdiff.gradient ~h:1e-7 ~f x in
      let ana = Array.append de dq in
      let bad = ref 0 in
      Array.iteri
        (fun i a ->
          let rel = Float.abs (a -. num.(i)) /. Float.max 1. (Float.abs num.(i)) in
          if rel > 1e-3 then incr bad)
        ana;
      (* Allow a few kink coordinates; systematic errors would touch
         most coordinates. *)
      if !bad > (2 * m) / 4 then
        Alcotest.failf "%d of %d gradient coords disagree" !bad (2 * m)
  done

let test_length_mismatch () =
  let plan = motivation_plan () in
  let totals = Objective.instance_totals Objective.Average plan in
  Alcotest.check_raises "bad lengths"
    (Invalid_argument "Objective: vector length does not match plan size") (fun () ->
      ignore (eval ~plan ~power ~totals ~e:[| 1. |] ~w_hat:[| 1. |]));
  Alcotest.check_raises "bad quota length"
    (Invalid_argument "Objective: vector length does not match plan size") (fun () ->
      ignore (eval ~plan ~power ~totals ~e:[| 10.; 15.; 20. |] ~w_hat:[| 1. |]))

let test_instance_totals () =
  let plan = motivation_plan () in
  let avg = Objective.instance_totals Objective.Average plan in
  let worst = Objective.instance_totals Objective.Worst plan in
  Alcotest.(check (float 0.)) "acec" 10. avg.(0).(0);
  Alcotest.(check (float 0.)) "wcec" 20. worst.(2).(0)

(* --- Workspace kernels: bit-for-bit parity with the allocating
   reference trace and the dense reference adjoint --------------------- *)

let check_bits msg expect got =
  if not (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float got)) then
    Alcotest.failf "%s: %h <> %h" msg expect got

let check_bits_arr msg expect got =
  Alcotest.(check int) (msg ^ ": length") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i x -> check_bits (Printf.sprintf "%s.(%d)" msg i) x got.(i))
    expect

let test_ws_eval_bitwise () =
  let plan = motivation_plan () in
  let ws = Workspace.create plan in
  (* Points chosen to walk every branch: greedy/stretched end-times,
     worst-case totals, a zero quota (skip branch), and — via the
     separate fixtures below — both voltage clamps and the window
     floor. *)
  let points =
    [ (Objective.Average, [| 20. /. 3.; 40. /. 3.; 20. |], quotas3);
      (Objective.Average, [| 10.; 15.; 20. |], quotas3);
      (Objective.Worst, [| 10.; 15.; 20. |], quotas3);
      (Objective.Average, [| 10.; 15.; 20. |], [| 20.; 0.; 20. |]);
      (Objective.Average, [| 0.; 15.; 20. |], quotas3) ]
  in
  (* The kernel inlines the model's arithmetic, so a model with
     non-unit [c0] and [c_eff] must agree too. *)
  let scaled = Model.ideal ~c0:2. ~c_eff:0.5 ~v_min:1. ~v_max:4. () in
  List.iter
    (fun power ->
      List.iter
        (fun (mode, e, w_hat) ->
          let totals = Objective.instance_totals mode plan in
          let expect = Reference.eval ~plan ~power ~totals ~e ~w_hat in
          check_bits "eval_ws" expect (Objective.eval_ws ws ~power ~totals ~e ~w_hat);
          (* Same workspace again: reuse must not leak state between calls. *)
          check_bits "eval_ws (reused)" expect
            (Objective.eval_ws ws ~power ~totals ~e ~w_hat))
        points)
    [ power; scaled ];
  (* v_min clamp fixture. *)
  let tiny =
    Plan.expand
      (Task_set.create
         [ Task.create ~name:"t" ~period:100 ~wcec:1. ~acec:0.5 ~bcec:0. ])
  in
  let totals = Objective.instance_totals Objective.Average tiny in
  let ws = Workspace.create tiny in
  check_bits "eval_ws (v_min clamp)"
    (Reference.eval ~plan:tiny ~power ~totals ~e:[| 100. |] ~w_hat:[| 1. |])
    (Objective.eval_ws ws ~power ~totals ~e:[| 100. |] ~w_hat:[| 1. |])

let test_ws_gradient_bitwise_random () =
  (* Random feasible-ish points on a genuinely preemptive plan: value
     and both gradient blocks must agree bit-for-bit with the dense
     list-based reference adjoint, with the workspace reused across
     points. *)
  let ts =
    Task_set.create
      [ Task.with_ratio ~name:"a" ~period:4 ~wcec:3. ~ratio:0.3;
        Task.with_ratio ~name:"b" ~period:8 ~wcec:5. ~ratio:0.3 ]
  in
  let plan = Plan.expand ts in
  let m = Plan.size plan in
  let totals = Objective.instance_totals Objective.Average plan in
  let rng = Lepts_prng.Xoshiro256.create ~seed:99 in
  let power = Model.ideal ~v_min:0.1 ~v_max:8. () in
  let ws = Workspace.create plan in
  let de = Array.make m 0. and dwq = Array.make m 0. in
  for round = 1 to 30 do
    match Solver.initial_point ~plan ~power with
    | Error _ -> Alcotest.fail "schedulable"
    | Ok (e0, q0) ->
      let e =
        Array.mapi
          (fun k ek ->
            let b = plan.Plan.order.(k).Lepts_preempt.Sub_instance.boundary in
            ek +. (Lepts_prng.Xoshiro256.float rng *. 0.7 *. (b -. ek)))
          e0
      in
      (* Every few rounds, force the branch cases: a zeroed quota, a
         collapsed window (floor guard) and an over-tight window
         (v_max clamp). *)
      if round mod 3 = 0 then q0.(round mod m) <- 0.;
      if round mod 4 = 0 then e.(round mod m) <- 0.;
      if round mod 5 = 0 then
        e.(round mod m) <- plan.Plan.order.(round mod m).Lepts_preempt.Sub_instance.release +. 1e-6;
      let fx, de_ref, dq_ref =
        Reference.eval_with_gradient ~plan ~power ~totals ~e ~w_hat:q0
      in
      let fx_ws =
        Objective.eval_with_gradient_ws ws ~power ~totals ~e ~w_hat:q0 ~de ~dwq
      in
      check_bits "gradient value" fx fx_ws;
      check_bits_arr "de" de_ref de;
      check_bits_arr "dwq" dq_ref dwq
  done

let test_ws_gradient_branch_points_numdiff () =
  (* Firmly-in-branch points where the objective is locally flat in the
     branch coordinate, so central differences agree with the one-sided
     adjoint: a v_min-clamped schedule and a floored window. *)
  let tiny =
    Plan.expand
      (Task_set.create
         [ Task.create ~name:"t" ~period:100 ~wcec:1. ~acec:0.5 ~bcec:0. ])
  in
  let totals = Objective.instance_totals Objective.Average tiny in
  let check_point plan totals e w_hat =
    let m = Plan.size plan in
    let ws = Workspace.create plan in
    let de = Array.make m 0. and dwq = Array.make m 0. in
    let fx_ws =
      Objective.eval_with_gradient_ws ws ~power ~totals ~e ~w_hat ~de ~dwq
    in
    let fx, de_ref, dq_ref =
      Reference.eval_with_gradient ~plan ~power ~totals ~e ~w_hat
    in
    check_bits "branch value" fx fx_ws;
    check_bits_arr "branch de" de_ref de;
    check_bits_arr "branch dwq" dq_ref dwq;
    let f x = eval ~plan ~power ~totals ~e:(Array.sub x 0 m) ~w_hat:(Array.sub x m m) in
    let num = Reference.Numdiff.gradient ~h:1e-7 ~f (Array.append e w_hat) in
    Array.iteri
      (fun i a ->
        let rel = Float.abs (a -. num.(i)) /. Float.max 1. (Float.abs num.(i)) in
        if rel > 1e-5 then Alcotest.failf "branch coord %d: ana %g vs num %g" i a num.(i))
      (Array.append de dq_ref)
  in
  (* v_min clamp: huge window, tiny workload. *)
  check_point tiny totals [| 100. |] [| 1. |];
  (* Window floor: end-time far below the release. *)
  let plan = motivation_plan () in
  let totals3 = Objective.instance_totals Objective.Average plan in
  check_point plan totals3 [| -5.; 15.; 20. |] quotas3

let test_ws_error_paths () =
  let plan = motivation_plan () in
  let ws = Workspace.create plan in
  let totals = Objective.instance_totals Objective.Average plan in
  Alcotest.check_raises "bad lengths"
    (Invalid_argument "Objective: vector length does not match plan size")
    (fun () ->
      ignore (Objective.eval_ws ws ~power ~totals ~e:[| 1. |] ~w_hat:[| 1. |]));
  Alcotest.check_raises "bad gradient buffers"
    (Invalid_argument "Objective.eval_with_gradient_ws: gradient buffer length mismatch")
    (fun () ->
      ignore
        (Objective.eval_with_gradient_ws ws ~power ~totals ~e:[| 10.; 15.; 20. |]
           ~w_hat:quotas3 ~de:[| 0. |] ~dwq:[| 0. |]))

let suite =
  [ ("Fig 1(b): WCS average energy", `Quick, test_wcs_schedule_average_energy);
    ("Fig 2: ACS average energy", `Quick, test_acs_schedule_average_energy);
    ("Fig 1(a)/(c): worst-case energies", `Quick, test_worst_case_energy);
    ("trace consistency", `Quick, test_trace_consistency);
    ("v_min clamping", `Quick, test_vmin_clamp);
    ("v_max clamp on infeasible windows", `Quick, test_vmax_clamp_on_infeasible);
    ("zero-quota sub-instances skipped", `Quick, test_zero_quota_skipped);
    ("adjoint vs numdiff (interior)", `Quick, test_gradient_matches_numdiff_interior);
    ("adjoint vs numdiff (random feasible)", `Quick, test_gradient_random_feasible_points);
    ("length mismatch", `Quick, test_length_mismatch);
    ("instance totals", `Quick, test_instance_totals);
    ("workspace eval bit-identical", `Quick, test_ws_eval_bitwise);
    ("workspace adjoint bit-identical (random)", `Quick, test_ws_gradient_bitwise_random);
    ("workspace adjoint branch points + numdiff", `Quick, test_ws_gradient_branch_points_numdiff);
    ("workspace error paths", `Quick, test_ws_error_paths) ]
