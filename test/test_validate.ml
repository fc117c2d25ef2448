open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model

let power = Model.ideal ~v_min:1. ~v_max:4. ()

let plan3 () =
  Plan.expand
    (Task_set.create
       [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
         Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
         Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ])

let schedule plan e q = Static_schedule.create ~plan ~power ~end_times:e ~quotas:q

let test_feasible_passes () =
  let plan = plan3 () in
  let s = schedule plan [| 10.; 15.; 20. |] [| 20.; 20.; 20. |] in
  Alcotest.(check bool) "valid" true (Validate.is_feasible s)

let test_quota_sum_violation () =
  let plan = plan3 () in
  let s = schedule plan [| 10.; 15.; 20. |] [| 20.; 15.; 20. |] in
  match Validate.check s with
  | Ok () -> Alcotest.fail "missing quota violation"
  | Error vs ->
    Alcotest.(check bool) "mentions the instance" true
      (List.exists (fun v -> v.Validate.where = "T2.1") vs)

let test_overvoltage_violation () =
  (* Too little room between end-times: needs more than v_max. *)
  let plan = plan3 () in
  let s = schedule plan [| 10.; 12.; 20. |] [| 20.; 20.; 20. |] in
  match Validate.check s with
  | Ok () -> Alcotest.fail "missing v_max violation"
  | Error vs ->
    Alcotest.(check bool) "voltage violation reported" true
      (List.exists
         (fun v ->
           String.length v.Validate.what >= 18
           && String.sub v.Validate.what 0 18 = "worst-case voltage")
         vs)

let test_deadline_violation () =
  let plan = plan3 () in
  (* End-time beyond the period/deadline. *)
  let s = schedule plan [| 10.; 15.; 25. |] [| 20.; 20.; 20. |] in
  match Validate.check s with
  | Ok () -> Alcotest.fail "missing deadline violation"
  | Error vs ->
    Alcotest.(check bool) "names the offending sub and deadline" true
      (List.exists
         (fun v ->
           v.Validate.where = "T3.1.1"
           && v.Validate.what = "end-time 25 exceeds deadline 20")
         vs)

let test_boundary_violation () =
  (* Two periods: t2's first segment ends at t1's second release (a
     boundary strictly before t2's deadline). Pushing that end-time past
     the boundary — but not past the deadline — must produce a boundary
     violation record, not a deadline one. *)
  let plan =
    Plan.expand
      (Task_set.create
         [ Task.create ~name:"t1" ~period:4 ~wcec:4. ~acec:2. ~bcec:0.;
           Task.create ~name:"t2" ~period:8 ~wcec:4. ~acec:2. ~bcec:0. ])
  in
  let base = Result.get_ok (Solver.solve_wcs ~plan ~power ()) |> fst in
  let sub =
    Array.to_list plan.Plan.order
    |> List.find (fun s -> s.Sub.boundary < s.Sub.deadline -. 1e-9)
  in
  let e = Array.copy base.Static_schedule.end_times in
  e.(sub.Sub.index) <-
    sub.Sub.boundary +. (0.5 *. (sub.Sub.deadline -. sub.Sub.boundary));
  let s = schedule plan e base.Static_schedule.quotas in
  match Validate.check s with
  | Ok () -> Alcotest.fail "missing boundary violation"
  | Error vs ->
    let expected =
      Printf.sprintf "end-time %g exceeds segment boundary %g"
        e.(sub.Sub.index) sub.Sub.boundary
    in
    Alcotest.(check bool) "boundary record present" true
      (List.exists
         (fun v -> v.Validate.where = Sub.label sub && v.Validate.what = expected)
         vs);
    let contains ~needle hay =
      let n = String.length needle and m = String.length hay in
      let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "no deadline record" true
      (not
         (List.exists
            (fun v ->
              v.Validate.where = Sub.label sub
              && contains ~needle:"exceeds deadline" v.Validate.what)
            vs))

let test_below_vmin_is_fine () =
  (* Big window, tiny quota: worst voltage below v_min is allowed (the
     processor idles after finishing early). *)
  let plan =
    Plan.expand
      (Task_set.create [ Task.create ~name:"t" ~period:100 ~wcec:1. ~acec:0.5 ~bcec:0. ])
  in
  let s = schedule plan [| 100. |] [| 1. |] in
  Alcotest.(check bool) "valid" true (Validate.is_feasible s)

let test_zero_quota_ignores_window () =
  (* A zero-quota sub-instance contributes nothing; degenerate windows
     on it are fine. *)
  let plan = plan3 () in
  let s = schedule plan [| 10.; 10.; 20. |] [| 20.; 0.; 40. |] in
  (* quotas must still sum right per instance: t2 has 0 <> 20. *)
  (match Validate.check s with
  | Ok () -> Alcotest.fail "sum check should fire"
  | Error vs -> Alcotest.(check int) "only sum violations" 2 (List.length vs))

let test_structural_checks () =
  let plan = plan3 () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Static_schedule.create: vector length mismatch") (fun () ->
      ignore (schedule plan [| 1. |] [| 1. |]));
  Alcotest.check_raises "negative quota"
    (Invalid_argument "Static_schedule.create: negative quota") (fun () ->
      ignore (schedule plan [| 10.; 15.; 20. |] [| -1.; 20.; 20. |]))

let test_pp_violation () =
  let v = { Validate.where = "T1.1"; what = "broken" } in
  Alcotest.(check string) "format" "T1.1: broken"
    (Format.asprintf "%a" Validate.pp_violation v)

let suite =
  [ ("feasible schedule passes", `Quick, test_feasible_passes);
    ("quota sum violation", `Quick, test_quota_sum_violation);
    ("over-voltage violation", `Quick, test_overvoltage_violation);
    ("deadline violation", `Quick, test_deadline_violation);
    ("boundary violation", `Quick, test_boundary_violation);
    ("below v_min allowed", `Quick, test_below_vmin_is_fine);
    ("zero-quota windows ignored", `Quick, test_zero_quota_ignores_window);
    ("structural checks", `Quick, test_structural_checks);
    ("violation printer", `Quick, test_pp_violation) ]
