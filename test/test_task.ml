open Lepts_task

let power = Lepts_power.Model.ideal ~v_min:1. ~v_max:4. ()

let mk ?(name = "t") ~period ~wcec () =
  Task.create ~name ~period ~wcec ~acec:(wcec /. 2.) ~bcec:0.

let test_task_create_valid () =
  let t = Task.create ~name:"x" ~period:10 ~wcec:5. ~acec:3. ~bcec:1. in
  Alcotest.(check string) "name" "x" t.Task.name;
  Alcotest.(check int) "period" 10 t.Task.period

let test_task_create_invalid () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Task.create: period must be positive" (fun () ->
      ignore (Task.create ~name:"x" ~period:0 ~wcec:1. ~acec:1. ~bcec:1.));
  expect "Task.create: wcec must be positive" (fun () ->
      ignore (Task.create ~name:"x" ~period:1 ~wcec:0. ~acec:0. ~bcec:0.));
  expect "Task.create: need bcec <= acec <= wcec" (fun () ->
      ignore (Task.create ~name:"x" ~period:1 ~wcec:1. ~acec:2. ~bcec:0.));
  expect "Task.create: need bcec <= acec <= wcec" (fun () ->
      ignore (Task.create ~name:"x" ~period:1 ~wcec:2. ~acec:1. ~bcec:1.5));
  expect "Task.create: bcec must be non-negative" (fun () ->
      ignore (Task.create ~name:"x" ~period:1 ~wcec:1. ~acec:0.5 ~bcec:(-0.1)))

let test_with_ratio () =
  let t = Task.with_ratio ~name:"x" ~period:10 ~wcec:20. ~ratio:0.1 in
  Alcotest.(check (float 1e-12)) "bcec" 2. t.Task.bcec;
  Alcotest.(check (float 1e-12)) "acec midpoint" 11. t.Task.acec;
  Alcotest.check_raises "ratio range"
    (Invalid_argument "Task.with_ratio: ratio out of [0, 1]") (fun () ->
      ignore (Task.with_ratio ~name:"x" ~period:1 ~wcec:1. ~ratio:1.5))

let test_sigma () =
  let t = Task.with_ratio ~name:"x" ~period:10 ~wcec:20. ~ratio:0.1 in
  (* sigma = (wcec - bcec) / 6 = 18/6 = 3, so [bcec, wcec] is +-3 sigma. *)
  Alcotest.(check (float 1e-12)) "sigma" 3. (Task.sigma t)

let test_task_set_priority_order () =
  let ts =
    Task_set.create
      [ mk ~name:"slow" ~period:30 ~wcec:1. ();
        mk ~name:"fast" ~period:5 ~wcec:1. ();
        mk ~name:"mid" ~period:10 ~wcec:1. () ]
  in
  Alcotest.(check string) "highest" "fast" (Task_set.task ts 0).Task.name;
  Alcotest.(check string) "middle" "mid" (Task_set.task ts 1).Task.name;
  Alcotest.(check string) "lowest" "slow" (Task_set.task ts 2).Task.name

let test_task_set_stable_ties () =
  let ts =
    Task_set.create
      [ mk ~name:"a" ~period:10 ~wcec:1. (); mk ~name:"b" ~period:10 ~wcec:1. () ]
  in
  Alcotest.(check string) "input order kept" "a" (Task_set.task ts 0).Task.name

let test_task_set_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Task_set.create: empty task set")
    (fun () -> ignore (Task_set.create []));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Task_set.create: duplicate task name \"a\"") (fun () ->
      ignore
        (Task_set.create [ mk ~name:"a" ~period:5 ~wcec:1. (); mk ~name:"a" ~period:7 ~wcec:1. () ]))

let test_hyper_period () =
  let ts =
    Task_set.create
      [ mk ~name:"a" ~period:4 ~wcec:1. (); mk ~name:"b" ~period:6 ~wcec:1. ();
        mk ~name:"c" ~period:8 ~wcec:1. () ]
  in
  Alcotest.(check int) "lcm" 24 (Task_set.hyper_period ts)

let test_utilization () =
  (* cycle time at v_max = 0.25; U = 0.25 * (4/4 + 8/8) = 0.5. *)
  let ts =
    Task_set.create
      [ mk ~name:"a" ~period:4 ~wcec:4. (); mk ~name:"b" ~period:8 ~wcec:8. () ]
  in
  Alcotest.(check (float 1e-12)) "utilization" 0.5 (Task_set.utilization ts ~power)

let test_scale_to_utilization () =
  let ts =
    Task_set.create
      [ mk ~name:"a" ~period:4 ~wcec:4. (); mk ~name:"b" ~period:8 ~wcec:8. () ]
  in
  let scaled = Task_set.scale_wcec_to_utilization ts ~power ~target:0.7 in
  Alcotest.(check (float 1e-9)) "reaches target" 0.7
    (Task_set.utilization scaled ~power);
  (* Ratios are preserved. *)
  let t = Task_set.task scaled 0 in
  Alcotest.(check (float 1e-9)) "acec scaled too" (t.Task.wcec /. 2.) t.Task.acec

let test_response_time_single () =
  (* One task: response time is its own WCET. *)
  let ts = Task_set.create [ mk ~name:"a" ~period:10 ~wcec:8. () ] in
  match Rm.response_time ts ~power 0 with
  | None -> Alcotest.fail "schedulable"
  | Some r -> Alcotest.(check (float 1e-9)) "own wcet" 2. r

let test_response_time_interference () =
  (* Classic: T1 (P=4, C=1), T2 (P=10, C=4): R2 = 4 + ceil(R2/4)*1 -> 7?
     iterate: R=4 -> 4+1*1? ceil(4/4)=1 -> 5; ceil(5/4)=2 -> 6; ceil(6/4)=2 -> 6. *)
  let ts =
    Task_set.create
      [ mk ~name:"hi" ~period:4 ~wcec:4. (); mk ~name:"lo" ~period:10 ~wcec:16. () ]
  in
  (match Rm.response_time ts ~power 1 with
  | None -> Alcotest.fail "schedulable"
  | Some r -> Alcotest.(check (float 1e-9)) "fixed point" 6. r);
  Alcotest.(check bool) "whole set schedulable" true (Rm.schedulable ts ~power)

let test_unschedulable () =
  (* Utilization > 1 at max speed. *)
  let ts =
    Task_set.create
      [ mk ~name:"a" ~period:4 ~wcec:10. (); mk ~name:"b" ~period:4 ~wcec:10. () ]
  in
  Alcotest.(check bool) "unschedulable" false (Rm.schedulable ts ~power)

let test_liu_layland_consistency () =
  (* Any set below the Liu-Layland bound n (2^{1/n} - 1) must pass
     response-time analysis. *)
  let rng = Lepts_prng.Xoshiro256.create ~seed:5 in
  for _ = 1 to 30 do
    let n = 2 + Lepts_prng.Xoshiro256.int rng ~bound:4 in
    let nf = float_of_int n in
    let bound = nf *. ((2. ** (1. /. nf)) -. 1.) in
    let tasks =
      List.init n (fun i ->
          let period = 5 * (1 + Lepts_prng.Xoshiro256.int rng ~bound:20) in
          let u = bound /. float_of_int n *. 0.95 in
          let wcec = u *. float_of_int period *. 4. (* v_max / c0 *) in
          mk ~name:(Printf.sprintf "t%d" i) ~period ~wcec ())
    in
    let ts = Task_set.create tasks in
    if not (Rm.schedulable ts ~power) then
      Alcotest.failf "Liu-Layland set rejected (n=%d)" n
  done

let suite =
  [ ("task create valid", `Quick, test_task_create_valid);
    ("task create invalid", `Quick, test_task_create_invalid);
    ("with_ratio", `Quick, test_with_ratio);
    ("sigma", `Quick, test_sigma);
    ("priority order", `Quick, test_task_set_priority_order);
    ("stable ties", `Quick, test_task_set_stable_ties);
    ("task set validation", `Quick, test_task_set_validation);
    ("hyper period", `Quick, test_hyper_period);
    ("utilization", `Quick, test_utilization);
    ("scale to utilization", `Quick, test_scale_to_utilization);
    ("response time single", `Quick, test_response_time_single);
    ("response time interference", `Quick, test_response_time_interference);
    ("unschedulable detected", `Quick, test_unschedulable);
    ("Liu-Layland consistency", `Quick, test_liu_layland_consistency) ]
