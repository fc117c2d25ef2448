open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy

let power = Model.ideal ~v_min:1. ~v_max:4. ()

let plan3 () =
  Plan.expand
    (Task_set.create
       [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
         Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
         Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ])

let acs_schedule () =
  Static_schedule.create ~plan:(plan3 ()) ~power ~end_times:[| 10.; 15.; 20. |]
    ~quotas:[| 20.; 20.; 20. |]

let test_worst_case_voltages () =
  let v = Static_schedule.worst_case_voltages (acs_schedule ()) in
  (* 20 cycles in 10 ms -> 2 V; then 20 in 5 ms -> 4 V twice. *)
  Alcotest.(check (array (float 1e-9))) "2/4/4" [| 2.; 4.; 4. |] v

let test_worst_case_voltages_zero_quota () =
  let s =
    Static_schedule.create ~plan:(plan3 ()) ~power ~end_times:[| 10.; 10.; 20. |]
      ~quotas:[| 20.; 0.; 20. |]
  in
  let v = Static_schedule.worst_case_voltages s in
  Alcotest.(check (float 0.)) "zero for empty" 0. v.(1);
  (* Third sub chains from the first's end-time, not the empty one. *)
  Alcotest.(check (float 1e-9)) "20 cycles in [10,20]" 2. v.(2)

let test_greedy_dispatch_full_window () =
  let s = acs_schedule () in
  let static_v = Static_schedule.worst_case_voltages s in
  let v =
    Policy.dispatch_voltage Policy.Greedy ~schedule:s ~static_v ~sub:0 ~now:0.
      ~quota_remaining:20.
  in
  Alcotest.(check (float 1e-9)) "plan voltage at plan start" 2. v

let test_greedy_dispatch_with_slack () =
  let s = acs_schedule () in
  let static_v = Static_schedule.worst_case_voltages s in
  (* Sub 1 (end 15) dispatched early at t=5 with full quota: stretches
     to 2 V instead of its worst-case 4 V. *)
  let v =
    Policy.dispatch_voltage Policy.Greedy ~schedule:s ~static_v ~sub:1 ~now:5.
      ~quota_remaining:20.
  in
  Alcotest.(check (float 1e-9)) "slack lowers voltage" 2. v

let test_greedy_clamps () =
  let s = acs_schedule () in
  let static_v = Static_schedule.worst_case_voltages s in
  let low =
    Policy.dispatch_voltage Policy.Greedy ~schedule:s ~static_v ~sub:2 ~now:0.
      ~quota_remaining:0.1
  in
  Alcotest.(check (float 1e-9)) "clamped at v_min" 1. low;
  let late =
    Policy.dispatch_voltage Policy.Greedy ~schedule:s ~static_v ~sub:0 ~now:25.
      ~quota_remaining:5.
  in
  Alcotest.(check (float 1e-9)) "past end-time runs at v_max" 4. late

let test_static_policy () =
  let s = acs_schedule () in
  let static_v = Static_schedule.worst_case_voltages s in
  let v =
    Policy.dispatch_voltage Policy.Static_voltage ~schedule:s ~static_v ~sub:1
      ~now:2. ~quota_remaining:20.
  in
  Alcotest.(check (float 1e-9)) "ignores slack" 4. v

let test_max_speed_policy () =
  let s = acs_schedule () in
  let static_v = Static_schedule.worst_case_voltages s in
  let v =
    Policy.dispatch_voltage Policy.Max_speed ~schedule:s ~static_v ~sub:2 ~now:0.
      ~quota_remaining:1.
  in
  Alcotest.(check (float 1e-9)) "always v_max" 4. v

let test_empty_quota_rejected () =
  let s = acs_schedule () in
  let static_v = Static_schedule.worst_case_voltages s in
  Alcotest.check_raises "empty quota"
    (Invalid_argument "Policy.dispatch_voltage: empty quota") (fun () ->
      ignore
        (Policy.dispatch_voltage Policy.Greedy ~schedule:s ~static_v ~sub:0 ~now:0.
           ~quota_remaining:0.))

let test_policy_printers () =
  let names = List.map (Format.asprintf "%a" Policy.pp) Policy.all in
  Alcotest.(check (list string)) "names" [ "greedy"; "static"; "max-speed" ] names

let suite =
  [ ("worst-case voltages", `Quick, test_worst_case_voltages);
    ("worst-case voltages with zero quota", `Quick, test_worst_case_voltages_zero_quota);
    ("greedy at plan start", `Quick, test_greedy_dispatch_full_window);
    ("greedy exploits slack", `Quick, test_greedy_dispatch_with_slack);
    ("greedy clamps to range", `Quick, test_greedy_clamps);
    ("static policy ignores slack", `Quick, test_static_policy);
    ("max-speed policy", `Quick, test_max_speed_policy);
    ("empty quota rejected", `Quick, test_empty_quota_rejected);
    ("policy printers", `Quick, test_policy_printers) ]
