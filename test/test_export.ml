open Lepts_core
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model

let power = Model.ideal ~v_min:1. ~v_max:4. ()

let csv_header =
  "index,label,task,instance,segment,release,boundary,deadline,end_time,quota,worst_voltage"

let schedule () =
  let ts =
    Task_set.create
      [ Task.create ~name:"t1" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
        Task.create ~name:"t2" ~period:20 ~wcec:20. ~acec:10. ~bcec:0.;
        Task.create ~name:"t3" ~period:20 ~wcec:20. ~acec:10. ~bcec:0. ]
  in
  Static_schedule.create ~plan:(Plan.expand ts) ~power ~end_times:[| 10.; 15.; 20. |]
    ~quotas:[| 20.; 20.; 20. |]

let test_row_count () =
  let rows = Export.schedule_to_rows (schedule ()) in
  Alcotest.(check int) "one per sub-instance" 3 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "column count"
        (List.length (String.split_on_char ',' csv_header))
        (List.length row))
    rows

let test_csv_shape () =
  let csv = Export.schedule_to_csv (schedule ()) in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 3 rows" 4 (List.length lines);
  Alcotest.(check string) "header first" csv_header (List.hd lines)

let test_values_roundtrip () =
  let rows = Export.schedule_to_rows (schedule ()) in
  match rows with
  | first :: _ ->
    Alcotest.(check string) "label" "T1.1.1" (List.nth first 1);
    Alcotest.(check (float 1e-12)) "end time" 10. (float_of_string (List.nth first 8));
    Alcotest.(check (float 1e-12)) "quota" 20. (float_of_string (List.nth first 9));
    (* Worst-case voltage of the first sub-instance: 20 cycles over
       [0, 10] -> 2 V. *)
    Alcotest.(check (float 1e-12)) "voltage" 2. (float_of_string (List.nth first 10))
  | [] -> Alcotest.fail "no rows"

let suite =
  [ ("row count and arity", `Quick, test_row_count);
    ("csv shape", `Quick, test_csv_shape);
    ("values round-trip", `Quick, test_values_roundtrip) ]
