(* Observability layer: metrics registry semantics, telemetry rings,
   exporter golden output, and the load-bearing guarantees — solver
   results bit-identical with telemetry on/off (sequential and
   parallel), and span trees identical across domain counts. *)

module Metrics = Lepts_obs.Metrics
module Telemetry = Lepts_obs.Telemetry
module Span = Lepts_obs.Span
module Export = Lepts_obs.Export
module Solver = Lepts_core.Solver
module Static_schedule = Lepts_core.Static_schedule
module Plan = Lepts_preempt.Plan

(* --- metrics ----------------------------------------------------------- *)

let test_counter_gauge () =
  let t = Metrics.create () in
  let c = Metrics.counter t "c" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.counter_value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: counters only go up") (fun () ->
      Metrics.incr ~by:(-1) c);
  let c' = Metrics.counter t "c" in
  Metrics.incr c';
  Alcotest.(check int) "same identity, same cell" 43 (Metrics.counter_value c);
  let g = Metrics.gauge ~labels:[ ("k", "v") ] t "g" in
  Metrics.set g 2.5;
  Metrics.set g 1.5;
  match Metrics.snapshot t with
  | [ { Metrics.name = "c"; value = Counter_v 43; _ };
      { Metrics.name = "g"; labels = [ ("k", "v") ]; value = Gauge_v 1.5; _ } ] ->
    ()
  | samples ->
    Alcotest.failf "unexpected snapshot (%d samples)" (List.length samples)

let test_histogram () =
  let t = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] t "h" in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  Metrics.observe h 9.;
  (match Metrics.snapshot t with
  | [ { Metrics.value = Histogram_v { upper; counts; sum; count }; _ } ] ->
    Alcotest.(check (array (float 0.))) "upper bounds" [| 1.; 2. |] upper;
    Alcotest.(check (array int)) "bucket counts" [| 1; 1; 1 |] counts;
    Alcotest.(check (float 1e-6)) "sum" 11. sum;
    Alcotest.(check int) "count" 3 count
  | _ -> Alcotest.fail "expected one histogram sample");
  Metrics.reset t;
  (match Metrics.snapshot t with
  | [ { Metrics.value = Histogram_v { counts; count; _ }; _ } ] ->
    Alcotest.(check (array int)) "reset zeroes buckets" [| 0; 0; 0 |] counts;
    Alcotest.(check int) "reset zeroes count" 0 count
  | _ -> Alcotest.fail "identity survives reset");
  Alcotest.check_raises "unsorted buckets rejected"
    (Invalid_argument "Metrics.histogram: bucket bounds must be strictly increasing")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 2.; 1. |] t "h2"))

let test_histogram_concurrent () =
  (* Atomic adds commute: the aggregate is exact under contention. *)
  let t = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10.; 100. |] t "h" in
  let c = Metrics.counter t "c" in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              Metrics.observe h (float_of_int (i mod 30));
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "counter exact" 4000 (Metrics.counter_value c);
  match Metrics.snapshot t with
  | [ _; { Metrics.value = Histogram_v { count; _ }; _ } ] ->
    Alcotest.(check int) "histogram count exact" 4000 count
  | _ -> Alcotest.fail "expected counter + histogram"

(* --- telemetry rings --------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Telemetry.ring ~capacity:4 in
  for i = 1 to 10 do
    Telemetry.set_phase r ((i + 4) / 5);
    Telemetry.push r ~iteration:i ~objective:(float_of_int i) ~step:0.5
      ~step_norm:0.25 ~backtracks:0 ~projections:1
  done;
  Alcotest.(check int) "pushed counts everything" 10 (Telemetry.pushed r);
  Alcotest.(check int) "length capped at capacity" 4 (Telemetry.length r);
  let kept = Telemetry.records r in
  Alcotest.(check (list int)) "keeps the last records, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map (fun (rec_ : Telemetry.record) -> rec_.Telemetry.iteration) kept);
  List.iter
    (fun (rec_ : Telemetry.record) ->
      Alcotest.(check int) "phase tag" 2 rec_.Telemetry.outer)
    kept;
  Telemetry.clear r;
  Alcotest.(check int) "clear" 0 (Telemetry.pushed r)

let test_collector_bounds () =
  let c = Telemetry.collector ~max_solves:2 () in
  let s1 = Telemetry.register c ~label:"b" in
  let s2 = Telemetry.register c ~label:"a" in
  let s3 = Telemetry.register c ~label:"z" in
  Alcotest.(check bool) "first two kept" true (s1 <> None && s2 <> None);
  Alcotest.(check bool) "third dropped" true (s3 = None);
  Alcotest.(check int) "drop counted" 1 (Telemetry.dropped c);
  Alcotest.(check (list string)) "solves sorted by label" [ "a"; "b" ]
    (List.map (fun (s : Telemetry.solve) -> s.Telemetry.label) (Telemetry.solves c))

(* --- exporters --------------------------------------------------------- *)

let golden_report () =
  let t = Metrics.create () in
  let c = Metrics.counter ~help:"a counter" t "test_counter" in
  Metrics.incr ~by:3 c;
  let g = Metrics.gauge ~labels:[ ("k", "v") ] t "test_gauge" in
  Metrics.set g 1.5;
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] t "test_hist" in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  Metrics.observe h 9.;
  let solve = Telemetry.solve_sink ~capacity:4 ~label:"s" () in
  Telemetry.init_starts solve ~n:1;
  let start = Telemetry.start_slot solve 0 in
  Telemetry.set_phase start.Telemetry.s_ring 1;
  Telemetry.push start.Telemetry.s_ring ~iteration:1 ~objective:2.5 ~step:0.5
    ~step_norm:0.25 ~backtracks:0 ~projections:1;
  start.Telemetry.outer_rounds <- 1;
  start.Telemetry.inner_iterations <- 1;
  start.Telemetry.final_objective <- 2.5;
  { Export.command = "golden"; argv = [ "lepts"; "golden" ]; elapsed_s = 1.25;
    metrics = Metrics.snapshot t;
    spans = [ { Span.path = "a/b"; count = 2; total_s = 0.5; max_s = 0.375 } ];
    solves = [ solve ]; dropped_solves = 1 }

let test_json_golden () =
  let expected =
    "{\"schema\":\"lepts-obs-report/1\",\"command\":\"golden\",\
     \"argv\":[\"lepts\",\"golden\"],\"elapsed_s\":1.25,\"metrics\":[\
     {\"name\":\"test_counter\",\"labels\":{},\"help\":\"a counter\",\
     \"kind\":\"counter\",\"value\":3},\
     {\"name\":\"test_gauge\",\"labels\":{\"k\":\"v\"},\
     \"kind\":\"gauge\",\"value\":1.5},\
     {\"name\":\"test_hist\",\"labels\":{},\"kind\":\"histogram\",\
     \"upper\":[1,2],\"counts\":[1,1,1],\"sum\":11,\"count\":3}],\
     \"spans\":[{\"path\":\"a/b\",\"count\":2,\"total_s\":0.5,\"max_s\":0.375}],\
     \"solves\":[{\"label\":\"s\",\"starts\":[{\"start\":0,\"outer_rounds\":1,\
     \"inner_iterations\":1,\"final_objective\":2.5,\"records_seen\":1,\
     \"records\":[{\"outer\":1,\"iteration\":1,\"objective\":2.5,\"step\":0.5,\
     \"step_norm\":0.25,\"backtracks\":0,\"projections\":1}]}]}],\
     \"dropped_solves\":1}\n"
  in
  Alcotest.(check string) "JSON byte-stable" expected
    (Export.to_json (golden_report ()))

let test_csv_golden () =
  let r = golden_report () in
  Alcotest.(check string) "convergence CSV"
    "solve,start,outer,iteration,objective,step,step_norm,backtracks,projections\n\
     s,0,1,1,2.5,0.5,0.25,0,1\n"
    (Export.convergence_csv r)

let test_prometheus_golden () =
  Alcotest.(check string) "Prometheus text"
    "# HELP test_counter a counter\n\
     # TYPE test_counter counter\n\
     test_counter 3\n\
     # TYPE test_gauge gauge\n\
     test_gauge{k=\"v\"} 1.5\n\
     # TYPE test_hist histogram\n\
     test_hist_bucket{le=\"1\"} 1\n\
     test_hist_bucket{le=\"2\"} 2\n\
     test_hist_bucket{le=\"+Inf\"} 3\n\
     test_hist_sum 11\n\
     test_hist_count 3\n\
     # TYPE lepts_span_seconds_total counter\n\
     lepts_span_seconds_total{path=\"a/b\"} 0.5\n\
     # TYPE lepts_span_count counter\n\
     lepts_span_count{path=\"a/b\"} 2\n"
    (Export.to_prometheus (golden_report ()))

(* A minimal recursive-descent JSON well-formedness check: the report
   of a real captured solve must parse, whatever its float values. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then incr pos else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; members ()
        | Some '}' -> incr pos
        | _ -> fail ()
      in
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; elements ()
        | Some ']' -> incr pos
        | _ -> fail ()
      in
      elements ()
    end
  and string_lit () =
    expect '"';
    let rec chars () =
      if !pos >= n then fail ()
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' -> pos := !pos + 2; chars ()
        | _ -> incr pos; chars ()
    in
    chars ()
  and keyword () =
    let try_kw kw =
      if !pos + String.length kw <= n && String.sub s !pos (String.length kw) = kw
      then begin pos := !pos + String.length kw; true end
      else false
    in
    if not (try_kw "true" || try_kw "false" || try_kw "null") then fail ()
  and number () =
    let number_char = function
      | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
      | _ -> false
    in
    let start = !pos in
    while !pos < n && number_char s.[!pos] do incr pos done;
    if !pos = start then fail ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | reached_end -> reached_end
  | exception Exit -> false

let motivation_plan_power () =
  let power = Lepts_experiments.Motivation.power () in
  (Plan.expand (Lepts_experiments.Motivation.task_set ()), power)

(* The WCS solution as an ACS warm start: a second start, so a solve
   with [jobs > 1] really runs its starts on the domain pool (a cold
   solve is one start, which the pool runs sequentially). *)
let wcs_warm_starts ~plan ~power =
  let wcs, _ = Result.get_ok (Solver.solve_wcs ~plan ~power ()) in
  [ (wcs.Static_schedule.end_times, wcs.Static_schedule.quotas) ]

let test_real_report_json_valid () =
  let plan, power = motivation_plan_power () in
  let collector = Telemetry.collector () in
  let telemetry = Option.get (Telemetry.register collector ~label:"acs") in
  (match Solver.solve_acs ~telemetry ~plan ~power () with
  | Error _ -> Alcotest.fail "solve failed"
  | Ok _ -> ());
  let registry = Metrics.create () in
  Metrics.incr (Metrics.counter ~help:"with \"quotes\"\nand newline" registry "c");
  let report =
    Export.report ~command:"test" ~argv:[ "a \"b\"" ] ~elapsed_s:0.5
      ~metrics:registry ~telemetry:collector ()
  in
  Alcotest.(check bool) "captured records present" true
    (List.exists
       (fun (s : Telemetry.solve) ->
         Array.exists
           (fun (st : Telemetry.start) -> Telemetry.pushed st.Telemetry.s_ring > 0)
           s.Telemetry.starts)
       report.Export.solves);
  Alcotest.(check bool) "JSON parses" true (json_valid (Export.to_json report));
  Alcotest.(check bool) "golden JSON parses too" true
    (json_valid (Export.to_json (golden_report ())))

(* --- the load-bearing guarantee: telemetry is observational ------------ *)

let schedule_bits (s : Static_schedule.t) =
  ( Array.map Int64.bits_of_float s.Static_schedule.end_times,
    Array.map Int64.bits_of_float s.Static_schedule.quotas )

let test_bit_identity_on_off () =
  let plan, power = motivation_plan_power () in
  let warm_starts = wcs_warm_starts ~plan ~power in
  let plain, plain_stats =
    Result.get_ok (Solver.solve_acs ~warm_starts ~plan ~power ())
  in
  let check_against label solve =
    let observed, observed_stats = Result.get_ok (solve ()) in
    Alcotest.(check (pair (array int64) (array int64)))
      (label ^ ": schedule bits identical") (schedule_bits plain)
      (schedule_bits observed);
    Alcotest.(check int64)
      (label ^ ": objective bits identical")
      (Int64.bits_of_float plain_stats.Solver.objective)
      (Int64.bits_of_float observed_stats.Solver.objective)
  in
  let sink () = Telemetry.solve_sink ~label:"t" () in
  let seq_sink = sink () and pool_sink = sink () in
  check_against "telemetry, sequential" (fun () ->
      Solver.solve_acs ~telemetry:seq_sink ~warm_starts ~plan ~power ());
  check_against "telemetry, jobs=4" (fun () ->
      Solver.solve_acs ~telemetry:pool_sink ~jobs:4 ~warm_starts ~plan ~power ());
  (* Two starts, so jobs=4 fills its slots from pool workers. *)
  List.iter
    (fun (label, (s : Telemetry.solve)) ->
      Alcotest.(check int) (label ^ ": greedy and WCS starts") 2
        (Array.length s.Telemetry.starts))
    [ ("sequential", seq_sink); ("jobs=4", pool_sink) ];
  (* Each worker writes its own start's slot: per start, the pool's
     counts equal the sequential run's. *)
  Array.iter2
    (fun (s : Telemetry.start) (p : Telemetry.start) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "start %d: jobs=4 outer and inner counts" s.Telemetry.start_index)
        (s.Telemetry.outer_rounds, s.Telemetry.inner_iterations)
        (p.Telemetry.outer_rounds, p.Telemetry.inner_iterations))
    seq_sink.Telemetry.starts pool_sink.Telemetry.starts;
  let all_starts = Array.append seq_sink.Telemetry.starts pool_sink.Telemetry.starts in
  (* The capture must actually have captured something, each start
     written exactly once. *)
  Alcotest.(check bool) "records captured" true
    (Array.for_all
       (fun (st : Telemetry.start) -> Telemetry.pushed st.Telemetry.s_ring > 0)
       all_starts);
  Array.iter
    (fun (st : Telemetry.start) ->
      Alcotest.(check bool) "outcome recorded" true
        (st.Telemetry.outer_rounds > 0
        && (st.Telemetry.failure <> None
           || Float.is_finite st.Telemetry.final_objective)))
    all_starts

(* --- span determinism across domain counts ----------------------------- *)

let span_shape aggs =
  List.map (fun (a : Span.agg) -> (a.Span.path, a.Span.count)) aggs

let test_span_merge_deterministic () =
  let plan, power = motivation_plan_power () in
  let warm_starts = wcs_warm_starts ~plan ~power in
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.set_enabled true;
      let shape jobs =
        Span.reset ();
        ignore (Result.get_ok (Solver.solve_acs ~jobs ~warm_starts ~plan ~power ()));
        span_shape (Span.report ())
      in
      let seq = shape 1 in
      (* Both starts nest under the solve, also when pool workers
         (empty span stacks) run them. *)
      Alcotest.(check (option int)) "two starts under solve:acs" (Some 2)
        (List.assoc_opt "solve:acs/start" seq);
      Alcotest.(check (list (pair string int))) "jobs=2 same tree" seq (shape 2);
      Alcotest.(check (list (pair string int))) "jobs=4 same tree" seq (shape 4))

let test_span_nesting_and_raise () =
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.set_enabled true;
      Span.reset ();
      Span.with_ ~name:"outer" (fun () ->
          Alcotest.(check (option string)) "current" (Some "outer") (Span.current ());
          Span.with_ ~name:"inner" ignore;
          Span.with_ ~name:"inner" ignore);
      (try Span.with_ ~name:"raises" (fun () -> failwith "boom") with _ -> ());
      Alcotest.(check (list (pair string int))) "paths and counts"
        [ ("outer", 1); ("outer/inner", 2); ("raises", 1) ]
        (span_shape (Span.report ())))

(* --- pipeline degradation counters ------------------------------------- *)

let test_pipeline_degradation_counters () =
  let plan, power = motivation_plan_power () in
  let counter name stage =
    Metrics.counter ~labels:[ ("stage", stage) ] Metrics.default name
  in
  let value = Metrics.counter_value in
  let degradations = Metrics.counter Metrics.default "lepts_pipeline_degradations_total" in
  let acs_failures = counter "lepts_pipeline_failures_total" "acs" in
  let wcs_chosen = counter "lepts_pipeline_chosen_total" "wcs" in
  let before = (value degradations, value acs_failures, value wcs_chosen) in
  (* An exhausted ACS budget forces the WCS fallback: a degradation. *)
  let config =
    { Lepts_robust.Robust_solver.default_config with
      acs = { Lepts_core.Solver.default_budget with max_outer = 0 } }
  in
  let collector = Telemetry.collector () in
  (match Lepts_robust.Robust_solver.solve ~config ~telemetry:collector ~plan ~power () with
  | Error _ -> Alcotest.fail "pipeline failed outright"
  | Ok (_, diagnostics) ->
    Alcotest.(check bool) "fell back to wcs" true
      (diagnostics.Lepts_robust.Robust_solver.chosen = Lepts_robust.Robust_solver.Wcs));
  let d0, f0, c0 = before in
  Alcotest.(check int) "degradation counted" (d0 + 1) (value degradations);
  Alcotest.(check int) "acs failure counted" (f0 + 1) (value acs_failures);
  Alcotest.(check int) "wcs win counted" (c0 + 1) (value wcs_chosen);
  (* Only the stage that ran registered a sink. *)
  Alcotest.(check (list string)) "only wcs captured" [ "pipeline:wcs" ]
    (List.map
       (fun (s : Telemetry.solve) -> s.Telemetry.label)
       (Telemetry.solves collector))

let suite =
  [ Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
    Alcotest.test_case "histogram buckets, sum, reset" `Quick test_histogram;
    Alcotest.test_case "concurrent updates are exact" `Quick test_histogram_concurrent;
    Alcotest.test_case "ring wraparound keeps the tail" `Quick test_ring_wraparound;
    Alcotest.test_case "collector bounds and counts drops" `Quick test_collector_bounds;
    Alcotest.test_case "JSON export golden" `Quick test_json_golden;
    Alcotest.test_case "CSV exports golden" `Quick test_csv_golden;
    Alcotest.test_case "Prometheus export golden" `Quick test_prometheus_golden;
    Alcotest.test_case "real report is valid JSON" `Quick test_real_report_json_valid;
    Alcotest.test_case "solver bit-identical with telemetry (seq + par)" `Quick
      test_bit_identity_on_off;
    Alcotest.test_case "span tree identical across jobs" `Quick
      test_span_merge_deterministic;
    Alcotest.test_case "span nesting, counts, raise safety" `Quick
      test_span_nesting_and_raise;
    Alcotest.test_case "pipeline degradation counters" `Quick
      test_pipeline_degradation_counters ]
