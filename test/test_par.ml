open Lepts_par

let test_matches_sequential () =
  let f i = (i * 31) + (i mod 7) in
  List.iter
    (fun n ->
      let expected = Array.init n f in
      List.iter
        (fun jobs ->
          let got, _ = Pool.run ~jobs ~n ~f in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            expected got)
        [ 1; 2; 3; 5; 16 ])
    [ 0; 1; 2; 7; 100; 1000 ]

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d" jobs)
        (Failure "boom")
        (fun () ->
          ignore
            (Pool.run ~jobs ~n:50 ~f:(fun i ->
                 if i = 37 then failwith "boom" else i))))
    [ 1; 3 ]

let test_invalid_args () =
  Alcotest.check_raises "jobs = 0" (Invalid_argument "Pool.run: jobs must be positive")
    (fun () -> ignore (Pool.run ~jobs:0 ~n:1 ~f:(fun i -> i)));
  Alcotest.check_raises "n < 0" (Invalid_argument "Pool.run: n must be non-negative")
    (fun () -> ignore (Pool.run ~jobs:1 ~n:(-1) ~f:(fun i -> i)))

let test_stats_accounting () =
  let n = 200 in
  let _, stats = Pool.run ~jobs:3 ~n ~f:(fun i -> i) in
  Alcotest.(check int) "items" n stats.Pool.items;
  Alcotest.(check int) "per-domain sums to n" n
    (Array.fold_left ( + ) 0 stats.Pool.per_domain_items);
  Alcotest.(check int) "jobs recorded" 3 stats.Pool.jobs;
  Alcotest.(check int) "one busy slot per domain" 3
    (Array.length stats.Pool.per_domain_busy_s)

let test_jobs_capped_at_n () =
  (* More workers than items: capped, and every index still computed once. *)
  let got, stats = Pool.run ~jobs:16 ~n:3 ~f:(fun i -> i * i) in
  Alcotest.(check (array int)) "values" [| 0; 1; 4 |] got;
  Alcotest.(check bool) "jobs capped" true (stats.Pool.jobs <= 3);
  Alcotest.(check int) "per-domain sums to n" 3
    (Array.fold_left ( + ) 0 stats.Pool.per_domain_items)

let test_empty () =
  let got, stats = Pool.run ~jobs:4 ~n:0 ~f:(fun _ -> assert false) in
  Alcotest.(check int) "no results" 0 (Array.length got);
  Alcotest.(check int) "no items" 0 stats.Pool.items

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

let test_pool_reuse_across_submits () =
  (* One pool, several batches: same workers, results always match
     sequential. *)
  let pool = Pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 3 (Pool.size pool);
      List.iter
        (fun n ->
          let f i = (i * 13) + n in
          let got, stats = Pool.submit pool ~n ~f in
          Alcotest.(check (array int))
            (Printf.sprintf "batch n=%d" n)
            (Array.init n f) got;
          Alcotest.(check int) "items" n stats.Pool.items;
          Alcotest.(check int) "per-domain sums to n" n
            (Array.fold_left ( + ) 0 stats.Pool.per_domain_items))
        [ 50; 0; 7; 200; 1 ])

let test_pool_usable_after_exception () =
  (* A batch that throws must not poison the workers: the exception
     propagates and the next submit on the same pool still works. *)
  let pool = Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "mid-batch failure" (Failure "boom") (fun () ->
          ignore
            (Pool.submit pool ~n:40 ~f:(fun i ->
                 if i = 23 then failwith "boom" else i)));
      let got, _ = Pool.submit pool ~n:20 ~f:(fun i -> i * i) in
      Alcotest.(check (array int)) "pool still works"
        (Array.init 20 (fun i -> i * i))
        got)

let test_pool_shutdown_semantics () =
  let pool = Pool.create ~jobs:2 in
  let got, _ = Pool.submit pool ~n:5 ~f:(fun i -> i) in
  Alcotest.(check (array int)) "before shutdown" [| 0; 1; 2; 3; 4 |] got;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool ~n:1 ~f:(fun i -> i)));
  Alcotest.check_raises "create with jobs = 0"
    (Invalid_argument "Pool.create: jobs must be positive") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_busy_counts_work_not_waiting () =
  (* Satellite fix: per_domain_busy_s must measure in-chunk time, not
     whole-worker wall time. With one slow item and two workers, the
     idle worker's busy time must be (near) zero even though it waits
     for the batch to finish. *)
  let pool = Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let _, stats = Pool.submit pool ~n:1 ~f:(fun _ -> Unix.sleepf 0.05) in
      let busy = Array.copy stats.Pool.per_domain_busy_s in
      Array.sort compare busy;
      Alcotest.(check bool) "idle worker's busy stays near zero" true
        (busy.(0) < 0.02);
      Alcotest.(check bool) "working domain accounted" true (busy.(1) >= 0.04))

let test_nested_run_falls_back () =
  (* Pool.run issued from inside a pool worker must not deadlock on the
     shared pool: it degrades to sequential with identical results. *)
  let outer = Array.init 6 (fun i -> i) in
  let got, _ =
    Pool.run ~jobs:3 ~n:(Array.length outer) ~f:(fun i ->
        let inner, _ = Pool.run ~jobs:3 ~n:4 ~f:(fun j -> (i * 10) + j) in
        Array.fold_left ( + ) 0 inner)
  in
  let expected =
    Array.map (fun i -> (4 * 10 * i) + 6) outer
  in
  Alcotest.(check (array int)) "nested run matches" expected got

let test_run_spawns_domains_once () =
  (* Twenty batches on the shared pool see the same [jobs] domains: the
     workers are spawned once, not per call. Each item sleeps so that
     every worker claims some. *)
  let ids = Hashtbl.create 8 in
  for _ = 1 to 20 do
    let got, _ =
      Pool.run ~jobs:3 ~n:30 ~f:(fun _ ->
          Unix.sleepf 0.0005;
          (Domain.self () :> int))
    in
    Array.iter (fun id -> Hashtbl.replace ids id ()) got
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct domains <= 3" (Hashtbl.length ids))
    true
    (Hashtbl.length ids <= 3)

let suite =
  [ ("parallel matches sequential", `Quick, test_matches_sequential);
    ("exception propagates", `Quick, test_exception_propagates);
    ("invalid arguments", `Quick, test_invalid_args);
    ("stats accounting", `Quick, test_stats_accounting);
    ("jobs capped at n", `Quick, test_jobs_capped_at_n);
    ("empty index space", `Quick, test_empty);
    ("default jobs", `Quick, test_default_jobs_positive);
    ("pool reuse across submits", `Quick, test_pool_reuse_across_submits);
    ("pool usable after exception", `Quick, test_pool_usable_after_exception);
    ("pool shutdown semantics", `Quick, test_pool_shutdown_semantics);
    ("busy counts work not waiting", `Quick, test_busy_counts_work_not_waiting);
    ("nested run falls back", `Quick, test_nested_run_falls_back);
    ("run spawns domains once", `Quick, test_run_spawns_domains_once) ]
