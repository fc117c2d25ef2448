open Lepts_util

let check_float = Alcotest.(check (float 1e-9))

let test_gcd () =
  Alcotest.(check int) "gcd 12 18" 6 (Num_ext.gcd 12 18);
  Alcotest.(check int) "gcd 7 13" 1 (Num_ext.gcd 7 13);
  Alcotest.(check int) "gcd 0 5" 5 (Num_ext.gcd 0 5);
  Alcotest.(check int) "gcd 5 0" 5 (Num_ext.gcd 5 0);
  Alcotest.(check int) "gcd 0 0" 0 (Num_ext.gcd 0 0);
  Alcotest.(check int) "gcd negative" 6 (Num_ext.gcd (-12) 18)

let test_lcm () =
  Alcotest.(check int) "lcm 4 6" 12 (Num_ext.lcm 4 6);
  Alcotest.(check int) "lcm 5 7" 35 (Num_ext.lcm 5 7);
  Alcotest.(check int) "lcm 0 5" 0 (Num_ext.lcm 0 5);
  Alcotest.(check int) "lcm equal" 9 (Num_ext.lcm 9 9)

let test_lcm_list () =
  Alcotest.(check int) "empty" 1 (Num_ext.lcm_list []);
  Alcotest.(check int) "singleton" 8 (Num_ext.lcm_list [ 8 ]);
  Alcotest.(check int) "periods" 96 (Num_ext.lcm_list [ 24; 48; 96 ]);
  Alcotest.(check int) "coprimes" 30 (Num_ext.lcm_list [ 2; 3; 5 ])

let test_lcm_overflow () =
  Alcotest.check_raises "overflow" (Invalid_argument "Num_ext.lcm: overflow")
    (fun () -> ignore (Num_ext.lcm max_int (max_int - 1)))

let test_clamp () =
  check_float "inside" 3. (Num_ext.clamp ~lo:0. ~hi:10. 3.);
  check_float "below" 0. (Num_ext.clamp ~lo:0. ~hi:10. (-5.));
  check_float "above" 10. (Num_ext.clamp ~lo:0. ~hi:10. 15.);
  check_float "degenerate interval" 2. (Num_ext.clamp ~lo:2. ~hi:2. 7.)

let test_approx_equal () =
  Alcotest.(check bool) "equal" true (Num_ext.approx_equal 1.0 1.0);
  Alcotest.(check bool) "close" true (Num_ext.approx_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Num_ext.approx_equal 1.0 1.1);
  Alcotest.(check bool) "relative on large" true
    (Num_ext.approx_equal 1e12 (1e12 +. 1.));
  Alcotest.(check bool) "custom eps" true (Num_ext.approx_equal ~eps:0.2 1.0 1.1)

let test_sum () =
  check_float "empty" 0. (Num_ext.sum [||]);
  check_float "simple" 6. (Num_ext.sum [| 1.; 2.; 3. |]);
  (* Kahan compensation: naive summation loses the small terms. *)
  let xs = Array.make 10_001 1e-10 in
  xs.(0) <- 1e10;
  check_float "compensated" (1e10 +. 1e-6) (Num_ext.sum xs)

let test_mean_variance () =
  check_float "mean" 2. (Stats.mean [| 1.; 2.; 3. |]);
  check_float "variance" 1. (Stats.variance [| 1.; 2.; 3. |]);
  check_float "stddev" 1. (Stats.stddev [| 1.; 2.; 3. |]);
  check_float "variance pair" 0.5 (Stats.variance [| 1.; 2. |]);
  (* Sample variance is undefined below two samples: it must refuse, not
     silently report zero spread. *)
  Alcotest.check_raises "variance singleton"
    (Invalid_argument "Stats.variance: need at least two samples") (fun () ->
      ignore (Stats.variance [| 5. |]));
  Alcotest.check_raises "variance empty"
    (Invalid_argument "Stats.variance: need at least two samples") (fun () ->
      ignore (Stats.variance [||]));
  Alcotest.check_raises "mean empty" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.; 1.; 2. |] in
  check_float "min" 1. lo;
  check_float "max" 3. hi

let test_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "p0" 10. (Stats.percentile xs ~p:0.);
  check_float "p50" 30. (Stats.percentile xs ~p:50.);
  check_float "p100" 50. (Stats.percentile xs ~p:100.);
  check_float "p25 interpolated" 20. (Stats.percentile xs ~p:25.);
  check_float "p10 interpolated" 14. (Stats.percentile xs ~p:10.);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile xs ~p:101.));
  Alcotest.check_raises "negative p"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile xs ~p:(-1.)))

let test_percentile_edges () =
  (* Single element: every percentile is that element. *)
  List.iter
    (fun p -> check_float "singleton" 7. (Stats.percentile [| 7. |] ~p))
    [ 0.; 25.; 50.; 100. ];
  (* Ties: interpolation between equal neighbours stays on the tie. *)
  let ties = [| 1.; 2.; 2.; 2.; 3. |] in
  check_float "ties p25" 2. (Stats.percentile ties ~p:25.);
  check_float "ties p50" 2. (Stats.percentile ties ~p:50.);
  check_float "ties p75" 2. (Stats.percentile ties ~p:75.);
  (* Unsorted input: percentile must sort internally. *)
  let unsorted = [| 50.; 10.; 40.; 20.; 30. |] in
  check_float "unsorted p0" 10. (Stats.percentile unsorted ~p:0.);
  check_float "unsorted p100" 50. (Stats.percentile unsorted ~p:100.);
  check_float "unsorted p50" 30. (Stats.percentile unsorted ~p:50.)

let test_table_render () =
  let t = Table.create ~header:[ "a"; "long-col" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0 && String.sub rendered 0 1 <> " " || true);
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "line count (2 rows + header + rule + trailing)" 5
    (List.length lines);
  (* All lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths

let test_table_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: cell count does not match header") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "float" "3.14" (Table.float_cell ~decimals:2 3.14159);
  Alcotest.(check string) "percent" "12.3 %" (Table.percent_cell 12.34)

let suite =
  [ ("gcd", `Quick, test_gcd);
    ("lcm", `Quick, test_lcm);
    ("lcm_list", `Quick, test_lcm_list);
    ("lcm overflow", `Quick, test_lcm_overflow);
    ("clamp", `Quick, test_clamp);
    ("approx_equal", `Quick, test_approx_equal);
    ("kahan sum", `Quick, test_sum);
    ("mean/variance", `Quick, test_mean_variance);
    ("min_max", `Quick, test_min_max);
    ("percentile", `Quick, test_percentile);
    ("percentile edge cases", `Quick, test_percentile_edges);
    ("table render", `Quick, test_table_render);
    ("table arity", `Quick, test_table_mismatch);
    ("table cells", `Quick, test_table_cells) ]
