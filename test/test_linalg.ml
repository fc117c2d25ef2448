open Lepts_linalg

let check_float = Alcotest.(check (float 1e-9))
let vec = Alcotest.testable Vec.pp (Vec.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9))

let test_vec_basics () =
  Alcotest.check vec "add" [| 4.; 6. |] (Vec.add [| 1.; 2. |] [| 3.; 4. |]);
  Alcotest.check vec "sub" [| -2.; -2. |] (Vec.sub [| 1.; 2. |] [| 3.; 4. |]);
  Alcotest.check vec "scale" [| 2.; 4. |] (Vec.scale 2. [| 1.; 2. |]);
  Alcotest.check vec "axpy" [| 5.; 8. |] (Vec.axpy 2. [| 1.; 2. |] [| 3.; 4. |]);
  check_float "dot" 11. (Vec.dot [| 1.; 2. |] [| 3.; 4. |]);
  check_float "norm2" 5. (Vec.norm2 [| 3.; 4. |]);
  check_float "norm_inf" 4. (Vec.norm_inf [| 3.; -4. |]);
  check_float "dist2" 5. (Vec.dist2 [| 0.; 0. |] [| 3.; 4. |])

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_helpers () =
  Alcotest.check vec "concat" [| 1.; 2.; 3. |] (Vec.concat [ [| 1. |]; [| 2.; 3. |] ]);
  Alcotest.check vec "map" [| 1.; 4. |] (Vec.map (fun x -> x *. x) [| 1.; 2. |]);
  Alcotest.check vec "map2" [| 3.; 8. |]
    (Vec.map2 (fun a b -> a *. b) [| 1.; 2. |] [| 3.; 4. |])

let suite =
  [ ("vec basics", `Quick, test_vec_basics);
    ("vec dimension mismatch", `Quick, test_vec_mismatch);
    ("vec helpers", `Quick, test_vec_helpers) ]
