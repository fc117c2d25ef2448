open Lepts_optim
module Vec = Lepts_linalg.Vec

let check_float eps = Alcotest.(check (float eps))

(* Classic test functions. *)
let sphere x = Vec.dot x x
let sphere_grad x = Vec.scale 2. x

let rosenbrock x =
  let a = 1. -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
  (a *. a) +. (100. *. b *. b)

let rosenbrock_grad x =
  let b = x.(1) -. (x.(0) *. x.(0)) in
  [| (-2. *. (1. -. x.(0))) -. (400. *. x.(0) *. b); 200. *. b |]

let quadratic_bowl c x = Vec.dot (Vec.sub x c) (Vec.sub x c)

(* --- Numdiff ------------------------------------------------------------ *)

let test_numdiff_quadratic () =
  let x = [| 1.; -2.; 3. |] in
  let g = Numdiff.gradient ~f:sphere x in
  Array.iteri
    (fun i gi -> check_float 1e-5 "d sphere" (2. *. x.(i)) gi)
    g

let test_numdiff_rosenbrock () =
  let x = [| 0.3; -0.7 |] in
  let num = Numdiff.gradient ~f:rosenbrock x in
  let ana = rosenbrock_grad x in
  Array.iteri (fun i gi -> check_float 1e-4 "d rosenbrock" ana.(i) gi) num

let test_numdiff_does_not_mutate () =
  let x = [| 1.; 2. |] in
  let copy = Array.copy x in
  ignore (Numdiff.gradient ~f:sphere x);
  Alcotest.(check bool) "input intact" true (x = copy)

(* --- Non-finite guards --------------------------------------------------- *)

let raises_non_finite f =
  try
    ignore (f ());
    false
  with Guard.Non_finite _ -> true

let test_numdiff_guards_nan () =
  (* A NaN objective near the evaluation point must trip the guard, not
     silently poison the gradient. *)
  let f x = if x.(0) > 1. then Float.nan else sphere x in
  Alcotest.(check bool) "nan objective detected" true
    (raises_non_finite (fun () -> Numdiff.gradient ~f [| 1.; 0. |]));
  let g x = if x.(0) > 1. then Float.infinity else sphere x in
  Alcotest.(check bool) "inf objective detected" true
    (raises_non_finite (fun () -> Numdiff.gradient ~f:g [| 1.; 0. |]))

let test_pg_guards_nan_at_start () =
  let f _ = Float.nan in
  let grad x = Vec.scale 2. x in
  Alcotest.(check bool) "nan objective at x0 detected" true
    (raises_non_finite (fun () ->
         Projected_gradient.minimize ~f ~grad ~project:Fun.id ~x0:[| 1. |] ()))

let test_pg_guards_nan_gradient () =
  let grad _ = [| Float.nan |] in
  Alcotest.(check bool) "nan gradient detected" true
    (raises_non_finite (fun () ->
         Projected_gradient.minimize ~f:sphere ~grad ~project:Fun.id ~x0:[| 1. |] ()))

let test_guard_passes_finite () =
  Alcotest.(check (float 0.)) "finite passthrough" 3.5
    (Guard.finite ~where:"x" 3.5);
  Alcotest.(check bool) "vector passthrough" true
    (Guard.finite_vec ~where:"v" [| 1.; 2. |] = [| 1.; 2. |])

(* --- Projections -------------------------------------------------------- *)

(* The production block projection over a one-block index, in place. *)
let simplex_ip ~total x =
  let n = Array.length x in
  Projection.simplex_blocks_ip ~off:[| 0; n |] ~idx:(Array.init n Fun.id)
    ~totals:[| total |] ~base:0 ~scratch:(Array.make n 0.) x

(* The same, as a function. *)
let simplex ~total x =
  let y = Array.copy x in
  simplex_ip ~total y;
  y

let simplex_sum x = Array.fold_left ( +. ) 0. x

let test_simplex_projection_basic () =
  let p = simplex ~total:1. [| 0.5; 0.5 |] in
  check_float 1e-12 "already feasible" 0.5 p.(0);
  let p = simplex ~total:1. [| 2.; 0. |] in
  check_float 1e-12 "vertex" 1. p.(0);
  check_float 1e-12 "vertex zero" 0. p.(1)

let test_simplex_projection_negative () =
  let p = simplex ~total:6. [| -1.; 5.; 10. |] in
  check_float 1e-9 "sums to total" 6. (simplex_sum p);
  Array.iter (fun v -> Alcotest.(check bool) "non-negative" true (v >= 0.)) p

let test_simplex_projection_property () =
  (* Projection optimality: for all feasible z, <x - p, z - p> <= 0. *)
  let rng = Lepts_prng.Xoshiro256.create ~seed:71 in
  for _ = 1 to 200 do
    let n = 1 + Lepts_prng.Xoshiro256.int rng ~bound:6 in
    let total = Lepts_prng.Xoshiro256.uniform rng ~lo:0.1 ~hi:10. in
    let x = Array.init n (fun _ -> Lepts_prng.Xoshiro256.uniform rng ~lo:(-5.) ~hi:5.) in
    let p = simplex ~total x in
    check_float 1e-8 "sum" total (simplex_sum p);
    Array.iter (fun v -> if v < -1e-12 then Alcotest.failf "negative %g" v) p;
    (* random feasible point via normalized exponentials *)
    let z = Array.init n (fun _ -> -.log (Float.max 1e-9 (Lepts_prng.Xoshiro256.float rng))) in
    let zs = simplex_sum z in
    let z = Array.map (fun v -> total *. v /. zs) z in
    let inner = Vec.dot (Vec.sub x p) (Vec.sub z p) in
    if inner > 1e-7 then Alcotest.failf "not a projection: %g" inner
  done

(* --- Projected gradient -------------------------------------------------- *)

let test_pg_unconstrained () =
  let r =
    Projected_gradient.minimize ~f:sphere ~grad:sphere_grad ~project:Fun.id
      ~x0:[| 4.; -2. |] ()
  in
  check_float 1e-8 "min" 0. r.Projected_gradient.value

(* Componentwise clamp onto [lo, hi]. *)
let clamp_box ~lo ~hi x = Array.mapi (fun i v -> Float.min hi.(i) (Float.max lo.(i) v)) x

let test_pg_box_active () =
  (* min (x-3)^2 over [0, 1]: solution at the bound x = 1. *)
  let f x = (x.(0) -. 3.) ** 2. in
  let grad x = [| 2. *. (x.(0) -. 3.) |] in
  let project = clamp_box ~lo:[| 0. |] ~hi:[| 1. |] in
  let r = Projected_gradient.minimize ~f ~grad ~project ~x0:[| 0. |] () in
  check_float 1e-8 "active bound" 1. r.Projected_gradient.x.(0)

let test_pg_simplex () =
  (* min sum (x_i - c_i)^2 over the simplex: projection of c. *)
  let c = [| 0.9; 0.4; -0.3 |] in
  let f x = Vec.dot (Vec.sub x c) (Vec.sub x c) in
  let grad x = Vec.scale 2. (Vec.sub x c) in
  let project = simplex ~total:1. in
  let r = Projected_gradient.minimize ~f ~grad ~project ~x0:[| 0.4; 0.3; 0.3 |] () in
  let expected = simplex ~total:1. c in
  Alcotest.(check bool) "matches direct projection" true
    (Vec.dist2 r.Projected_gradient.x expected < 1e-6)

let test_pg_infeasible_start () =
  let f x = Vec.dot x x in
  let grad x = Vec.scale 2. x in
  let project = clamp_box ~lo:[| 1.; 1. |] ~hi:[| 2.; 2. |] in
  let r = Projected_gradient.minimize ~f ~grad ~project ~x0:[| -10.; 10. |] () in
  Alcotest.(check bool) "lands at corner" true
    (Vec.dist2 r.Projected_gradient.x [| 1.; 1. |] < 1e-7)

(* --- NLP / augmented Lagrangian ------------------------------------------ *)

let test_linear_constraint () =
  let c = Nlp.linear_constraint ~name:"test" ~coeffs:[ (0, 2.); (2, -1.) ] ~bound:3. in
  check_float 1e-12 "value" (-1.) (c.Nlp.value [| 1.; 9.; 0. |]);
  let g = Array.make 3 0. in
  c.Nlp.add_gradient ~x:[| 0.; 0.; 0. |] ~scale:1. ~into:g;
  Alcotest.(check bool) "gradient" true (g = [| 2.; 0.; -1. |])

let test_al_equality_via_projection () =
  (* min (x0-2)^2 + (x1-2)^2 s.t. x on simplex(1): symmetric -> (0.5, 0.5). *)
  let f x = ((x.(0) -. 2.) ** 2.) +. ((x.(1) -. 2.) ** 2.) in
  let grad x = [| 2. *. (x.(0) -. 2.); 2. *. (x.(1) -. 2.) |] in
  let problem =
    { Nlp.dim = 2; objective = f; gradient = grad; inequalities = [];
      project = simplex ~total:1. }
  in
  let r = Augmented_lagrangian.solve problem ~x0:[| 1.; 0. |] in
  Alcotest.(check bool) "symmetric solution" true
    (Vec.dist2 r.Augmented_lagrangian.x [| 0.5; 0.5 |] < 1e-6)

let test_al_inequality_active () =
  (* min x^2 + y^2  s.t. x + y >= 1  (as 1 - x - y <= 0): optimum (0.5, 0.5). *)
  let f x = Vec.dot x x in
  let grad x = Vec.scale 2. x in
  let c =
    Nlp.linear_constraint ~name:"sum>=1" ~coeffs:[ (0, -1.); (1, -1.) ] ~bound:(-1.)
  in
  let problem =
    { Nlp.dim = 2; objective = f; gradient = grad; inequalities = [ c ];
      project = Fun.id }
  in
  let r = Augmented_lagrangian.solve problem ~x0:[| 0.; 0. |] in
  Alcotest.(check bool) "converged" true r.Augmented_lagrangian.converged;
  Alcotest.(check bool) "KKT point" true
    (Vec.dist2 r.Augmented_lagrangian.x [| 0.5; 0.5 |] < 1e-4)

let test_al_inequality_inactive () =
  (* Same objective, constraint x + y <= 10 is inactive: optimum origin. *)
  let f x = Vec.dot x x in
  let grad x = Vec.scale 2. x in
  let c = Nlp.linear_constraint ~name:"loose" ~coeffs:[ (0, 1.); (1, 1.) ] ~bound:10. in
  let problem =
    { Nlp.dim = 2; objective = f; gradient = grad; inequalities = [ c ];
      project = Fun.id }
  in
  let r = Augmented_lagrangian.solve problem ~x0:[| 3.; 4. |] in
  check_float 1e-6 "origin" 0. r.Augmented_lagrangian.value

let test_al_multiple_constraints () =
  (* min (x-3)^2 s.t. x <= 1 and -x <= 0 -> x = 1. *)
  let f x = (x.(0) -. 3.) ** 2. in
  let grad x = [| 2. *. (x.(0) -. 3.) |] in
  let problem =
    { Nlp.dim = 1; objective = f; gradient = grad;
      inequalities =
        [ Nlp.linear_constraint ~name:"ub" ~coeffs:[ (0, 1.) ] ~bound:1.;
          Nlp.linear_constraint ~name:"lb" ~coeffs:[ (0, -1.) ] ~bound:0. ];
      project = Fun.id }
  in
  let r = Augmented_lagrangian.solve problem ~x0:[| 0.5 |] in
  check_float 1e-4 "bound" 1. r.Augmented_lagrangian.x.(0)

let test_nlp_max_violation () =
  (* Feasible region: 2 <= x <= 5. *)
  let c1 = Nlp.linear_constraint ~name:"lb" ~coeffs:[ (0, -1.) ] ~bound:(-2.) in
  let c2 = Nlp.linear_constraint ~name:"ub" ~coeffs:[ (0, 1.) ] ~bound:5. in
  let p =
    { Nlp.dim = 1; objective = (fun _ -> 0.); gradient = (fun _ -> [| 0. |]);
      inequalities = [ c1; c2 ]; project = Fun.id }
  in
  check_float 1e-12 "violated by 1" 1. (Nlp.max_violation p [| 1. |]);
  check_float 1e-12 "feasible" 0. (Nlp.max_violation p [| 2.5 |]);
  check_float 1e-12 "upper violated" 2. (Nlp.max_violation p [| 7. |])

(* --- Workspace variants: bit-for-bit parity ----------------------------- *)

let check_bits msg expect got =
  if not (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float got)) then
    Alcotest.failf "%s: %h <> %h" msg expect got

let test_simplex_ip_bitwise () =
  (* Random vectors — duplicates, negatives, zeros, a large block — and
     assorted totals: the dense reference's in-place projection (with
     its monomorphic sort) and the production kernel must both return
     exactly the reference [simplex]'s values. *)
  let rng = Lepts_prng.Xoshiro256.create ~seed:1234 in
  let rand_vec n =
    Array.init n (fun _ -> (Lepts_prng.Xoshiro256.float rng *. 10.) -. 4.)
  in
  let cases =
    [ ([| 0.5; 0.5 |], 1.); ([| 2.; 0. |], 1.); ([| -1.; 5.; 10. |], 6.);
      ([| 3.; 3.; 3.; 3. |], 5.); ([| 0.; 0.; 0. |], 2.);
      (rand_vec 7, 4.2); (rand_vec 19, 0.); (rand_vec 19, 11.5);
      (rand_vec 64, 30.) ]
  in
  List.iter
    (fun (x, total) ->
      let expect = Reference.simplex ~total x in
      let got = Array.copy x in
      let scratch = Array.make (Array.length x) 0. in
      Reference.simplex_ip ~total ~scratch got;
      let fast = simplex ~total x in
      Array.iteri
        (fun i v ->
          check_bits (Printf.sprintf "coord %d" i) v got.(i);
          check_bits (Printf.sprintf "fast coord %d" i) v fast.(i))
        expect)
    cases

let test_minimize_ws_bitwise () =
  (* The allocating front-end and the workspace core must agree exactly
     on a projected problem that takes real iterations to solve. *)
  let c = [| 0.3; 1.4; -0.2; 0.9 |] in
  let f x = quadratic_bowl c x in
  let grad x = Vec.scale 2. (Vec.sub x c) in
  let project = simplex ~total:1. in
  let x0 = [| 2.; -1.; 0.5; 3. |] in
  let r =
    Projected_gradient.minimize ~max_iter:500 ~f ~grad ~project ~x0 ()
  in
  let grad_into x ~into = Array.blit (grad x) 0 into 0 (Array.length x) in
  let project_ip x = simplex_ip ~total:1. x in
  let r_ws =
    Projected_gradient.minimize_ws ~max_iter:500 ~f ~grad_into ~project_ip ~x0 ()
  in
  Alcotest.(check bool) "converged" true r_ws.Projected_gradient.converged;
  Alcotest.(check int) "iterations" r.Projected_gradient.iterations
    r_ws.Projected_gradient.iterations;
  check_bits "value" r.Projected_gradient.value r_ws.Projected_gradient.value;
  check_bits "step norm" r.Projected_gradient.step_norm
    r_ws.Projected_gradient.step_norm;
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "x.(%d)" i) v r_ws.Projected_gradient.x.(i))
    r.Projected_gradient.x

let suite =
  [ ("numdiff quadratic", `Quick, test_numdiff_quadratic);
    ("numdiff rosenbrock", `Quick, test_numdiff_rosenbrock);
    ("numdiff purity", `Quick, test_numdiff_does_not_mutate);
    ("numdiff nan guard", `Quick, test_numdiff_guards_nan);
    ("pg nan objective guard", `Quick, test_pg_guards_nan_at_start);
    ("pg nan gradient guard", `Quick, test_pg_guards_nan_gradient);
    ("guard finite passthrough", `Quick, test_guard_passes_finite);
    ("simplex projection basic", `Quick, test_simplex_projection_basic);
    ("simplex projection negatives", `Quick, test_simplex_projection_negative);
    ("simplex projection optimality", `Quick, test_simplex_projection_property);
    ("pg unconstrained", `Quick, test_pg_unconstrained);
    ("pg active box", `Quick, test_pg_box_active);
    ("pg simplex", `Quick, test_pg_simplex);
    ("pg infeasible start", `Quick, test_pg_infeasible_start);
    ("linear constraint", `Quick, test_linear_constraint);
    ("al projection equality", `Quick, test_al_equality_via_projection);
    ("al active inequality", `Quick, test_al_inequality_active);
    ("al inactive inequality", `Quick, test_al_inequality_inactive);
    ("al multiple constraints", `Quick, test_al_multiple_constraints);
    ("nlp max violation", `Quick, test_nlp_max_violation);
    ("simplex_ip bit-identical to simplex", `Quick, test_simplex_ip_bitwise);
    ("minimize_ws bit-identical to minimize", `Quick, test_minimize_ws_bitwise) ]
