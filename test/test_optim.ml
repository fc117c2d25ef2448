open Lepts_optim

let check_float eps = Alcotest.(check (float eps))

let dot a b =
  let acc = ref 0. in
  Array.iteri (fun i ai -> acc := !acc +. (ai *. b.(i))) a;
  !acc

let sub a b = Array.mapi (fun i ai -> ai -. b.(i)) a
let dist2 a b = sqrt (dot (sub a b) (sub a b))

(* Classic test functions. *)
let sphere x = dot x x
let sphere_grad_into x ~into = Array.iteri (fun i xi -> into.(i) <- 2. *. xi) x

let rosenbrock x =
  let a = 1. -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
  (a *. a) +. (100. *. b *. b)

let rosenbrock_grad x =
  let b = x.(1) -. (x.(0) *. x.(0)) in
  [| (-2. *. (1. -. x.(0))) -. (400. *. x.(0) *. b); 200. *. b |]

let quadratic_bowl c x = dot (sub x c) (sub x c)

let minimize ~f ~grad_into ?(project_ip = ignore) x0 =
  Projected_gradient.minimize_ws ~f ~grad_into ~project_ip ~x0 ()

(* --- Numdiff (the test suite's gradient oracle) -------------------------- *)

module Numdiff = Reference.Numdiff

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
  Alcotest.(check bool) "nan objective at x0 detected" true
    (raises_non_finite (fun () -> minimize ~f ~grad_into:sphere_grad_into [| 1. |]))

let test_pg_guards_nan_gradient () =
  let grad_into _ ~into = into.(0) <- Float.nan in
  Alcotest.(check bool) "nan gradient detected" true
    (raises_non_finite (fun () -> minimize ~f:sphere ~grad_into [| 1. |]))

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
    let inner = dot (sub x p) (sub z p) in
    if inner > 1e-7 then Alcotest.failf "not a projection: %g" inner
  done

(* --- Projected gradient -------------------------------------------------- *)

let test_pg_unconstrained () =
  let r = minimize ~f:sphere ~grad_into:sphere_grad_into [| 4.; -2. |] in
  check_float 1e-8 "min" 0. r.Projected_gradient.value

(* Componentwise clamp onto [lo, hi], in place. *)
let clamp_box ~lo ~hi x =
  Array.iteri (fun i v -> x.(i) <- Float.min hi.(i) (Float.max lo.(i) v)) x

let test_pg_box_active () =
  (* min (x-3)^2 over [0, 1]: solution at the bound x = 1. *)
  let f x = (x.(0) -. 3.) ** 2. in
  let grad_into x ~into = into.(0) <- 2. *. (x.(0) -. 3.) in
  let project_ip = clamp_box ~lo:[| 0. |] ~hi:[| 1. |] in
  let r = minimize ~f ~grad_into ~project_ip [| 0. |] in
  check_float 1e-8 "active bound" 1. r.Projected_gradient.x.(0)

let test_pg_simplex () =
  (* min sum (x_i - c_i)^2 over the simplex: projection of c. *)
  let c = [| 0.9; 0.4; -0.3 |] in
  let f = quadratic_bowl c in
  let grad_into x ~into = Array.iteri (fun i xi -> into.(i) <- 2. *. (xi -. c.(i))) x in
  let r = minimize ~f ~grad_into ~project_ip:(simplex_ip ~total:1.) [| 0.4; 0.3; 0.3 |] in
  let expected = simplex ~total:1. c in
  Alcotest.(check bool) "matches direct projection" true
    (dist2 r.Projected_gradient.x expected < 1e-6)

let test_pg_infeasible_start () =
  let project_ip = clamp_box ~lo:[| 1.; 1. |] ~hi:[| 2.; 2. |] in
  let r = minimize ~f:sphere ~grad_into:sphere_grad_into ~project_ip [| -10.; 10. |] in
  Alcotest.(check bool) "lands at corner" true
    (dist2 r.Projected_gradient.x [| 1.; 1. |] < 1e-7)

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

(* --- minimize_ws loop exits ------------------------------------------------ *)

(* Each toy problem ends the descent through one of its three exits; the
   report and every iteration's (backtracks, projections) are pinned. *)
let run_traced ?tol ~f ~grad_into ~project_ip x0 =
  let ring = Lepts_obs.Telemetry.ring ~capacity:16 in
  let r =
    Projected_gradient.minimize_ws ~telemetry:ring ?tol ~f ~grad_into ~project_ip ~x0 ()
  in
  let counts =
    List.map
      (fun (rc : Lepts_obs.Telemetry.record) ->
        (rc.Lepts_obs.Telemetry.backtracks, rc.Lepts_obs.Telemetry.projections))
      (Lepts_obs.Telemetry.records ring)
  in
  (r, counts)

let check_exit ~iterations ~step_norm ~counts (r, got) =
  Alcotest.(check int) "iterations" iterations r.Projected_gradient.iterations;
  Alcotest.(check bool) "converged" true r.Projected_gradient.converged;
  check_bits "step norm" step_norm r.Projected_gradient.step_norm;
  Alcotest.(check (list (pair int int))) "backtracks, projections" counts got

let test_exit_accepted () =
  (* A sharp bowl: the first step halves 7 times, the second is accepted
     below [tol]. *)
  let f x = (100. *. x.(0) *. x.(0)) +. (x.(1) *. x.(1)) in
  let grad_into x ~into =
    into.(0) <- 200. *. x.(0);
    into.(1) <- 2. *. x.(1)
  in
  check_exit ~iterations:2 ~step_norm:0x1.2e5b844800081p-11 ~counts:[ (7, 8); (0, 1) ]
    (run_traced ~tol:1e-3 ~f ~grad_into ~project_ip:ignore [| 0.001; 0.01 |])

let test_exit_zero_step () =
  (* min (x-3)^2 over [0, 1]: the second trial projects back onto x = 1. *)
  let f x = (x.(0) -. 3.) *. (x.(0) -. 3.) in
  let grad_into x ~into = into.(0) <- 2. *. (x.(0) -. 3.) in
  let project_ip x = x.(0) <- Float.min 1. (Float.max 0. x.(0)) in
  check_exit ~iterations:2 ~step_norm:0. ~counts:[ (0, 1); (0, 1) ]
    (run_traced ~f ~grad_into ~project_ip [| 0. |])

let test_exit_stall () =
  (* |x| at its kink with subgradient 1: no halving of the step descends,
     so the first iteration stalls after 61 tries and no step is ever
     accepted. *)
  let f x = Float.abs x.(0) in
  let grad_into x ~into = into.(0) <- (if x.(0) >= 0. then 1. else -1.) in
  check_exit ~iterations:1 ~step_norm:infinity ~counts:[ (61, 61) ]
    (run_traced ~f ~grad_into ~project_ip:ignore [| 0. |])

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
    ("simplex_ip bit-identical to simplex", `Quick, test_simplex_ip_bitwise);
    ("minimize_ws exit: accepted step", `Quick, test_exit_accepted);
    ("minimize_ws exit: zero step", `Quick, test_exit_zero_step);
    ("minimize_ws exit: stall", `Quick, test_exit_stall) ]
