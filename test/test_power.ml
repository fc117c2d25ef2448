open Lepts_power

let check_float eps = Alcotest.(check (float eps))

let ideal = Model.ideal ~v_min:1. ~v_max:4. ()

let test_ideal_cycle_time () =
  check_float 1e-12 "1V" 1. (Model.cycle_time ideal ~v:1.);
  check_float 1e-12 "2V halves" 0.5 (Model.cycle_time ideal ~v:2.);
  check_float 1e-12 "4V quarters" 0.25 (Model.cycle_time ideal ~v:4.)

let test_ideal_exec_time () =
  check_float 1e-12 "20 Mcycles at 2V" 10. (Model.exec_time ideal ~v:2. ~cycles:20.)

let test_energy_quadratic () =
  check_float 1e-12 "E = w v^2" 80. (Model.energy ideal ~v:2. ~cycles:20.);
  (* Doubling voltage quadruples energy. *)
  check_float 1e-12 "4x" 320. (Model.energy ideal ~v:4. ~cycles:20.)

let test_voltage_for_ideal () =
  check_float 1e-12 "inverse of exec_time" 2.
    (Model.voltage_for ideal ~cycles:20. ~duration:10.);
  (* Round trip at random points. *)
  let rng = Lepts_prng.Xoshiro256.create ~seed:3 in
  for _ = 1 to 100 do
    let v = Lepts_prng.Xoshiro256.uniform rng ~lo:0.5 ~hi:5. in
    let w = Lepts_prng.Xoshiro256.uniform rng ~lo:0.1 ~hi:100. in
    let d = Model.exec_time ideal ~v ~cycles:w in
    check_float 1e-9 "roundtrip" v (Model.voltage_for ideal ~cycles:w ~duration:d)
  done

let test_voltage_for_clamped () =
  check_float 1e-12 "below range" 1.
    (Model.voltage_for_clamped ideal ~cycles:1. ~duration:100.);
  check_float 1e-12 "above range" 4.
    (Model.voltage_for_clamped ideal ~cycles:100. ~duration:1.)

let test_min_duration () =
  check_float 1e-12 "at v_max" 5. (Model.min_duration ideal ~cycles:20.)

let test_utilization () =
  check_float 1e-12 "u" 0.25
    (Model.max_frequency_utilization ideal ~cycles:20. ~period:20.)

let test_invalid_args () =
  Alcotest.check_raises "bad c_eff"
    (Invalid_argument "Power.Model.ideal: c_eff must be positive") (fun () ->
      ignore (Model.ideal ~c_eff:0. ()));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Power.Model.ideal: need 0 < v_min <= v_max") (fun () ->
      ignore (Model.ideal ~v_min:3. ~v_max:2. ()));
  Alcotest.check_raises "bad c0"
    (Invalid_argument "Power.Model.ideal: c0 must be positive") (fun () ->
      ignore (Model.ideal ~c0:0. ()));
  Alcotest.check_raises "bad cycles"
    (Invalid_argument "Power.Model.voltage_for: cycles must be positive") (fun () ->
      ignore (Model.voltage_for ideal ~cycles:0. ~duration:1.));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Power.Model.voltage_for: duration must be positive") (fun () ->
      ignore (Model.voltage_for ideal ~cycles:1. ~duration:0.))

let test_levels_create () =
  let l = Levels.create [ 2.; 1.; 2.; 3. ] in
  Alcotest.(check bool) "sorted dedup" true (Levels.levels l = [| 1.; 2.; 3. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Power.Levels.create: empty level list")
    (fun () -> ignore (Levels.create []));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Power.Levels.create: non-positive level") (fun () ->
      ignore (Levels.create [ 1.; 0. ]))

let test_levels_of_range () =
  let l = Levels.of_range ~v_min:1. ~v_max:3. ~steps:5 in
  Alcotest.(check bool) "grid" true (Levels.levels l = [| 1.; 1.5; 2.; 2.5; 3. |])

let test_levels_rounding () =
  let l = Levels.create [ 1.; 2.; 3. ] in
  Alcotest.(check (option (float 0.))) "round up mid" (Some 2.) (Levels.round_up l 1.5);
  Alcotest.(check (option (float 0.))) "round up exact" (Some 2.) (Levels.round_up l 2.);
  Alcotest.(check (option (float 0.))) "round up above" None (Levels.round_up l 3.5);
  Alcotest.(check (option (float 0.))) "round down mid" (Some 1.) (Levels.round_down l 1.5);
  Alcotest.(check (option (float 0.))) "round down exact" (Some 2.) (Levels.round_down l 2.);
  Alcotest.(check (option (float 0.))) "round down below" None (Levels.round_down l 0.5)

let test_levels_quantize () =
  let l = Levels.create [ 1.; 2.; 3. ] in
  Alcotest.(check (float 0.)) "normal" 2. (Levels.quantize_for_deadline l 1.2);
  Alcotest.(check (float 0.)) "below bottom" 1. (Levels.quantize_for_deadline l 0.3);
  Alcotest.(check (float 0.)) "above top saturates" 3. (Levels.quantize_for_deadline l 9.)

let test_quantized_never_slower () =
  (* Rounding a voltage request up never lengthens execution. *)
  let l = Levels.of_range ~v_min:1. ~v_max:4. ~steps:7 in
  let rng = Lepts_prng.Xoshiro256.create ~seed:6 in
  for _ = 1 to 200 do
    let v = Lepts_prng.Xoshiro256.uniform rng ~lo:1. ~hi:4. in
    let vq = Levels.quantize_for_deadline l v in
    Alcotest.(check bool) "not slower" true
      (Model.cycle_time ideal ~v:vq <= Model.cycle_time ideal ~v +. 1e-12)
  done

let suite =
  [ ("ideal cycle time", `Quick, test_ideal_cycle_time);
    ("ideal exec time", `Quick, test_ideal_exec_time);
    ("energy quadratic in voltage", `Quick, test_energy_quadratic);
    ("voltage_for ideal roundtrip", `Quick, test_voltage_for_ideal);
    ("voltage_for clamped", `Quick, test_voltage_for_clamped);
    ("min duration", `Quick, test_min_duration);
    ("utilization", `Quick, test_utilization);
    ("invalid arguments", `Quick, test_invalid_args);
    ("levels create", `Quick, test_levels_create);
    ("levels of_range", `Quick, test_levels_of_range);
    ("levels rounding", `Quick, test_levels_rounding);
    ("levels quantize", `Quick, test_levels_quantize);
    ("quantized never slower", `Quick, test_quantized_never_slower) ]
