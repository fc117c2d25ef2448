type report = {
  x : float array;
  value : float;
  step_norm : float;
  iterations : int;
  converged : bool;
}

(* Same-module float max/min: without flambda the cross-module
   [Float.max]/[Float.min] calls box floats on every loop iteration.
   They can differ from the stdlib's only on signed zeros and NaN,
   which cannot change a result here: the operands are finite, and a
   zero's sign is lost in the comparisons that read them. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

let[@inline] fmin (x : float) (y : float) =
  if y < x || (x <> x && not (y <> y)) then y else x

(* Vector loops; the norms accumulate in ascending index order. *)
let axpy_into a (x : float array) (y : float array) ~(into : float array) =
  for i = 0 to Array.length x - 1 do
    into.(i) <- (a *. x.(i)) +. y.(i)
  done

let[@inline] norm2 (a : float array) =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. a.(i))
  done;
  sqrt !acc

let norm_inf (a : float array) =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := Float.max !acc (Float.abs a.(i))
  done;
  !acc

(* Fused one-pass kernels: the projected difference with its norm and
   slope, and the Barzilai–Borwein inner products, one accumulator per
   product in ascending index order. *)
let sub_norm_slope (xt : float array) (x : float array) (g : float array)
    ~(into : float array) =
  let n = Array.length into in
  let ss = ref 0. and sg = ref 0. in
  for i = 0 to n - 1 do
    let di = xt.(i) -. x.(i) in
    into.(i) <- di;
    ss := !ss +. (di *. di);
    sg := !sg +. (g.(i) *. di)
  done;
  (sqrt !ss, !sg)

let bb_terms (gn : float array) (g : float array) (d : float array)
    ~(into_y : float array) =
  let n = Array.length into_y in
  let sy = ref 0. and ss = ref 0. in
  for i = 0 to n - 1 do
    let yi = gn.(i) -. g.(i) in
    into_y.(i) <- yi;
    sy := !sy +. (d.(i) *. yi);
    ss := !ss +. (d.(i) *. d.(i))
  done;
  (!sy, !ss)

(* Objective values the non-monotone Armijo test looks back over. *)
let history = 10

(* All per-iteration vectors (trial point, search direction, gradients,
   BB difference) live in buffers allocated once here, so a run
   performs no per-iteration array allocation as long as [f],
   [grad_into] and [project_ip] are allocation-free themselves. *)
let minimize_ws ?telemetry ?should_stop ?(max_iter = 2000) ?(tol = 1e-9) ~f ~grad_into
    ~project_ip ~x0 () =
  let n = Array.length x0 in
  let x = ref (Array.copy x0) in
  project_ip !x;
  let fx = ref (Guard.finite ~where:"objective at x0" (f !x)) in
  let g = ref (Array.make n 0.) in
  grad_into !x ~into:!g;
  ignore (Guard.finite_vec ~where:"gradient at x0" !g);
  let xt = ref (Array.make n 0.) and gn = ref (Array.make n 0.) in
  let d = Array.make n 0. and y = Array.make n 0. in
  let recent = Array.make history !fx in
  let recent_idx = ref 0 in
  let push_value v =
    recent.(!recent_idx) <- v;
    recent_idx := (!recent_idx + 1) mod history
  in
  let reference () =
    let acc = ref neg_infinity in
    for i = 0 to history - 1 do
      acc := fmax !acc recent.(i)
    done;
    !acc
  in
  let step = ref (1. /. Float.max 1. (norm_inf !g)) in
  let iterations = ref 0 in
  let converged = ref false in
  let last_step_norm = ref infinity in
  (* External stop request (the solver's wall budget). Read-only with
     respect to the descent state: when it never fires the iterates are
     bit-identical to a run without it. *)
  let stop_requested =
    match should_stop with None -> fun () -> false | Some f -> f
  in
  (* Backtrack the trial step until the non-monotone Armijo test
     passes; the projected difference is the true search direction.
     [xt] and [d] are overwritten on every try. *)
  let rec attempt trial tries =
    if tries > 60 then `Stalled tries
    else begin
      axpy_into (-.trial) !g !x ~into:!xt;
      project_ip !xt;
      let dnorm, slope = sub_norm_slope !xt !x !g ~into:d in
      if dnorm = 0. then `Zero_step tries
      else
        let fx_trial = f !xt in
        if Float.is_finite fx_trial && fx_trial <= reference () +. (1e-4 *. slope)
        then `Accepted (fx_trial, dnorm, trial, tries)
        else attempt (trial /. 2.) (tries + 1)
    end
  in
  (* Observational only: telemetry pushes store already-computed
     scalars, so the float operations — and hence the iterates — are
     bit-identical with telemetry on or off. *)
  let observe ~objective ~step ~step_norm ~backtracks ~projections =
    match telemetry with
    | None -> ()
    | Some ring ->
      Lepts_obs.Telemetry.push ring ~iteration:!iterations ~objective ~step ~step_norm
        ~backtracks ~projections
  in
  while (not !converged) && !iterations < max_iter && not (stop_requested ()) do
    incr iterations;
    match attempt !step 0 with
    | `Stalled tries ->
      (* no progress possible at this scale *)
      converged := true;
      observe ~objective:!fx ~step:!step ~step_norm:!last_step_norm ~backtracks:tries
        ~projections:tries
    | `Zero_step tries ->
      last_step_norm := 0.;
      converged := true;
      observe ~objective:!fx ~step:!step ~step_norm:0. ~backtracks:tries
        ~projections:(tries + 1)
    | `Accepted (fx_next, dnorm, trial, tries) ->
      grad_into !xt ~into:!gn;
      ignore (Guard.finite_vec ~where:"gradient" !gn);
      (* Barzilai–Borwein step length for the next iteration. *)
      let sy, ss = bb_terms !gn !g d ~into_y:y in
      step := (if sy > 1e-16 then ss /. sy else fmin (2. *. !step) 1e6);
      if (not (Float.is_finite !step)) || !step <= 0. then step := 1.;
      let x_prev = !x in
      x := !xt;
      xt := x_prev;
      let g_prev = !g in
      g := !gn;
      gn := g_prev;
      fx := fx_next;
      push_value fx_next;
      last_step_norm := dnorm;
      let scale = fmax 1. (norm2 !x) in
      if !last_step_norm <= tol *. scale then converged := true;
      observe ~objective:fx_next ~step:trial ~step_norm:dnorm ~backtracks:tries
        ~projections:(tries + 1)
  done;
  { x = Array.copy !x; value = !fx; step_norm = !last_step_norm;
    iterations = !iterations; converged = !converged }
