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

(* Vector loops; the norms accumulate in ascending index order.
   [axpy_into] is inlined so its scalar is not boxed for the call. *)
let[@inline] axpy_into a (x : float array) (y : float array) ~(into : float array) =
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
   product in ascending index order. Each writes its two scalars into
   [out], a float array, so no pair or float is boxed to return them. *)
let sub_norm_slope (xt : float array) (x : float array) (g : float array)
    ~(into : float array) ~(out : float array) =
  let n = Array.length into in
  let ss = ref 0. and sg = ref 0. in
  for i = 0 to n - 1 do
    let di = xt.(i) -. x.(i) in
    into.(i) <- di;
    ss := !ss +. (di *. di);
    sg := !sg +. (g.(i) *. di)
  done;
  out.(0) <- sqrt !ss;
  out.(1) <- !sg

let bb_terms (gn : float array) (g : float array) (d : float array)
    ~(into_y : float array) ~(out : float array) =
  let n = Array.length into_y in
  let sy = ref 0. and ss = ref 0. in
  for i = 0 to n - 1 do
    let yi = gn.(i) -. g.(i) in
    into_y.(i) <- yi;
    sy := !sy +. (d.(i) *. yi);
    ss := !ss +. (d.(i) *. d.(i))
  done;
  out.(0) <- !sy;
  out.(1) <- !ss

(* Objective values the non-monotone Armijo test looks back over. *)
let history = 10

(* How an iteration's backtracking stands: constant constructors, so
   the descent loop tests and stores them without allocating. *)
type search = Searching | Stalled | Zero_step | Accepted

(* All per-iteration vectors (trial point, search direction, gradients,
   BB difference, the kernels' scalar pair) live in buffers allocated
   once here, and every per-iteration scalar is a local float that
   never crosses a closure call, so an iteration allocates nothing of
   its own beyond the boxed float [f] returns — as long as [f],
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
  let pair = Array.make 2 0. in
  let recent = Array.make history !fx in
  let recent_idx = ref 0 in
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
  while (not !converged) && !iterations < max_iter && not (stop_requested ()) do
    incr iterations;
    (* Backtrack the trial step until the non-monotone Armijo test
       passes against the largest of the recent objective values; the
       projected difference is the true search direction. [xt] and [d]
       are overwritten on every try. *)
    let trial = ref !step and tries = ref 0 and status = ref Searching in
    let fx_trial = ref 0. and dnorm = ref 0. in
    while !status = Searching do
      if !tries > 60 then status := Stalled
      else begin
        axpy_into (-. !trial) !g !x ~into:!xt;
        project_ip !xt;
        sub_norm_slope !xt !x !g ~into:d ~out:pair;
        dnorm := pair.(0);
        if !dnorm = 0. then status := Zero_step
        else begin
          fx_trial := f !xt;
          let reference = ref neg_infinity in
          for i = 0 to history - 1 do
            reference := fmax !reference recent.(i)
          done;
          if Float.is_finite !fx_trial && !fx_trial <= !reference +. (1e-4 *. pair.(1))
          then status := Accepted
          else begin
            trial := !trial /. 2.;
            incr tries
          end
        end
      end
    done;
    if !status = Stalled then
      (* no progress possible at this scale *)
      converged := true
    else if !status = Zero_step then begin
      last_step_norm := 0.;
      converged := true
    end
    else begin
      grad_into !xt ~into:!gn;
      ignore (Guard.finite_vec ~where:"gradient" !gn);
      (* Barzilai–Borwein step length for the next iteration. *)
      bb_terms !gn !g d ~into_y:y ~out:pair;
      let sy = pair.(0) and ss = pair.(1) in
      step := (if sy > 1e-16 then ss /. sy else fmin (2. *. !step) 1e6);
      if (not (Float.is_finite !step)) || !step <= 0. then step := 1.;
      let x_prev = !x in
      x := !xt;
      xt := x_prev;
      let g_prev = !g in
      g := !gn;
      gn := g_prev;
      fx := !fx_trial;
      recent.(!recent_idx) <- !fx_trial;
      recent_idx := (!recent_idx + 1) mod history;
      last_step_norm := !dnorm;
      let scale = fmax 1. (norm2 !x) in
      if !last_step_norm <= tol *. scale then converged := true
    end;
    (* Observational only: the push stores already-computed scalars, so
       the float operations — and hence the iterates — are bit-identical
       with telemetry on or off. An accepted step reports its trial
       step; a stalled or zero step the step it started from. *)
    match telemetry with
    | None -> ()
    | Some ring ->
      Lepts_obs.Telemetry.push ring ~iteration:!iterations ~objective:!fx
        ~step:(if !status = Accepted then !trial else !step)
        ~step_norm:!last_step_norm ~backtracks:!tries
        ~projections:(if !status = Stalled then !tries else !tries + 1)
  done;
  { x = Array.copy !x; value = !fx; step_norm = !last_step_norm;
    iterations = !iterations; converged = !converged }
