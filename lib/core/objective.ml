module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set

type mode = Average | Worst

(* A dispatched sub-instance never executes fewer than [skip_eps]
   cycles. Voltages are clamped into [v_min, v_max] exactly as the
   online policy clamps them, which keeps the objective bounded on
   infeasible iterates (degenerate windows simply run at v_max and
   finish late; the NLP's fit constraints are what rule that out at the
   solution). [window_floor] only guards the division. *)
let skip_eps = 1e-12
let window_floor = 1e-12

let instance_totals mode (plan : Plan.t) =
  Array.mapi
    (fun i per_instance ->
      let task = Task_set.task plan.task_set i in
      let total = match mode with Average -> task.Task.acec | Worst -> task.Task.wcec in
      Array.map (fun _ -> total) per_instance)
    plan.instance_subs

(* --- Workspace kernels -------------------------------------------------- *)

(* The kernels run the recurrence and its adjoint sweep over the
   preallocated buffers of a {!Workspace.t}, so the solver's inner
   loop — which evaluates them tens of thousands of times per solve —
   allocates no arrays. Each is the library's only implementation of
   its computation; the test suite checks both bit for bit against
   the allocating trace and the dense list-based adjoint of its
   reference module. *)

let check_lengths ws ~e ~w_hat =
  let m = ws.Workspace.m in
  if Array.length e <> m || Array.length w_hat <> m then
    invalid_arg "Objective: vector length does not match plan size"

(* Same-module float copies of [Float.max] (same formula as the
   stdlib, so same results including NaN and signed zeros) and
   [Num_ext.clamp]: without flambda a cross-module call boxes its float
   arguments and result, so the kernels call none per element. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

let[@inline] clampf ~(lo : float) ~(hi : float) (x : float) =
  if x < lo then lo else if x > hi then hi else x

(* Off-projection iterates (finite-difference probes, trial steps) may
   carry slightly negative quotas; the objective treats them as 0.
   Fills [ws.w_hat] with the clipped quotas and [ws.w] with their
   waterfall split, in one plan-wide call over the block index. *)
let split_ws (ws : Workspace.t) ~totals ~w_hat =
  for k = 0 to ws.m - 1 do
    ws.w_hat.(k) <- fmax 0. w_hat.(k)
  done;
  Waterfall.distribute_blocks ~off:ws.blk_off ~idx:ws.blk_idx ~totals ~quotas:ws.w_hat
    ~into:ws.w

let eval_ws (ws : Workspace.t) ~power ~totals ~e ~w_hat =
  check_lengths ws ~e ~w_hat;
  split_ws ws ~totals ~w_hat;
  let plan = ws.Workspace.plan in
  let w = ws.Workspace.w and w_hat = ws.Workspace.w_hat in
  let finish = ref 0. and energy = ref 0. in
  let c0 = power.Model.c0 in
  (* Inlined model arithmetic: identical expressions to
     [Model.voltage_for]/[energy]/[exec_time] (their domain checks
     cannot fire here — [w > skip_eps] implies positive cycles, and the
     window is floored), with no boxed-float returns. *)
  for k = 0 to ws.Workspace.m - 1 do
    let sub = plan.Plan.order.(k) in
    if w.(k) > skip_eps then begin
      let s = fmax sub.Sub.release !finish in
      let d = fmax (e.(k) -. s) window_floor in
      let v = clampf ~lo:power.Model.v_min ~hi:power.Model.v_max (c0 *. w_hat.(k) /. d) in
      energy := !energy +. (power.Model.c_eff *. v *. v *. w.(k));
      finish := s +. (w.(k) *. (c0 /. v))
    end
  done;
  !energy

let eval_with_gradient_at_split_ws (ws : Workspace.t) ~power ~totals ~e ~de ~dwq =
  let c0 = power.Model.c0 in
  let m = ws.Workspace.m in
  if Array.length e <> m then
    invalid_arg "Objective: vector length does not match plan size";
  if Array.length de <> m || Array.length dwq <> m then
    invalid_arg "Objective.eval_with_gradient_ws: gradient buffer length mismatch";
  let plan = ws.Workspace.plan in
  let w = ws.Workspace.w and w_hat = ws.Workspace.w_hat in
  (* Forward sweep, recording branches in the struct-of-arrays step
     log. *)
  ws.st_len <- 0;
  let finish = ref 0. and energy = ref 0. in
  for k = 0 to m - 1 do
    let sub = plan.Plan.order.(k) in
    if w.(k) > skip_eps then begin
      let s_from_finish = !finish >= sub.Sub.release in
      let s = if s_from_finish then !finish else sub.Sub.release in
      let d_raw = e.(k) -. s in
      let guarded = d_raw < window_floor in
      let d = if guarded then window_floor else d_raw in
      let v_raw = c0 *. w_hat.(k) /. d in
      let clamped = v_raw <= power.Model.v_min || v_raw > power.Model.v_max in
      let v = clampf ~lo:power.Model.v_min ~hi:power.Model.v_max v_raw in
      energy := !energy +. (power.Model.c_eff *. v *. v *. w.(k));
      finish := s +. (w.(k) *. c0 /. v);
      let t = ws.st_len in
      ws.st_k.(t) <- k;
      ws.st_d.(t) <- d;
      ws.st_v.(t) <- v;
      ws.st_w.(t) <- w.(k);
      ws.st_wq.(t) <- w_hat.(k);
      ws.st_clamped.(t) <- clamped;
      ws.st_guarded.(t) <- guarded;
      ws.st_sff.(t) <- s_from_finish;
      ws.st_len <- t + 1
    end
  done;
  (* Backward (adjoint) sweep over the dispatched steps, most recent
     first. [phi] is the adjoint of the running finish time. *)
  for k = 0 to m - 1 do
    de.(k) <- 0.;
    dwq.(k) <- 0.;
    ws.dw.(k) <- 0.
  done;
  let phi = ref 0. in
  for t = ws.st_len - 1 downto 0 do
    let k = ws.st_k.(t) in
    let sigma = ref !phi in
    (* finish = s + w c0 / v ; E += c_eff v^2 w *)
    let alpha =
      (2. *. power.Model.c_eff *. ws.st_w.(t) *. ws.st_v.(t))
      -. (!phi *. ws.st_w.(t) *. c0 /. (ws.st_v.(t) *. ws.st_v.(t)))
    in
    let beta =
      (power.Model.c_eff *. ws.st_v.(t) *. ws.st_v.(t)) +. (!phi *. c0 /. ws.st_v.(t))
    in
    if not ws.st_clamped.(t) then begin
      (* v = c0 wq / d *)
      dwq.(k) <- dwq.(k) +. (alpha *. c0 /. ws.st_d.(t));
      if not ws.st_guarded.(t) then begin
        let delta = -.alpha *. c0 *. ws.st_wq.(t) /. (ws.st_d.(t) *. ws.st_d.(t)) in
        de.(k) <- de.(k) +. delta;
        sigma := !sigma -. delta
      end
    end;
    ws.dw.(k) <- ws.dw.(k) +. beta;
    phi := if ws.st_sff.(t) then !sigma else 0.
  done;
  (* Waterfall vector-Jacobian products, added into [dwq]. *)
  Waterfall.backward_add_blocks ~off:ws.blk_off ~idx:ws.blk_idx ~totals ~quotas:w_hat
    ~adjoint:ws.dw ~into:dwq;
  !energy

let eval_with_gradient_ws (ws : Workspace.t) ~power ~totals ~e ~w_hat ~de ~dwq =
  check_lengths ws ~e ~w_hat;
  split_ws ws ~totals ~w_hat;
  eval_with_gradient_at_split_ws ws ~power ~totals ~e ~de ~dwq
