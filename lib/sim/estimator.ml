module Plan = Lepts_preempt.Plan
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set

let eps = 1e-12

type config = {
  alpha : float;
  drift_threshold : float;
  hysteresis : float;
  resolve_budget : int;
}

let default_config =
  { alpha = 0.2;
    drift_threshold = 0.10;
    hysteresis = 0.5;
    resolve_budget = 8 }

let validate c =
  let bad field v =
    invalid_arg (Printf.sprintf "Estimator.config: %s = %g out of range" field v)
  in
  if Float.is_nan c.alpha || c.alpha <= 0. || c.alpha > 1. then bad "alpha" c.alpha;
  if
    Float.is_nan c.drift_threshold
    || (not (Float.is_finite c.drift_threshold))
    || c.drift_threshold <= 0.
  then bad "drift_threshold" c.drift_threshold;
  if Float.is_nan c.hysteresis || c.hysteresis < 0. || c.hysteresis > 1. then
    bad "hysteresis" c.hysteresis;
  if c.resolve_budget < 0 then bad "resolve_budget" (float_of_int c.resolve_budget)

(* Per-task state. [ewma] starts at the offline ACEC, so with no
   observation folded the estimate is the static configuration. *)
type t = {
  config : config;
  bcec : float array;
  wcec : float array;
  instances : float array;  (* per-task instance count in the hyper-period *)
  applied : float array;  (* drift baseline: ACECs of the current schedule *)
  ewma : float array;
  count : int;  (* observations folded *)
  resolves_done : int;
  armed : bool;
}

let create config ~plan =
  validate config;
  let ts = plan.Plan.task_set in
  let n = Task_set.size ts in
  let stat f = Array.init n (fun i -> f (Task_set.task ts i)) in
  { config;
    bcec = stat (fun t -> t.Task.bcec);
    wcec = stat (fun t -> t.Task.wcec);
    instances =
      Array.init n (fun i ->
          float_of_int (Array.length plan.Plan.instance_subs.(i)));
    applied = stat (fun t -> t.Task.acec);
    ewma = stat (fun t -> t.Task.acec);
    count = 0;
    resolves_done = 0;
    armed = true }

let observations t = t.count
let resolves_done t = t.resolves_done
let armed t = t.armed

let observe t ~consumed =
  let n = Array.length t.applied in
  if Array.length consumed <> n then
    invalid_arg
      (Printf.sprintf "Estimator.observe: %d consumed entries for %d tasks"
         (Array.length consumed) n);
  let alpha = t.config.alpha in
  let ewma =
    Array.mapi
      (fun i s -> (alpha *. (consumed.(i) /. t.instances.(i))) +. ((1. -. alpha) *. s))
      t.ewma
  in
  { t with ewma; count = t.count + 1 }

let clamp t i v = Float.min t.wcec.(i) (Float.max t.bcec.(i) v)

let estimates t = Array.mapi (clamp t) t.ewma

let drift t =
  let d = ref 0. in
  Array.iteri
    (fun i a ->
      let e = clamp t i t.ewma.(i) in
      d := Float.max !d (Float.abs (e -. a) /. Float.max a eps))
    t.applied;
  !d

type decision = Keep | Resolve of float array | Exhausted

let decide t =
  let d = drift t in
  let thr = t.config.drift_threshold in
  if not t.armed then
    (* Hysteresis: the trigger re-arms only once drift has fallen back
       to the re-arm level, so an estimate oscillating around the
       threshold cannot fire a re-solve per oscillation. *)
    let re_arm = thr *. (1. -. t.config.hysteresis) in
    if d <= re_arm then ({ t with armed = true }, Keep) else (t, Keep)
  else if d > thr then
    if t.resolves_done >= t.config.resolve_budget then (t, Exhausted)
    else (t, Resolve (estimates t))
  else (t, Keep)

let committed t ~acecs =
  { t with
    applied = Array.copy acecs;
    resolves_done = t.resolves_done + 1;
    armed = false }

let plan_with_acecs plan ~acecs =
  let ts = plan.Plan.task_set in
  let n = Task_set.size ts in
  if Array.length acecs <> n then
    invalid_arg
      (Printf.sprintf "Estimator.plan_with_acecs: %d ACECs for %d tasks"
         (Array.length acecs) n);
  let tasks =
    Array.init n (fun i ->
        let task = Task_set.task ts i in
        let acec =
          Float.min task.Task.wcec (Float.max task.Task.bcec acecs.(i))
        in
        Task.create ~name:task.Task.name ~period:task.Task.period
          ~wcec:task.Task.wcec ~acec ~bcec:task.Task.bcec)
  in
  (* [tasks] is already in RM priority order and the sort is stable, so
     the rebuilt set keeps the exact order — the expansion is
     structurally identical to [plan]'s. *)
  Plan.expand (Task_set.of_array tasks)
