module Plan = Lepts_preempt.Plan
module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Rng = Lepts_prng.Xoshiro256
module Event_sim = Lepts_sim.Event_sim

type spec = {
  seed : int;
  overrun_prob : float;
  overrun_factor : float;
  jitter_prob : float;
  jitter_frac : float;
  denial_prob : float;
}

let zero =
  { seed = 2005; overrun_prob = 0.; overrun_factor = 1.5; jitter_prob = 0.;
    jitter_frac = 0.; denial_prob = 0. }

(* Per-field validation with the offending value in the message, and
   written so that NaN fails every check: a negated [>=]-conjunction
   rejects NaN, where the naive [p < 0. || p > 1.] would let it
   through and poison every downstream draw. *)
let validate spec =
  let reject field value rule =
    invalid_arg
      (Printf.sprintf "Fault_injector: %s = %s must be %s" field
         (string_of_float value) rule)
  in
  let prob field p =
    if not (p >= 0. && p <= 1.) then reject field p "in [0, 1]"
  in
  prob "overrun_prob" spec.overrun_prob;
  prob "jitter_prob" spec.jitter_prob;
  prob "denial_prob" spec.denial_prob;
  if not (Float.is_finite spec.overrun_factor && spec.overrun_factor >= 1.) then
    reject "overrun_factor" spec.overrun_factor "finite and >= 1";
  if not (spec.jitter_frac >= 0. && spec.jitter_frac < 1.) then
    reject "jitter_frac" spec.jitter_frac "in [0, 1)"

let pp_spec ppf s =
  Format.fprintf ppf
    "seed=%d overrun=%g@@x%g jitter=%g@@%g denial=%g" s.seed s.overrun_prob
    s.overrun_factor s.jitter_prob s.jitter_frac s.denial_prob

type counters = {
  mutable overruns : int;
  mutable jitters : int;
  mutable denials : int;
}

let fresh_counters () = { overruns = 0; jitters = 0; denials = 0 }

let add_counters ~into c =
  into.overruns <- into.overruns + c.overruns;
  into.jitters <- into.jitters + c.jitters;
  into.denials <- into.denials + c.denials

type scenario = { totals : float array array; faults : Event_sim.faults }

(* All randomness flows through one generator seeded from
   [spec.seed + round] (SplitMix64 expansion makes consecutive integer
   seeds independent streams): upfront per-instance overrun and jitter
   draws in task/instance order, then a split stream for the per-
   dispatch denial decisions. The simulator's dispatch sequence is
   itself deterministic, so every fault, and so every counter, is a pure
   function of (spec, round, totals). *)
let perturb spec ?counters ~round (plan : Plan.t) ~totals =
  validate spec;
  let rng = Rng.create ~seed:(spec.seed + round) in
  let c = match counters with Some c -> c | None -> fresh_counters () in
  let ts = plan.Plan.task_set in
  let totals' = Array.map Array.copy totals in
  let offsets = Array.map (Array.map (fun _ -> 0.)) totals in
  Array.iteri
    (fun i per_instance ->
      let task = Task_set.task ts i in
      Array.iteri
        (fun j _ ->
          if spec.overrun_prob > 0. && Rng.float rng < spec.overrun_prob then begin
            totals'.(i).(j) <- task.Task.wcec *. spec.overrun_factor;
            c.overruns <- c.overruns + 1
          end;
          if spec.jitter_prob > 0. && Rng.float rng < spec.jitter_prob then begin
            let hi = spec.jitter_frac *. float_of_int task.Task.period in
            offsets.(i).(j) <- Rng.uniform rng ~lo:0. ~hi;
            c.jitters <- c.jitters + 1
          end)
        per_instance)
    totals;
  let denial_rng = Rng.split rng in
  let deny_transition ~task:_ ~instance:_ ~sub:_ ~now:_ ~requested:_ =
    if spec.denial_prob <= 0. then false
    else if Rng.float denial_rng < spec.denial_prob then begin
      c.denials <- c.denials + 1;
      true
    end
    else false
  in
  { totals = totals';
    faults =
      { Event_sim.release_offsets = offsets;
        enforce_budget = spec.overrun_prob <= 0.;
        deny_transition } }
