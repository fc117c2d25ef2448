module Rng = Lepts_prng.Xoshiro256
module Pool = Lepts_par.Pool
module Metrics = Lepts_obs.Metrics

(* Built-in instrumentation: aggregate simulation counters in the
   default registry (DESIGN.md §9). Bumped once per [simulate] call
   from the caller's domain, after the pool has joined — the per-round
   hot path is untouched. *)
let m_rounds =
  Metrics.counter ~help:"simulation rounds executed" Metrics.default
    "lepts_sim_rounds_total"

let m_misses =
  Metrics.counter ~help:"deadline misses across all simulated rounds"
    Metrics.default "lepts_sim_deadline_misses_total"

let m_shed =
  Metrics.counter ~help:"instances shed by containment across all rounds"
    Metrics.default "lepts_sim_shed_instances_total"

type summary = {
  rounds : int;
  mean_energy : float;
  stddev_energy : float;
  min_energy : float;
  max_energy : float;
  p95_energy : float;
  p99_energy : float;
  deadline_misses : int;
  shed_instances : int;
}

type round_result = { energy : float; misses : int; shed : int }

let round_rng ~rng ~round = Rng.split_key rng ~key:round

let summarize results =
  let rounds = Array.length results in
  if rounds = 0 then invalid_arg "Runner.summarize: no rounds";
  let energies = Array.map (fun r -> r.energy) results in
  let misses = Array.fold_left (fun acc r -> acc + r.misses) 0 results in
  let shed = Array.fold_left (fun acc r -> acc + r.shed) 0 results in
  let min_energy, max_energy = Lepts_util.Stats.min_max energies in
  { rounds;
    mean_energy = Lepts_util.Stats.mean energies;
    (* A single round carries no spread information: report the honest
       "unknown" rather than the old misleading 0. *)
    stddev_energy = (if rounds < 2 then Float.nan else Lepts_util.Stats.stddev energies);
    min_energy; max_energy;
    p95_energy = Lepts_util.Stats.percentile energies ~p:95.;
    p99_energy = Lepts_util.Stats.percentile energies ~p:99.;
    deadline_misses = misses;
    shed_instances = shed }

let round ?dist ?scenario ?control ~schedule ~policy ~rng ~round:r () =
  (* The round's generator depends only on ([rng]'s state, r), so the
     energies array is identical whichever domain computes which
     round — the parallel path is bit-identical by construction. *)
  let plan = schedule.Lepts_core.Static_schedule.plan in
  let round_rng = round_rng ~rng ~round:r in
  let totals = Sampler.instance_totals ?dist plan ~rng:round_rng in
  let totals, faults =
    match scenario with
    | None -> (totals, None)
    | Some perturb -> perturb ~round:r ~totals
  in
  let outcome = Event_sim.run ?faults ?control ~schedule ~policy ~totals () in
  { energy = outcome.Outcome.energy;
    misses = outcome.Outcome.deadline_misses;
    shed = outcome.Outcome.shed_instances }

let record_metrics summary =
  Metrics.incr ~by:summary.rounds m_rounds;
  Metrics.incr ~by:summary.deadline_misses m_misses;
  Metrics.incr ~by:summary.shed_instances m_shed

let simulate ?(rounds = 1000) ?(jobs = 1) ?on_stats ?dist ~schedule ~policy ~rng () =
  if rounds <= 0 then invalid_arg "Runner.simulate: rounds must be positive";
  let one_round r = round ?dist ~schedule ~policy ~rng ~round:r () in
  let results, stats = Pool.run ~jobs ~n:rounds ~f:one_round in
  Option.iter (fun f -> f stats) on_stats;
  let summary = summarize results in
  record_metrics summary;
  summary

let pp_summary ppf s =
  Format.fprintf ppf
    "rounds=%d mean=%.4g sd=%.3g min=%.4g max=%.4g p95=%.4g p99=%.4g misses=%d"
    s.rounds s.mean_energy s.stddev_energy s.min_energy s.max_energy s.p95_energy
    s.p99_energy s.deadline_misses;
  if s.shed_instances > 0 then Format.fprintf ppf " shed=%d" s.shed_instances
