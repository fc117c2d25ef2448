(** The Yao–Demers–Shenker optimal continuous voltage schedule.

    YDS (FOCS 1995) computes, for a set of jobs with release times,
    deadlines and workloads, the preemptive EDF speed schedule that
    minimises energy for {e any} convex power function — by repeatedly
    peeling off the {e critical interval}, the interval [[a, b]]
    maximising the intensity
    [sum of workloads of jobs contained in [a, b] / (b - a)].

    It is not directly comparable to the paper's schedulers (it assumes
    EDF rather than fixed RM priorities and optimises only the
    worst case), but it provides two valuable reference points:

    - a {b lower bound} on the worst-case energy of any feasible
      schedule of the same job set, used to judge how much the RM
      segment structure costs (an ablation bench);
    - an independent correctness oracle: WCS worst-case energy must
      never beat the YDS bound.

    Each peel tests every pair of the O(n) endpoints against every
    job, so this implementation is O(n^3) in the number of jobs per
    peel and O(n^4) overall. *)

type job = {
  release : float;
  deadline : float;  (** must exceed [release] *)
  work : float;  (** megacycles; must be positive *)
}

type segment = {
  from_time : float;
  to_time : float;
  speed : float;  (** megacycles per millisecond *)
}

val schedule : job list -> segment list
(** The optimal speed profile, as maximal constant-speed segments in
    increasing time order (idle gaps are omitted). Raises
    [Invalid_argument] on malformed jobs. *)

val energy : power:Lepts_power.Model.t -> job list -> float
(** Energy of the YDS profile under the given power model: each
    segment's speed is converted to the voltage achieving it and priced
    at [c_eff * v^2 * work]. Speeds above the model's maximum frequency
    are priced at the voltage they would require (the bound is still
    valid for comparison). *)

val of_task_set : Lepts_task.Task_set.t -> job list
(** One hyper-period of WCEC jobs: instance [j] of task [i] becomes a
    job released at [j * period] with deadline [(j+1) * period] and
    work [wcec_i]. *)

val lower_bound : power:Lepts_power.Model.t -> Lepts_task.Task_set.t -> float
(** [energy ~power (of_task_set ts)]: the YDS worst-case energy lower
    bound for one hyper-period of [ts]. *)
