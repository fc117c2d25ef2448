(** Persistent chunked fork-join domain pool for embarrassingly
    parallel index spaces (OCaml 5 [Domain], no external dependencies).

    Workers are spawned {e once} — by {!create} or on first use of a
    {!shared} pool — and then parked on a condition variable between
    batches. {!submit} publishes a batch (an index space [n] and a
    function [f]), wakes the workers, participates as worker 0, and
    waits for completion; short batches no longer pay a
    [Domain.spawn]/[join] round-trip per call, which is what made
    parallel multi-start solves {e slower} than sequential ones before
    the pool became persistent.

    Each batch pulls chunks of indices off a shared atomic queue and
    every result lands at its own index, so the caller's reduction
    order is the sequential one no matter which domain computed what —
    the building block behind the bit-identical parallel paths
    ({!Lepts_core.Solver} multi-start, {!Lepts_sim.Runner},
    {!Lepts_robust.Campaign}, the Fig 6 sweeps, [lepts serve] waves).

    [f] must be safe to call from several domains at once (no shared
    mutable state beyond what it owns per index). A nested {!run} or
    {!submit} from inside [f] runs sequentially on the calling worker
    instead of deadlocking on the pool it is already occupying —
    results are unchanged, only the extra parallelism is declined. *)

type stats = {
  jobs : int;  (** domains actually used (capped at [n] by {!run}) *)
  items : int;  (** [n] *)
  elapsed_s : float;  (** wall-clock of the whole batch *)
  per_domain_items : int array;  (** indices computed by each domain *)
  per_domain_busy_s : float array;
      (** per-domain time spent inside [f] (summed per chunk, excluding
          queue-wait and park time); [busy / elapsed] is that domain's
          utilisation *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** {2 Persistent pools} *)

type t
(** A pool of [jobs] workers: the creating domain plus [jobs - 1]
    spawned domains that live until {!shutdown}. *)

val create : jobs:int -> t
(** Spawns [jobs - 1] worker domains (raises [Invalid_argument] when
    [jobs < 1]). [jobs = 1] spawns nothing; its submits run
    sequentially on the caller. *)

val size : t -> int
(** The pool's worker count, including the submitting domain. *)

val submit : t -> n:int -> f:(int -> 'a) -> 'a array * stats
(** Computes [Array.init n f] on the pool's workers. Blocks until the
    batch completes; concurrent submitters are serialised, and the
    submitting domain works too, so a 1-worker pool degrades to a
    plain sequential loop. An exception raised by [f] stops further
    chunk claims, is re-raised here after the batch drains, and leaves
    the pool fully usable for the next [submit]. Raises
    [Invalid_argument] when [n < 0] or after {!shutdown}. *)

val shutdown : t -> unit
(** Joins the pool's worker domains. Idempotent; subsequent {!submit}s
    raise. Shared pools (below) are shut down automatically at exit —
    don't shut them down by hand. *)

val shared : jobs:int -> t
(** The process-wide pool with exactly [jobs] workers, created on
    first use and reused by every later caller (including {!run});
    joined automatically at process exit. *)

(** {2 Compatibility wrapper} *)

val run : jobs:int -> n:int -> f:(int -> 'a) -> 'a array * stats
(** [run ~jobs ~n ~f] computes [Array.init n f] like {!submit}, on the
    {!shared} pool of [min jobs (max 1 n)] workers. Requires
    [jobs >= 1] and [n >= 0] (raises [Invalid_argument] otherwise).
    [jobs = 1] runs sequentially on the calling domain, in index
    order, touching no pool. Calls with the same clamped worker count
    reuse the same domains: however many such batches run, [f] sees at
    most that many distinct domains. An exception raised by [f] is
    re-raised on the caller after all workers have drained. *)

(** {2 Reporting} *)

val throughput : stats -> float
(** Items per second ([items / elapsed_s]; 0 when elapsed is 0). *)

val pp_stats : Format.formatter -> stats -> unit
(** One line: items, wall time, items/sec and, when [jobs > 1], the
    per-domain item counts and utilisation. *)
