(** The scheduling service: a supervised, admission-controlled queue of
    solve jobs in front of the resilient pipeline.

    Requests arrive through a {!Transport.source} — a fixed batch of
    NDJSON lines, a Unix-domain socket, a watched spool directory or a
    replayed arrival journal — and are partitioned into {!Shard}s by a
    content hash of the request id. Each shard has its own circuit
    breaker, logical clock and admission high-water mark (requests
    above it are shed — predictable degradation beats an unbounded
    queue), so a flood of failures from one client family degrades one
    shard while the others keep serving. Admitted requests are
    processed in fixed-size {e waves}:

    + each queued request's end-to-end deadline ([budget_ms], charged
      from its arrival stamp) is checked first: a request that expired
      while queued is shed with status {!Expired} — it is never
      dispatched, never solves and never observes the breaker;
    + routes are planned for the rest of the wave from each shard's
      {!Breaker} state, in request order; ACS-routed requests then
      consult the schedule {!Cache} (when one is attached) and replay
      an authoritative hit without solving;
    + content-identical solve slots (same {!Cache.key} and route) are
      {e coalesced}: one solve runs, and its result fans out to every
      waiter; near-identical requests (equal {!Cache.family_key} —
      same content except the ratio) in one wave are chained in ratio
      order on one worker so each solve warm-starts the next through
      the continuation path, with a cached family member contributing
      its stored schedule as the seed;
    + the remaining work runs on a {!Lepts_par.Pool} of [jobs]
      domains — each unit is a pure function of its (requests, routes);
    + outcomes are folded back into the shard breakers in request
      order, one shard-clock tick per dispatched request; a cache hit
      folds as a successful ACS observation, a request the ACS stage
      never saw (routed around it, or whose task set could not be
      generated) folds no verdict — the latter hands its ACS slot back
      ({!Breaker.release}) — and fresh schedules are stored back
      with their provenance and exact solution vectors (never
      overwriting an authoritative entry with a degraded one).

    Because routing reads only pre-wave breaker state, cache traffic is
    confined to the sequential plan/fold phases, folding is sequential,
    and every time comparison uses the transport's recorded arrival
    stamps (never a wall clock read by the engine), the report is
    {e bit-identical for every [jobs] value} — and replaying a live
    run's arrival journal offline reproduces its report byte-for-byte.
    Both properties are what the CI determinism and socket-soak jobs
    diff for.

    Supervision: a worker exception (the solve must never take the
    service down) is caught, counted, and the request run again up to
    [max_worker_crashes] times before it is failed and the service
    marked degraded. A failed solve is not run again: its task set
    could not be generated or every pipeline stage failed, and both
    are pure functions of the request. A drain request ([should_stop],
    typically {!Drain.requested}, or the transport's drain flag) is
    honoured at the next poll; the unprocessed tail is reported as
    such, never silently dropped. *)

type config = {
  jobs : int;  (** worker domains per wave; >= 1 *)
  shards : int;
      (** request-queue partitions, each with its own breaker, clock
          and high-water mark; >= 1 *)
  high_water : int;
      (** per-shard admission high-water mark: valid requests hashing
          to a shard beyond its first [high_water] are shed; >= 1 *)
  wave : int;
      (** wave size — requests solved between breaker folds; >= 1.
          Part of the service semantics (routes are planned per wave),
          so it is {e not} derived from [jobs]. *)
  max_worker_crashes : int;
      (** worker restarts granted per request before it is failed and
          the service marked degraded; >= 0 *)
  breaker : Breaker.config;
}

val default_config : config
(** [jobs = 1], [shards = 1], [high_water = 64], [wave = 8],
    [max_worker_crashes = 2], {!Breaker.default_config}. *)

type status =
  | Done of { stage : string; mean_energy : float option }
      (** solved; [stage] is the winning pipeline stage, [mean_energy]
          the post-solve simulation mean when [rounds > 0] *)
  | Failed of string
      (** the solve failed, or the worker restarts ran out *)
  | Rejected of string
      (** malformed NDJSON line, or a transport-level rejection
          (partial line at connection close, oversized line, read
          timeout) — never admitted *)
  | Shed  (** load-shed at admission (above the high-water mark) *)
  | Expired
      (** admitted, but its [budget_ms] deadline lapsed while queued —
          shed at dispatch, never solved *)
  | Drained  (** admitted but unprocessed when a drain arrived *)

type outcome = {
  id : string;
      (** request id, or ["line-<n>"] for lines that did not parse *)
  status : status;
  attempts : int;
      (** solve attempts made (only a worker crash causes a second);
          0 when never processed *)
  crashes : int;  (** worker crashes absorbed by this request *)
  routed_acs : bool;  (** whether the wave plan routed it to ACS *)
  degraded : bool;
      (** processed but not by ACS (fallback schedule or failure) *)
}

type report = {
  outcomes : outcome list;  (** one per input line, in arrival order *)
  admitted : int;
  processed : int;
  shed : int;
  rejected : int;
  expired : int;  (** deadline lapsed in queue — shed at dispatch *)
  coalesced : int;
      (** requests served by a content-identical in-flight solve *)
  drained : bool;  (** a drain interrupted processing *)
  degraded : bool;  (** some request exhausted its worker restarts *)
  shards : Shard.stat list;
      (** per-shard admission counters and breaker transition logs, in
          shard order *)
}

type progress = {
  p_wave : int;  (** waves completed so far (counts from 1) *)
  p_processed : int;  (** requests folded so far *)
  p_backlog : int;  (** admitted requests not yet processed *)
  p_expired : int;  (** deadline-expired requests shed so far *)
  p_coalesced : int;  (** coalesced requests served so far *)
  p_shards : (int * Breaker.state * int) list;
      (** per shard: (index, breaker state, backlog) *)
}

val run_source :
  ?config:config ->
  ?power:Lepts_power.Model.t ->
  ?cache:Cache.t ->
  ?journal:Transport.Journal.t ->
  ?before_solve:(attempt:int -> Request.t -> unit) ->
  ?after_wave:(progress -> unit) ->
  ?should_stop:(unit -> bool) ->
  source:Transport.source ->
  unit ->
  report
(** [run_source ~source ()] serves requests from a transport source
    until it closes (or a drain strikes), polling it between waves.

    [power] defaults to {!Lepts_power.Model.ideal}. [cache] (default:
    none) attaches a schedule cache: ACS-routed requests whose content
    key holds an authoritative entry are served from it without
    solving, and fresh schedules are stored back with their provenance
    and exact solution vectors. The caller is responsible for the cache
    fingerprint matching [power] — {!Daemon} pins it. [journal]
    (default: none) records every batch the engine acted on, exactly as
    polled, so {!Transport.replay} reproduces the run's wave boundaries
    and arrival stamps byte-identically. [before_solve] is the
    supervision test hook, called on the worker domain before every
    solve attempt (attempts count from 1 across worker restarts);
    an exception it raises is handled exactly like a worker crash, so
    it must be domain-safe. It is never called for expired, cache-hit
    or coalesced-follower requests. [after_wave] (default: none) is
    called on the coordinating domain after each wave's fold with a
    {!progress} snapshot — the daemon's periodic-snapshot and
    health-report hook; it must not mutate the cache. [should_stop]
    (default: never) is polled once per event-loop iteration, with the
    same effect as the transport's drain flag.

    Deterministic in (config minus [jobs], the polled batch sequence,
    cache contents) — and bit-identical across [jobs] — provided the
    requests themselves solve deterministically (no [budget_ms] wall
    caps racing real time inside the solver). A cache warmed by a
    previous identical run changes which requests are solved but not
    the report: hits replay the recorded outcome and fold the same
    breaker signal the original solve did.

    Counters in {!Lepts_obs.Metrics.default}:
    [lepts_serve_requests_total], [..._rejected_total],
    [..._admitted_total], [..._shed_total], [..._processed_total],
    [..._worker_restarts_total],
    [..._degraded_total], [..._drained_total], [..._expired_total],
    [..._coalesced_total]; histograms
    [lepts_serve_admission_to_dispatch_ms] and
    [lepts_serve_dispatch_to_done_ms] — plus the breaker's
    [lepts_breaker_transitions_total{to}] and the cache's
    [lepts_cache_*] family. *)

val print_report : ?oc:out_channel -> report -> unit
(** NDJSON: one object per outcome in arrival order, then one
    [{"summary": ...}] trailer with the admission counts (including
    [expired]) and per-shard breaker transition logs. Contains no
    timing, no cache traffic counts and no coalescing counts (a warm
    restart serves duplicates from the cache instead of coalescing
    them, and the trailer must stay byte-identical across that
    difference), so two runs over the same arrivals are byte-identical
    whatever [jobs] was — and whether the cache was cold or warm. *)
