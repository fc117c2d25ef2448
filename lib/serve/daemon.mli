(** The persistent [lepts serve] daemon: {!Service} plus the machinery
    that makes restarts cheap and failures observable.

    {2 Lifecycle}

    {e Cold start} — no snapshot at [cache_path] (or no path): the
    daemon begins with an empty {!Cache}. {e Warm restart} — a valid
    snapshot is loaded and every previously-solved task set is served
    from it, byte-identically to the uninterrupted run (the cache holds
    exact IEEE-754 bits and hits replay the recorded outcome and
    breaker signal). A corrupt or mismatched snapshot is {e refused}
    with a diagnostic naming the failed check (magic / version /
    checksum / fingerprint) and the daemon falls back to a cold start —
    it never trusts bytes that fail a check and never crashes on
    restart debris. A snapshot whose size bound differs from
    [max_cache_entries] is {e not} refused: the daemon's bound wins and
    excess entries are truncated deterministically in eviction order.
    {e Drain} — [should_stop] (or the transport's drain flag) is
    honoured at the next poll; the final snapshot is written either
    way, so the next start is warm.

    Snapshots are written every [snapshot_every] waves and once after
    the run, via {!Lepts_robust.Checkpoint.Snapshot}'s atomic
    write-rename — a [kill -9] at any point leaves the previous intact.
    With [journal_path] set, the arrival journal is saved on the same
    cadence: after a kill, everything up to the last completed wave
    replays offline byte-identically via {!Transport.replay}.

    {2 Observability}

    Gauges in {!Lepts_obs.Metrics.default}:
    [lepts_serve_cache_entries], [lepts_breaker_state{shard}]
    (0 closed / 1 open / 2 half-open), and
    [lepts_serve_shard_backlog{shard}]. With [health_every > 0], a
    one-line health report (wave, processed, backlog, expired and
    coalesced counts, cache hit/stale/upgrade/eviction counters,
    per-shard breaker states and depths) goes to stderr every
    [health_every] waves — stderr, so the NDJSON report on stdout stays
    byte-comparable.

    {2 Chaos}

    With [chaos] attached, requests may be dropped before admission,
    solves slowed or crashed on the worker domain, and the final
    snapshot corrupted and re-validated (then restored) — see {!Chaos}.
    Transport-level faults (connection cuts, stalls, spool bit flips)
    are injected by the transport itself when it is constructed with
    the same chaos handle. The injections go through the real
    supervision, shedding and validation paths; nothing is mocked. *)

type config = {
  service : Service.config;
  cache_path : string option;  (** snapshot location; [None] disables *)
  snapshot_every : int;  (** waves between periodic snapshots; >= 1 *)
  health_every : int;  (** waves between health lines; 0 disables *)
  journal_path : string option;
      (** arrival-journal location; [None] disables journaling *)
  max_cache_entries : int option;
      (** cache size bound; [None] leaves it unbounded (or adopts a
          loaded snapshot's recorded bound) *)
}

val default_config : config
(** {!Service.default_config}, no cache path, [snapshot_every = 8],
    [health_every = 0], no journal, unbounded cache. *)

val refused_path : config -> string option
(** [Some "PATH: ..."] when a snapshot path ([cache_path] or
    [journal_path]) exists but is not a regular file, or its parent is
    not a directory: a save, which renames a temporary file onto the
    path, would fail only after the run has been served. *)

type start =
  | Cold
  | Warm of int  (** entries loaded from the snapshot *)
  | Refused of string  (** snapshot diagnostic; served cold instead *)

val start_name : start -> string
(** ["cold"] / ["warm"] / ["refused"] — the stable tag used in logs and
    the NDJSON report (the refusal diagnostic is reported separately). *)

type result = {
  report : Service.report;
  start : start;
  cache : Cache.t;  (** post-run cache (inspectable in tests) *)
  chaos_line : string option;
      (** the [{"chaos": ...}] trailer, when chaos was attached *)
}

val cache_stats_line : cache:Cache.t -> string
(** One [{"cache": ...}] JSON line with the entry count and
    hit/miss/stale/insert/upgrade/eviction counters — the optional
    report trailer behind the CLI's [--cache-stats] flag. Off by
    default because the counters differ between cold and warm runs,
    which would break the byte-identical-report contract. *)

val run_source :
  ?config:config ->
  ?power:Lepts_power.Model.t ->
  ?chaos:Chaos.t ->
  ?before_solve:(attempt:int -> Request.t -> unit) ->
  ?should_stop:(unit -> bool) ->
  source:Transport.source ->
  unit ->
  result
(** One daemon run over a transport source: load-or-create the cache,
    serve via {!Service.run_source} until the source closes or a drain
    strikes, snapshot (and journal) periodically and at the end. The
    cache fingerprint pins the [power] model (exact voltage rail bits),
    so a snapshot written under another model is refused.
    [before_solve] composes after chaos injection. Note that every
    source takes its own [?chaos] at construction for line drops and
    transport-level faults — this function's [chaos] drives only
    solve-time and snapshot-corruption injection. Raises
    [Invalid_argument], before serving, on a config with a
    {!refused_path}. *)

val run :
  ?config:config ->
  ?power:Lepts_power.Model.t ->
  ?chaos:Chaos.t ->
  ?before_solve:(attempt:int -> Request.t -> unit) ->
  ?should_stop:(unit -> bool) ->
  lines:string list ->
  unit ->
  result
(** One daemon run over a fixed batch of NDJSON lines:
    {!run_source} over [Transport.of_lines ?chaos lines]. *)
