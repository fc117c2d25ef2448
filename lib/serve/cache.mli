(** Content-addressed schedule cache: the paper's value proposition —
    an offline-computed schedule reused across many hyperperiods —
    lifted to the service layer. Identical task sets are solved once
    and served forever; a hit skips the ACS solve entirely and replays
    the recorded outcome byte-identically.

    {2 Keying}

    The {!key} of a request is a {!Lepts_robust.Checkpoint.fingerprint}
    of every field that changes the response — [tasks], [ratio] (exact
    IEEE-754 bits), [seed], [rounds], [budget_ms], [acs_max_outer] —
    and nothing else. The request [id] in particular is excluded:
    a million embedded clients submitting the same task set share one
    entry. Parameters of the hosting daemon that change results (the
    power model) are pinned by the cache-level {!fingerprint} instead,
    so a snapshot written under one power model is refused by a daemon
    running another. {!family_key} additionally blinds the ratio — the
    address of the near-identical family the engine warm-chains.

    {2 Provenance}

    Every entry records the provenance of its schedule: [Authoritative]
    (the full ACS solve produced it) or [Fallback] (a WCS/RM stage
    below ACS did). Only authoritative entries are served — a degraded
    result must never be replayed as the real answer once the solver
    has recovered. Fallback entries are still stored (they upgrade in
    place when a later solve of the same content wins at ACS) and
    lookups that find one report [`Stale], so the engine re-solves.
    An authoritative entry is never demoted.

    {2 Bounded size}

    A cache created (or loaded) with [max_entries] never exceeds it:
    inserting into a full cache first evicts exactly one entry, chosen
    by a deterministic second-chance scan ordered by (provenance —
    fallback first, last-hit wave, key). Every touch (insert, upgrade,
    hit) sets the entry's second-chance bit and stamps its wave; the
    scan clears bits until it finds one already clear. The order is a
    pure function of cache content, so equal runs evict identical keys
    and a warm restart under eviction pressure still byte-matches the
    uninterrupted run. Evictions are counted in [stats] and in
    [lepts_serve_evicted_total].

    {2 Persistence}

    Snapshots use the {!Lepts_robust.Checkpoint.Snapshot} framing
    ([lepts-cache/2]): atomic write-rename, checksummed, fingerprinted;
    floats (including the cached schedule vectors that seed warm
    chains) stored as exact IEEE-754 bits so a warm-started daemon
    serves the bit-identical response an uninterrupted one would. The
    size bound and per-entry eviction state round-trip through the
    snapshot. Corrupt or mismatched snapshots are refused with a
    diagnostic naming the failed check (magic / version / checksum /
    fingerprint).

    Not domain-safe: the service engine confines all lookups and stores
    to the sequential plan/fold phases on the coordinating domain. *)

type provenance =
  | Authoritative  (** the full ACS solve produced the schedule *)
  | Fallback  (** a WCS/RM stage below ACS produced it *)

type entry = {
  stage : string;  (** winning pipeline stage name *)
  mean_energy : float option;  (** post-solve simulation mean, if any *)
  attempts : int;  (** attempts the recorded solve took *)
  crashes : int;  (** worker crashes the recorded solve absorbed *)
  provenance : provenance;
  schedule : (float array * float array) option;
      (** the solved [(end_times, quotas)] vectors, exact bits — the
          seed a warm chain rebuilds its previous schedule from *)
}

type t

type stats = {
  entries : int;
  s_hits : int;
  s_misses : int;
  s_stale : int;  (** lookups that found only a fallback entry *)
  s_inserts : int;
  s_upgrades : int;  (** fallback entries upgraded to authoritative *)
  s_evictions : int;  (** entries evicted to stay under [max_entries] *)
}

val create : ?max_entries:int -> fingerprint:string -> unit -> t
(** An empty cache pinned to a configuration [fingerprint]
    ({!Lepts_robust.Checkpoint.fingerprint} of the daemon parameters
    that change results — the power model, not [jobs]). [max_entries]
    (default: unbounded) caps the stored entries; raises
    [Invalid_argument] when [< 1]. *)

val fingerprint : t -> string
(** The configuration fingerprint the cache was created (or loaded)
    with — the one snapshots embed and {!load} checks. *)

val size : t -> int
(** Entries currently stored, whatever their provenance. *)

val max_entries : t -> int option
(** The size bound, if any. *)

val stats : t -> stats
(** Lookup/insert/eviction counters since creation (warm-loaded
    entries count in [entries] but not in [s_inserts]). *)

val hit_rate : t -> float
(** Hits over all lookups ([0.] before the first lookup). *)

val key : Request.t -> string
(** Content address of a request (see module docs). *)

val family_key : Request.t -> string
(** The content address with the ratio blinded: equal for requests that
    differ only in [ratio] — the warm-chain grouping key. *)

val find : ?wave:int -> t -> key:string -> [ `Hit of entry | `Stale of entry | `Miss ]
(** [`Hit] only for authoritative entries; [`Stale] reports a
    fallback-provenance entry the caller must not serve. A found entry
    is touched (its last-hit stamp set to [wave], default 0, and its
    second-chance bit set). Counted in
    [lepts_cache_{hits,misses,stale}_total]. *)

val store : ?wave:int -> t -> key:string -> entry -> unit
(** Insert or upgrade (see provenance rules above), touching the entry
    with [wave]. A full bounded cache evicts one entry first. *)

val save : t -> path:string -> unit
(** Atomic snapshot ([lepts-cache/2]): the size bound, then entries
    sorted by key with their eviction state, so equal caches produce
    byte-identical files. Counted in [lepts_cache_saves_total]. *)

val load :
  ?max_entries:int -> path:string -> fingerprint:string -> unit -> (t, string) result
(** Validate and load a snapshot. The error message names the failed
    check — magic, version, checksum or fingerprint — or the malformed
    body line. [max_entries] overrides the snapshot's recorded bound
    (absent, the snapshot's bound is adopted — so save→load→save is
    byte-identical); a snapshot holding more entries than the effective
    bound is truncated deterministically in eviction order, never
    refused. Counted in [lepts_cache_warm_loads_total] on success. *)
