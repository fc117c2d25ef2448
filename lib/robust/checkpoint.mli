(** Crash-safe checkpointing for long-running campaigns and sweeps.

    A checkpoint is a versioned, checksummed snapshot of the completed
    work units of a run — simulation rounds, Fig 6 sets, sweep points —
    written with atomic write-rename so a [kill -9] at any instant
    leaves either the previous snapshot or the new one on disk, never a
    torn file. Because every work unit in this repository is a pure
    function of (run parameters, unit index) — the PR-2 counter-keyed
    RNG streams make per-round draws order-independent — resuming from
    a checkpoint and recomputing only the missing units reproduces the
    uninterrupted run {e bit-identically} (asserted by the test suite
    and by the CI crash-recovery job).

    {2 File format (version [lepts-checkpoint/1])}

    Line-oriented text:
    {v
    lepts-checkpoint/1
    fingerprint <hex64>
    entry <section> <key> <field>...
    ...
    checksum <hex64>
    v}

    [fingerprint] is an FNV-1a hash of the run parameters (command,
    seeds, spec, a hash of the schedule being simulated, ...) — never
    of [jobs], which cannot affect results. Loading refuses a file
    whose fingerprint differs from the resuming run's: resuming a
    campaign with different parameters would silently splice two
    incompatible result streams. [checksum] is an FNV-1a hash of every
    preceding byte; a mismatch (torn write on a non-POSIX filesystem,
    manual edit) refuses to load. Floats are stored as the hex of their
    IEEE-754 bits ({!float_field}), so the round-trip is exact. *)

(** Shared on-disk framing for snapshot files: the checkpoint store
    below and the serve-layer schedule cache ([Lepts_serve.Cache])
    both persist through it.

    {v
    <magic>/<version>
    fingerprint <hex64>
    <body line>
    ...
    checksum <hex64>
    v}

    Every validation failure names the check that tripped — [magic],
    [version], [checksum] or [fingerprint] — so an operator can tell a
    torn write (checksum) from a wrong artifact (magic/fingerprint)
    from a format skew (version) without opening the file. *)
module Snapshot : sig
  val render :
    magic:string -> version:int -> fingerprint:string -> body:string list -> string
  (** Serialise a snapshot. [body] lines must not contain newlines. *)

  val write : path:string -> string -> unit
  (** Write-to-temp + [rename] (atomic on POSIX): a crash at any
      instant leaves the previous snapshot or the new one, never a
      torn file. *)

  val parse :
    path:string ->
    magic:string ->
    version:int ->
    string ->
    (string * string list, string) result
  (** [parse ~path ~magic ~version contents] validates the framing and
      returns [(fingerprint, body lines)]. Errors are
      ["<path>: <check> check failed: ..."] where [<check>] is one of
      [magic], [version], [checksum], [fingerprint]. *)

  val read :
    path:string ->
    magic:string ->
    version:int ->
    (string * string list, string) result
  (** {!parse} applied to the file at [path]. A path that cannot be
      read (missing, a directory, unreadable) is an [Error] naming it,
      never an exception. *)

  val mismatch : path:string -> file_fp:string -> run_fp:string -> string
  (** The canonical fingerprint-check-failed message, naming both
      fingerprints. *)
end

type session
(** An open checkpoint: the in-memory entry store plus the path it
    persists to. Not domain-safe — drive it from the coordinating
    domain only (the pool workers of {!map_indices} never touch it). *)

exception Drained
(** Raised by {!map_indices} after saving when [should_stop] reports a
    drain request: completed chunks are on disk, the run can be resumed
    later. The CLI maps this to exit code 3. *)

val fnv1a : string -> int64
(** 64-bit FNV-1a hash of a string: the one hash behind fingerprints,
    snapshot checksums, serve shard assignment and chaos decision
    keys. *)

val fingerprint : parts:string list -> string
(** Canonical fingerprint of a parameter list: FNV-1a over the parts
    joined with ['\n']. Order matters; include every parameter that
    changes results and nothing (like [jobs]) that does not. *)

val hash_floats : float array -> string
(** Exact content hash of a float array (FNV-1a over the IEEE-754
    bits) — used to pin the schedule a campaign simulates into the
    fingerprint. *)

val start :
  path:string -> resume:bool -> fingerprint:string -> (session, string) result
(** Open the checkpoint at [path].

    - File absent: a fresh session when [resume = false]; an error when
      [resume = true] (nothing to resume).
    - File present (either mode): load it. A version, checksum or parse
      failure is an error (a corrupt checkpoint is never silently
      discarded); a fingerprint mismatch is an error naming both
      fingerprints (the run parameters differ from the ones that wrote
      the file). *)

val entries : session -> section:string -> int
(** Completed units recorded under [section]. *)

val save : session -> unit
(** Serialise the store to [path] via write-to-temp + rename (atomic on
    POSIX). Entries are written sorted by (section, key), so equal
    stores produce byte-identical files. *)

val map_indices :
  ?session:session ->
  ?chunk:int ->
  ?should_stop:(unit -> bool) ->
  ?on_stats:(Lepts_par.Pool.stats -> unit) ->
  section:string ->
  encode:('a -> string list) ->
  decode:(string list -> 'a) ->
  jobs:int ->
  n:int ->
  f:(int -> 'a) ->
  unit ->
  'a array
(** [map_indices ~section ~encode ~decode ~jobs ~n ~f ()] computes
    [Array.init n f] with up to [jobs] domains
    ({!Lepts_par.Pool.run}), reusing every unit already recorded in the
    session and persisting newly computed units as it goes:

    - cached units are decoded from the store and {e not} recomputed
      (counted in [lepts_checkpoint_entries_resumed_total]);
    - missing units are computed in index order, [chunk] (default 50)
      at a time; after each chunk the session is saved
      ([lepts_checkpoint_saves_total]), bounding the work a crash can
      lose to one chunk;
    - between chunks, [should_stop] is polled (a SIGTERM/SIGINT drain
      flag — see {!Lepts_serve.Drain}); when it fires the session is
      saved and {!Drained} is raised;
    - the returned array is in index order and bit-identical whatever
      mix of cached and computed units produced it, for every [jobs].

    Without a [session] this degrades to a single [Pool.run] (plus the
    [should_stop] poll). [on_stats] receives the pool report of each
    chunk that actually computed something. [encode]d fields must be
    non-empty, whitespace-free tokens; [decode] may raise [Failure] on
    malformed fields (surfaced to the caller — only possible if the
    checkpoint passed its checksum yet holds fields of the wrong
    shape, i.e. a section collision between different runs). *)

val float_field : float -> string
(** Exact text encoding: lowercase hex of [Int64.bits_of_float]. *)

val float_of_field : string -> float
(** Inverse of {!float_field}; raises [Failure] on malformed input. *)
