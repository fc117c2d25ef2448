(** Hierarchical profiling spans: where does the wall clock go?

    [with_ ~name f] times [f] and accumulates the duration under a
    {e path} — [name] prefixed by the enclosing span's path on the same
    domain (["solve:acs/start"]), so nesting gives a call-tree keyed by
    strings. Aggregation is per (domain, path): each domain owns a
    private table (domain-local storage), so recording takes no lock;
    {!report} merges the tables into one list sorted by path.

    {b Cross-domain hierarchy.} A {!Lepts_par.Pool} worker starts with
    an empty span stack, so a span opened inside a worker would lose
    its logical parent — and worse, its path would differ between
    [jobs = 1] (caller's stack visible) and [jobs > 1]. Callers that
    fan work out therefore capture {!current} {e before} the pool call
    and pass it as [?parent], which overrides the stack-derived prefix:
    paths, and hence the merged report's keys and counts, are identical
    for every [jobs] value (asserted by the test suite). Durations are
    wall-clock and machine-dependent, of course.

    {b Overhead.} Disabled (the default), [with_] is one atomic load
    plus the call to [f]. Enabled, it adds two [Unix.gettimeofday]
    calls and a hashtable update.

    {b Read barrier.} {!report} and {!reset} must run while no other
    domain is inside [with_] — in practice: after every pool has
    joined. Worker tables outlive their domains, so spans recorded by
    a pool are visible to the caller after [Pool.run] returns. *)

type agg = {
  path : string;
  count : int;  (** completed spans at this path *)
  total_s : float;  (** summed wall-clock seconds *)
  max_s : float;  (** longest single span *)
}

val set_enabled : bool -> unit
(** Spans are disabled by default; {!with_} is then a pass-through. *)

val with_ : ?parent:string -> name:string -> (unit -> 'a) -> 'a
(** Time [f] under [parent ^ "/" ^ name] ([parent] defaults to the
    current domain's innermost open span; an empty parent means a root
    span). The span is recorded even when [f] raises. *)

val current : unit -> string option
(** The calling domain's innermost open span path, for handing to
    [?parent] across a pool boundary. *)

val report : unit -> agg list
(** Merge all domains' tables, sorted by path. Counts and paths are
    deterministic for deterministic control flow; times are not. *)

val reset : unit -> unit
(** Drop all recorded spans (registered domain tables survive). *)

val pp_report : Format.formatter -> agg list -> unit
(** One line per path: count, total and mean milliseconds. *)
