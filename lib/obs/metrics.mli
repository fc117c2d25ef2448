(** Metrics registry: counters, gauges and histograms that the solver,
    simulator, robust pipeline and parallel pools report into.

    Design constraints, mirroring the workspace discipline of
    {!Lepts_core.Workspace} (DESIGN.md §8):

    - {b no allocation on the hot path} — counters and histogram
      observations are atomic integer adds into cells and buckets
      preallocated at registration time; only registration and
      {!snapshot} allocate;
    - {b domain-safe} — every update is an [Atomic] operation, so
      metrics can be bumped concurrently from {!Lepts_par.Pool}
      workers; because integer adds commute, the aggregate values are
      identical for every [jobs] value;
    - {b deterministic read-out} — {!snapshot} returns samples sorted
      by identity (name, then labels), so exports are byte-stable for
      equal values.

    Histogram sums are accumulated in fixed-point nano-units
    (resolution [1e-9], range ±4.6e9 in observed units) to keep the
    observation path allocation-free; gauge writes box one float and
    are intended for low-frequency state, not per-iteration updates. *)

type t
(** A registry: a named collection of metrics. *)

val create : unit -> t

val default : t
(** The process-wide registry that the library's built-in
    instrumentation (solver, runner, robust pipeline) reports into. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Last-write-wins float. *)

type histogram
(** Cumulative-bucket histogram with preallocated buckets. *)

val counter : ?help:string -> ?labels:(string * string) list -> t -> string -> counter
(** [counter t name] registers (or retrieves) the counter with this
    identity. Raises [Invalid_argument] if the identity is already
    bound to a different metric kind. *)

val gauge : ?help:string -> ?labels:(string * string) list -> t -> string -> gauge

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  buckets:float array ->
  t ->
  string ->
  histogram
(** [buckets] are finite upper bounds, strictly increasing; an implicit
    [+inf] bucket is always appended. Raises [Invalid_argument] on
    unsorted or non-finite bounds, or if the identity exists with
    different buckets. *)

val incr : ?by:int -> counter -> unit
(** Atomic add (default 1). Negative [by] raises [Invalid_argument] —
    counters only go up. *)

val counter_value : counter -> int

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Atomically increments the first bucket whose upper bound is
    [>= value] (or the overflow bucket), the total count, and the
    fixed-point sum. Allocation-free. *)

(** An immutable read-out of one metric. *)
type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      upper : float array;  (** finite upper bounds, as registered *)
      counts : int array;  (** per-bucket counts, [length upper + 1];
                               the last cell is the [+inf] bucket *)
      sum : float;  (** sum of observations (1e-9 resolution) *)
      count : int;  (** total observations *)
    }

type sample = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  help : string;
  value : value;
}

val snapshot : t -> sample list
(** All metrics, sorted by (name, labels). Safe to call while other
    domains update — each cell is read atomically, though the samples
    of one histogram are not a single consistent cut. *)

val reset : t -> unit
(** Zero every registered metric (identities stay registered). Meant
    for the start of a per-run report, not for concurrent use. *)
