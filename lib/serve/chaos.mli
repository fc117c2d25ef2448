(** Service-layer chaos harness: deterministic fault injection for the
    [lepts serve] daemon, in the discipline of
    {!Lepts_robust.Fault_injector}.

    Every injection decision is a pure function of the profile seed and
    a content tag (request id and attempt for crashes and slowdowns,
    line index for drops), drawn through the non-advancing, domain-safe
    {!Lepts_prng.Xoshiro256.split_key} — so a fixed-seed chaos run
    injects the same faults at the same places whatever [jobs] is, and
    two runs of the same profile over the same input produce
    byte-identical reports. That is what the CI chaos-smoke job diffs
    for.

    Injections exercise the real resilience machinery rather than
    bypassing it: a crash is an exception raised in the service's
    [before_solve] hook on the worker domain (handled by the
    supervision loop like any worker crash), a drop removes the request
    before admission, and snapshot corruption flips one bit of the
    written cache file so the daemon's validating reload must refuse
    it. *)

type profile = {
  seed : int;
  crash_prob : float;  (** per solve attempt; in [0, 1] *)
  slow_prob : float;  (** per solve attempt; in [0, 1] *)
  slow_ms : int;  (** injected delay per slowdown, milliseconds; >= 0 *)
  drop_prob : float;  (** per input line, before admission; in [0, 1] *)
  corrupt_snapshot : bool;
      (** flip one bit of the final cache snapshot, then verify the
          daemon refuses to load it *)
  cut_prob : float;
      (** per arrival: drop the connection mid-line, leaving a partial
          line the transport must reject with a diagnostic; in [0, 1] *)
  stall_prob : float;
      (** per arrival: a slow client — the transport stalls [stall_ms]
          before consuming the bytes; in [0, 1] *)
  stall_ms : int;  (** injected delay per stall, milliseconds; >= 0 *)
  flip_prob : float;
      (** per spool file: flip one bit of its contents before parsing,
          so the damaged line goes through the real rejection path;
          in [0, 1] *)
}

val zero : profile
(** [seed = 2005], every fault off. *)

val validate : profile -> unit
(** Raises [Invalid_argument] naming the offending field. NaN
    probabilities are rejected. *)

val of_string : string -> (profile, string) result
(** Parse a profile string of comma-separated [key=value] pairs over
    {!zero}: ["crash=0.2,slow=0.1,slow-ms=2,drop=0.1,corrupt=1,seed=7"].
    Keys: [seed], [crash], [slow], [slow-ms], [drop], [corrupt]
    (0 or 1), [cut], [stall], [stall-ms], [flip]. The error message
    names the offending pair. *)

type t
(** A live harness: the profile plus atomic injection counters
    (worker-domain crashes and slowdowns commute across domains). *)

val create : profile:profile -> t
(** Raises [Invalid_argument] on an invalid profile. *)

val profile : t -> profile
(** The (validated) profile this harness injects from. *)

val drop_line : t -> index:int -> bool
(** Drop injection, keyed by line index: [true] means the line at
    [index] vanishes before admission. Never true when
    [drop_prob = 0]. Every transport applies it at ingress, before a
    sequence number is assigned ({!Transport.of_lines} to its batch,
    the live sources per arrival), so a dropped line never reaches the
    journal. *)

val cut_line : t -> seq:int -> len:int -> int option
(** Connection-cut injection for arrival [seq] carrying a [len]-byte
    line: [Some k] means the peer vanished after [k] bytes ([1 <= k <
    len]) and the transport must reject the partial line through its
    real disconnect path. [None] for [len < 2]. *)

val stall : t -> seq:int -> int option
(** Slow-client injection: [Some ms] asks the transport to stall that
    many milliseconds before consuming arrival [seq]. *)

val flip_spool : t -> name:string -> string -> string
(** Spool corruption: maybe flip one bit of a spool file's [contents]
    (keyed by basename [name]) before the transport parses it. *)

val before_solve : t -> attempt:int -> Request.t -> unit
(** Worker-side injection hook, composed into
    {!Service.run_source}'s [before_solve]: may sleep [slow_ms] and may
    raise to simulate a worker crash. Domain-safe. *)

val corrupt_file : t -> path:string -> (int, string) result
(** Flip one bit of [path] at a seed-keyed offset (atomically, via a
    sibling temp file). Returns the corrupted offset. *)

val report_json : t -> snapshot:string -> string
(** One-line [{"chaos": ...}] report trailer: seed, injection counts,
    and the daemon's verdict on the [snapshot] corruption check
    (e.g. ["ok"], ["corrupted+refused"], ["skipped"]). Contains no
    paths or timing, so fixed-seed runs emit identical trailers. *)
