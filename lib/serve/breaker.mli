(** Circuit breaker for the ACS solve stage.

    The ACS stage is the expensive, occasionally-stalling part of the
    {!Lepts_robust.Robust_solver} pipeline. When it keeps failing there
    is no point burning its full iteration budget on every request —
    the breaker trips and routes requests straight to the WCS/RM
    fallback chain until the stage has had time to recover.

    {2 State machine}

    {v
      Closed --[threshold consecutive failures]--> Open
      Open   --[cooldown ticks elapsed]----------> Half_open
      Half_open --[probe succeeds]---------------> Closed
      Half_open --[probe fails]------------------> Open
    v}

    Every [true] from {!plan_route} is settled once: by {!observe}
    with a verdict on the ACS stage alone when the stage saw the
    request, or by {!release} when there was nothing to solve (the
    task set could not be generated — a bad request is not a sick
    stage). A request routed around ACS holds no slot and settles
    nothing.

    Time is a {e logical clock} supplied by the caller — the service
    engine uses its processed-request count — so breaker behaviour is a
    pure function of the observation sequence, never of wall time.
    That is what lets the test suite pin the exact transition sequence
    and lets a parallel service stay bit-identical to a sequential
    one.

    Every transition is counted in {!Lepts_obs.Metrics.default} under
    [lepts_breaker_transitions_total{to=...}]. Not domain-safe: the
    service engine confines each breaker to the fold on the calling
    domain. *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed"] / ["open"] / ["half-open"]. *)

type config = {
  failure_threshold : int;
      (** consecutive ACS failures that trip Closed → Open; >= 1 *)
  cooldown : int;
      (** logical ticks an open circuit waits before probing; >= 1 *)
  probes : int;
      (** ACS attempts allowed per half-open episode; >= 1 *)
}

val default_config : config
(** [failure_threshold = 3], [cooldown = 8], [probes = 1]. *)

type t

val create : ?config:config -> unit -> t
(** A fresh breaker in [Closed]. Raises [Invalid_argument] on a
    non-positive config field. *)

val state : t -> state
(** Current position in the state machine. Read-only: unlike
    {!plan_route} it never consumes a half-open probe slot, so health
    reporting can poll it freely. *)

val plan_route : t -> now:int -> bool
(** [plan_route t ~now] decides whether the next request should attempt
    the ACS stage ([true]) or skip straight to the fallback chain
    ([false]). Closed always routes to ACS. Open routes to the
    fallback until [cooldown] ticks after it tripped, then transitions
    to [Half_open] and hands out up to [probes] ACS slots. Consumes a
    probe slot in [Half_open], so call it exactly once per request, in
    request order. *)

val observe : t -> now:int -> ok:bool -> unit
(** [observe t ~now ~ok] folds one ACS verdict into the breaker: [ok]
    means the ACS stage itself produced the schedule. *)

val release : t -> unit
(** [release t] hands back a slot {!plan_route} granted to a request
    that folds no verdict: in [Half_open] the probe returns to the
    episode's budget, so the next request probes instead; in [Closed]
    (no budget) and [Open] (episode over) it does nothing. *)

val transitions : t -> (int * state) list
(** Chronological transition log [(logical time, new state)], the
    initial [Closed] excluded. *)
