module Metrics = Lepts_obs.Metrics

let log_src = Logs.Src.create "lepts.serve.breaker" ~doc:"ACS circuit breaker"

module Log = (val Logs.src_log log_src : Logs.LOG)

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = { failure_threshold : int; cooldown : int; probes : int }

let default_config = { failure_threshold = 3; cooldown = 8; probes = 1 }

let m_transition state =
  Metrics.counter ~help:"circuit breaker state transitions"
    ~labels:[ ("to", state_name state) ]
    Metrics.default "lepts_breaker_transitions_total"

let () =
  List.iter (fun s -> ignore (m_transition s)) [ Closed; Open; Half_open ]

type t = {
  config : config;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable opened_at : int;  (* logical time of the last Closed/Half_open -> Open *)
  mutable probes_left : int;  (* ACS slots remaining in this half-open episode *)
  mutable log : (int * state) list;  (* reverse chronological *)
}

let create ?(config = default_config) () =
  if config.failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold must be >= 1";
  if config.cooldown < 1 then invalid_arg "Breaker.create: cooldown must be >= 1";
  if config.probes < 1 then invalid_arg "Breaker.create: probes must be >= 1";
  { config; state = Closed; consecutive_failures = 0; opened_at = 0;
    probes_left = 0; log = [] }

let state t = t.state

let transition t ~now next =
  Log.info (fun f ->
      f "t=%d: %s -> %s" now (state_name t.state) (state_name next));
  t.state <- next;
  t.log <- (now, next) :: t.log;
  Metrics.incr (m_transition next)

let plan_route t ~now =
  match t.state with
  | Closed -> true
  | Open ->
    if now - t.opened_at >= t.config.cooldown then begin
      transition t ~now Half_open;
      t.probes_left <- t.config.probes - 1;
      true
    end
    else false
  | Half_open ->
    if t.probes_left > 0 then begin
      t.probes_left <- t.probes_left - 1;
      true
    end
    else false

let trip t ~now =
  t.opened_at <- now;
  t.consecutive_failures <- 0;
  transition t ~now Open

let observe t ~now ~ok =
  match t.state with
  | Closed ->
    if ok then t.consecutive_failures <- 0
    else begin
      t.consecutive_failures <- t.consecutive_failures + 1;
      if t.consecutive_failures >= t.config.failure_threshold then trip t ~now
    end
  | Half_open ->
    (* One verdict decides the episode: a failed probe re-opens even if
       sibling probes are still in flight; a successful probe closes. *)
    if ok then begin
      t.consecutive_failures <- 0;
      transition t ~now Closed
    end
    else trip t ~now
  | Open ->
    (* A probe that was planned in Half_open but folded after a sibling
       re-opened the circuit: already accounted for. *)
    ()

let release t =
  if t.state = Half_open then t.probes_left <- t.probes_left + 1

let transitions t = List.rev t.log
