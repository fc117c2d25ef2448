(** Solver convergence telemetry: per-iteration records captured into
    preallocated ring buffers.

    The projected-gradient inner loop
    ({!Lepts_optim.Projected_gradient.minimize_ws}) pushes one record
    per iteration when handed a {!ring}; {!Lepts_core.Solver} allocates
    one ring per multi-start and wraps them in a {!solve} sink. Capture
    is strictly observational: the solver performs exactly the same
    floating-point operations with telemetry on or off, so results are
    bit-identical either way (asserted by the test suite with
    [Int64.bits_of_float]).

    Rings keep the {e last} [capacity] records (older ones are
    overwritten); {!pushed} tells how many were seen in total. Pushing
    writes scalars into preallocated arrays — no allocation on the hot
    path. A ring is single-writer: each solver start owns its own. *)

type record = {
  outer : int;  (** augmented-Lagrangian outer round (see {!set_phase}) *)
  iteration : int;  (** projected-gradient iteration within its inner solve *)
  objective : float;  (** accepted objective value *)
  step : float;  (** Barzilai–Borwein step length used *)
  step_norm : float;  (** norm of the accepted projected step *)
  backtracks : int;  (** Armijo backtracking halvings this iteration *)
  projections : int;  (** projection applications this iteration *)
}

type ring

val ring : capacity:int -> ring
(** Preallocates storage for [capacity] records
    (raises [Invalid_argument] when [capacity <= 0]). *)

val set_phase : ring -> int -> unit
(** Tag subsequent pushes with this outer-round index. *)

val push :
  ring ->
  iteration:int ->
  objective:float ->
  step:float ->
  step_norm:float ->
  backtracks:int ->
  projections:int ->
  unit
(** Record one iteration (allocation-free). *)

val pushed : ring -> int
(** Total records pushed since creation / {!clear}. *)

val length : ring -> int
(** Records currently held: [min pushed capacity]. *)

val records : ring -> record list
(** The kept window, oldest first. *)

val clear : ring -> unit

(** {2 Per-solve sinks}

    One {!solve} collects the telemetry of a whole multi-start solve:
    a ring per start plus that start's outcome. Create it with
    {!solve_sink} and pass it to [Lepts_core.Solver.solve*]; the
    solver calls {!init_starts} once it knows the start count and
    fills the slots (each start is written by exactly one domain, and
    the caller reads only after the solve returns). *)

type start = {
  start_index : int;
  s_ring : ring;
  mutable outer_rounds : int;
  mutable inner_iterations : int;
  mutable final_objective : float;  (** [nan] until the start succeeds *)
  mutable failure : string option;  (** why the start failed, if it did *)
}

type solve = {
  label : string;
  capacity : int;  (** ring capacity handed to each start *)
  mutable starts : start array;  (** empty until the solver runs *)
}

val solve_sink : ?capacity:int -> label:string -> unit -> solve
(** [capacity] defaults to 512 records per start. *)

val init_starts : solve -> n:int -> unit
(** Allocate [n] fresh start slots (called by the solver). *)

val start_slot : solve -> int -> start

val sum_starts : (start -> int) -> solve -> int
(** [f] summed over every start: the solve's whole work, where
    [Solver.stats] describes only the returned start. *)

(** {2 Bounded collectors}

    Experiment sweeps run hundreds of solves; a {!collector} keeps the
    first [max_solves] of them (mutex-protected, so sweep workers on
    several domains can register concurrently) and drops the rest,
    counting what was dropped — a report must say when it is a sample,
    never silently truncate. *)

type collector

val collector : ?max_solves:int -> ?capacity:int -> unit -> collector
(** Defaults: keep 32 solves, 512 records per start. *)

val register : collector -> label:string -> solve option
(** A fresh registered sink, or [None] when the collector is full
    (the drop is counted either way). *)

val solves : collector -> solve list
(** Registered sinks sorted by label (registration order is
    nondeterministic under parallel sweeps; the sort makes reports
    stable). *)

val dropped : collector -> int
(** Solves that ran without capture because the collector was full. *)
