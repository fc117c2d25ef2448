type record = {
  outer : int;
  iteration : int;
  objective : float;
  step : float;
  step_norm : float;
  backtracks : int;
  projections : int;
}

(* Struct-of-arrays ring: push writes unboxed scalars into float/int
   arrays preallocated at creation, so the solver's inner loop pays a
   few stores per iteration and no allocation. *)
type ring = {
  capacity : int;
  mutable phase : int;
  mutable pushed : int;
  r_outer : int array;
  r_iter : int array;
  r_obj : float array;
  r_step : float array;
  r_norm : float array;
  r_back : int array;
  r_proj : int array;
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Telemetry.ring: capacity must be positive";
  { capacity; phase = 0; pushed = 0;
    r_outer = Array.make capacity 0;
    r_iter = Array.make capacity 0;
    r_obj = Array.make capacity 0.;
    r_step = Array.make capacity 0.;
    r_norm = Array.make capacity 0.;
    r_back = Array.make capacity 0;
    r_proj = Array.make capacity 0 }

let set_phase r phase = r.phase <- phase

let push r ~iteration ~objective ~step ~step_norm ~backtracks ~projections =
  let slot = r.pushed mod r.capacity in
  r.r_outer.(slot) <- r.phase;
  r.r_iter.(slot) <- iteration;
  r.r_obj.(slot) <- objective;
  r.r_step.(slot) <- step;
  r.r_norm.(slot) <- step_norm;
  r.r_back.(slot) <- backtracks;
  r.r_proj.(slot) <- projections;
  r.pushed <- r.pushed + 1

let pushed r = r.pushed
let length r = min r.pushed r.capacity

let records r =
  let n = length r in
  let first = r.pushed - n in
  List.init n (fun i ->
      let slot = (first + i) mod r.capacity in
      { outer = r.r_outer.(slot); iteration = r.r_iter.(slot);
        objective = r.r_obj.(slot); step = r.r_step.(slot);
        step_norm = r.r_norm.(slot); backtracks = r.r_back.(slot);
        projections = r.r_proj.(slot) })

let clear r =
  r.pushed <- 0;
  r.phase <- 0

type start = {
  start_index : int;
  s_ring : ring;
  mutable outer_rounds : int;
  mutable inner_iterations : int;
  mutable final_objective : float;
  mutable failure : string option;
}

type solve = { label : string; capacity : int; mutable starts : start array }

let solve_sink ?(capacity = 512) ~label () =
  if capacity <= 0 then invalid_arg "Telemetry.solve_sink: capacity must be positive";
  { label; capacity; starts = [||] }

let init_starts s ~n =
  s.starts <-
    Array.init n (fun start_index ->
        { start_index; s_ring = ring ~capacity:s.capacity; outer_rounds = 0;
          inner_iterations = 0; final_objective = Float.nan; failure = None })

let start_slot s i = s.starts.(i)

let sum_starts f s = Array.fold_left (fun acc st -> acc + f st) 0 s.starts

type collector = {
  max_solves : int;
  c_capacity : int;
  lock : Mutex.t;
  mutable kept : solve list;  (* newest first *)
  mutable n_kept : int;
  mutable n_dropped : int;
}

let collector ?(max_solves = 32) ?(capacity = 512) () =
  if max_solves <= 0 then invalid_arg "Telemetry.collector: max_solves must be positive";
  { max_solves; c_capacity = capacity; lock = Mutex.create (); kept = [];
    n_kept = 0; n_dropped = 0 }

let register c ~label =
  Mutex.lock c.lock;
  let slot =
    if c.n_kept >= c.max_solves then begin
      c.n_dropped <- c.n_dropped + 1;
      None
    end
    else begin
      let s = solve_sink ~capacity:c.c_capacity ~label () in
      c.kept <- s :: c.kept;
      c.n_kept <- c.n_kept + 1;
      Some s
    end
  in
  Mutex.unlock c.lock;
  slot

let solves c =
  Mutex.lock c.lock;
  let kept = c.kept in
  Mutex.unlock c.lock;
  List.sort (fun a b -> String.compare a.label b.label) kept

let dropped c =
  Mutex.lock c.lock;
  let d = c.n_dropped in
  Mutex.unlock c.lock;
  d
