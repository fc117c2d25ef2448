module Solver = Lepts_core.Solver
module Validate = Lepts_core.Validate
module Static_schedule = Lepts_core.Static_schedule
module Metrics = Lepts_obs.Metrics
module Span = Lepts_obs.Span
module Telemetry = Lepts_obs.Telemetry

let log_src = Logs.Src.create "lepts.robust.solver" ~doc:"resilient solve pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = { acs : Solver.budget; wcs : Solver.budget }

let default_config = { acs = Solver.default_budget; wcs = Solver.default_budget }

type stage = Acs | Wcs | Rm_vmax

let stage_name = function Acs -> "acs" | Wcs -> "wcs" | Rm_vmax -> "rm-vmax"

(* Pipeline health counters in the default registry (DESIGN.md §9).
   Registering all (stage) label combinations at module load keeps the
   full matrix visible — a report showing zero degradations is evidence
   of health, an absent series is not. *)
let m_attempts =
  let make stage =
    Metrics.counter ~help:"pipeline stage attempts"
      ~labels:[ ("stage", stage_name stage) ]
      Metrics.default "lepts_pipeline_attempts_total"
  in
  fun stage -> make stage

let m_failures stage =
  Metrics.counter ~help:"pipeline stage failures"
    ~labels:[ ("stage", stage_name stage) ]
    Metrics.default "lepts_pipeline_failures_total"

let m_chosen stage =
  Metrics.counter ~help:"pipeline solves won by this stage"
    ~labels:[ ("stage", stage_name stage) ]
    Metrics.default "lepts_pipeline_chosen_total"

let m_degradations =
  Metrics.counter
    ~help:"pipeline solves that fell back below ACS (degraded schedule)"
    Metrics.default "lepts_pipeline_degradations_total"

let m_budget_expired stage =
  Metrics.counter
    ~help:"pipeline stage failures with the stage's wall budget expired"
    ~labels:[ ("stage", stage_name stage) ]
    Metrics.default "lepts_pipeline_budget_expired_total"

let m_skipped =
  Metrics.counter
    ~help:"pipeline solves that skipped the ACS stage (circuit open)"
    Metrics.default "lepts_pipeline_acs_skipped_total"

let () =
  (* Pre-register the whole label matrix. *)
  List.iter
    (fun stage ->
      ignore (m_attempts stage);
      ignore (m_failures stage);
      ignore (m_chosen stage))
    [ Acs; Wcs; Rm_vmax ];
  (* Only the NLP stages take a wall budget. *)
  List.iter (fun stage -> ignore (m_budget_expired stage)) [ Acs; Wcs ];
  ignore m_degradations;
  ignore m_skipped

type diagnostics = {
  attempts : (stage * string) list;
  chosen : stage;
  stats : Lepts_core.Solver.stats option;
}

let pp_diagnostics ppf d =
  Format.fprintf ppf "schedule from %s" (stage_name d.chosen);
  List.iter
    (fun (stage, why) ->
      Format.fprintf ppf "@.  %s failed: %s" (stage_name stage) why)
    d.attempts

let error_string e = Format.asprintf "%a" Solver.pp_error e

let violations_string vs =
  String.concat "; " (List.map (Format.asprintf "%a" Validate.pp_violation) vs)

(* Re-check every candidate with the independent validator: a solver
   bug must surface as a fallback, never as an infeasible schedule
   handed to the runtime. *)
let validated (schedule, stats) =
  match Validate.check schedule with
  | Ok () -> Ok (schedule, Some stats)
  | Error vs ->
    Error (Printf.sprintf "solution failed validation (%s)" (violations_string vs))

let attempt_nlp ~(budget : Solver.budget) solve =
  if budget.max_outer <= 0 then Error "iteration budget exhausted before start"
  else
    match solve budget with
    | Error e -> Error (error_string e)
    | Ok pair -> validated pair

(* The canonical feasible point: worst-case rate-monotonic execution at
   maximum speed. No optimisation involved, so it cannot stall — it
   fails only when the task set is unschedulable outright. *)
let attempt_rm ~plan ~power =
  match Solver.initial_point ~plan ~power with
  | Error e -> Error (error_string e)
  | Ok (e0, q0) -> (
    let schedule = Static_schedule.create ~plan ~power ~end_times:e0 ~quotas:q0 in
    match Validate.check schedule with
    | Ok () -> Ok (schedule, None)
    | Error vs ->
      Error
        (Printf.sprintf "canonical RM schedule failed validation (%s)"
           (violations_string vs)))

let solve ?(config = default_config) ?(skip_acs = false) ?prev ?telemetry ~plan
    ~power () =
  let failures = ref [] in
  let run ?budget stage attempt =
    Metrics.incr (m_attempts stage);
    let t0 = Unix.gettimeofday () in
    match Span.with_ ~name:("pipeline:" ^ stage_name stage) attempt with
    | Ok (schedule, stats) ->
      Log.debug (fun f -> f "%s succeeded" (stage_name stage));
      Metrics.incr (m_chosen stage);
      (* Anything below ACS is a degraded (still safe) schedule. *)
      if stage <> Acs then Metrics.incr m_degradations;
      Some
        (schedule, { attempts = List.rev !failures; chosen = stage; stats })
    | Error why ->
      (* When the failing stage had a wall budget and it is spent, say
         so in the diagnostic itself: the last-error report of a
         multi-stage solve must not lose which stage timed out, or how
         far over budget it ran. *)
      let why =
        match budget with
        | Some { Solver.wall_budget = Some b; _ } ->
          let elapsed = Unix.gettimeofday () -. t0 in
          if elapsed >= b then begin
            Metrics.incr (m_budget_expired stage);
            Printf.sprintf
              "%s [%s wall budget expired: %.3fs elapsed of %.3fs budget]" why
              (stage_name stage) elapsed b
          end
          else why
        | Some { wall_budget = None; _ } | None -> why
      in
      Log.info (fun f -> f "%s failed: %s" (stage_name stage) why);
      Metrics.incr (m_failures stage);
      failures := (stage, why) :: !failures;
      None
  in
  (* A fresh sink per attempted NLP stage, registered only when the
     stage actually runs so collectors are not polluted by skipped
     fallbacks. [register] returns [None] on a full collector. *)
  let sink label =
    match telemetry with
    | None -> None
    | Some collector -> Telemetry.register collector ~label
  in
  let ( <|>? ) previous (stage, budget, attempt) =
    match previous with
    | Some _ -> previous
    | None -> run ?budget stage attempt
  in
  let acs_result =
    if skip_acs then begin
      (* Circuit-open routing ({!Lepts_serve.Breaker}): go straight to
         the fallback chain without burning an ACS attempt. Recorded in
         the diagnostics so a degraded schedule still says why. *)
      Metrics.incr m_skipped;
      failures := (Acs, "skipped (circuit open)") :: !failures;
      None
    end
    else
      run ~budget:config.acs Acs (fun () ->
          attempt_nlp ~budget:config.acs (fun budget ->
              (* With a previous schedule in hand (the serve-layer warm
                 chain), the ACS stage re-solves from it: a
                 continuation descent that is never worse than its
                 seed when the plans are compatible, the cold
                 multi-start otherwise. *)
              match prev with
              | Some prev ->
                Solver.solve_warm ~budget ?telemetry:(sink "pipeline:acs")
                  ~mode:Lepts_core.Objective.Average ~prev ~plan ~power ()
              | None ->
                Solver.solve_acs ~budget ?telemetry:(sink "pipeline:acs") ~plan
                  ~power ()))
  in
  let result =
    acs_result
    <|>? ( Wcs,
           Some config.wcs,
           fun () ->
             attempt_nlp ~budget:config.wcs (fun budget ->
                 Solver.solve_wcs ~budget ?telemetry:(sink "pipeline:wcs") ~plan
                   ~power ()) )
    <|>? (Rm_vmax, None, fun () -> attempt_rm ~plan ~power)
  in
  match result with
  | Some ok -> Ok ok
  | None ->
    (* Even the canonical RM point failed: either truly unschedulable,
       or every stage stalled — report the full chain. The budget
       annotation appends to the message, so match on the prefix. *)
    let unschedulable =
      let u = error_string Solver.Unschedulable in
      List.exists
        (fun (_, why) -> String.length why >= String.length u
                         && String.sub why 0 (String.length u) = u)
        !failures
    in
    if unschedulable then Error Solver.Unschedulable
    else
      Error
        (Solver.Solver_stalled
           (String.concat "; "
              (List.rev_map
                 (fun (stage, why) -> stage_name stage ^ ": " ^ why)
                 !failures)))
