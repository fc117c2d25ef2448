module Pool = Lepts_par.Pool
module Rng = Lepts_prng.Xoshiro256
module Model = Lepts_power.Model
module Plan = Lepts_preempt.Plan
module Runner = Lepts_sim.Runner
module Robust_solver = Lepts_robust.Robust_solver
module Static_schedule = Lepts_core.Static_schedule
module Metrics = Lepts_obs.Metrics
module Span = Lepts_obs.Span
module Export = Lepts_obs.Export

let log_src = Logs.Src.create "lepts.serve" ~doc:"scheduling service engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  jobs : int;
  shards : int;
  high_water : int;
  wave : int;
  max_worker_crashes : int;
  breaker : Breaker.config;
}

let default_config =
  { jobs = 1; shards = 1; high_water = 64; wave = 8; max_worker_crashes = 2;
    breaker = Breaker.default_config }

type status =
  | Done of { stage : string; mean_energy : float option }
  | Failed of string
  | Rejected of string
  | Shed
  | Expired
  | Drained

type outcome = {
  id : string;
  status : status;
  attempts : int;
  crashes : int;
  routed_acs : bool;
  degraded : bool;
}

type report = {
  outcomes : outcome list;
  admitted : int;
  processed : int;
  shed : int;
  rejected : int;
  expired : int;
  coalesced : int;
  drained : bool;
  degraded : bool;
  shards : Shard.stat list;
}

type progress = {
  p_wave : int;
  p_processed : int;
  p_backlog : int;
  p_expired : int;
  p_coalesced : int;
  p_shards : (int * Breaker.state * int) list;
}

(* Service counters (DESIGN.md §9). *)
let m_requests =
  Metrics.counter ~help:"request lines received" Metrics.default
    "lepts_serve_requests_total"

let m_rejected =
  Metrics.counter ~help:"request lines rejected by the parser or transport"
    Metrics.default "lepts_serve_rejected_total"

let m_admitted =
  Metrics.counter ~help:"requests admitted below the high-water mark"
    Metrics.default "lepts_serve_admitted_total"

let m_shed =
  Metrics.counter ~help:"requests load-shed at admission" Metrics.default
    "lepts_serve_shed_total"

let m_processed =
  Metrics.counter ~help:"requests processed to completion" Metrics.default
    "lepts_serve_processed_total"

let m_restarts =
  Metrics.counter ~help:"worker restarts after a crash" Metrics.default
    "lepts_serve_worker_restarts_total"

let m_degraded =
  Metrics.counter ~help:"requests completed by a stage below ACS"
    Metrics.default "lepts_serve_degraded_total"

let m_drained =
  Metrics.counter ~help:"admitted requests left unprocessed by a drain"
    Metrics.default "lepts_serve_drained_total"

let m_expired =
  Metrics.counter
    ~help:"requests whose deadline lapsed while queued (shed at dispatch)"
    Metrics.default "lepts_serve_expired_total"

let m_coalesced =
  Metrics.counter
    ~help:"content-identical in-flight requests served by another's solve"
    Metrics.default "lepts_serve_coalesced_total"

let h_admission_to_dispatch =
  Metrics.histogram ~help:"queue wait from arrival to dispatch decision, ms"
    ~buckets:[| 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000. |]
    Metrics.default "lepts_serve_admission_to_dispatch_ms"

let h_dispatch_to_done =
  Metrics.histogram ~help:"worker wall time from dispatch to solved, ms"
    ~buckets:
      [| 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000. |]
    Metrics.default "lepts_serve_dispatch_to_done_ms"

(* Per-request execution result, before the breaker fold. *)
type exec = {
  e_status : status;
  e_attempts : int;
  e_crashes : int;
  e_verdict : bool option;
      (* [Some ok]: the solve ran or a worker crashed ([ok]: the ACS
         stage produced the schedule); [None]: no task set was generated *)
  e_degraded : bool;
  e_crashed_out : bool;  (* exhausted its worker restarts *)
  e_schedule : (float array * float array) option;
      (* solved (end_times, quotas), for the cache and warm chains *)
  e_ms : float;  (* worker wall ms — observability only, never reported *)
}

let workload_of ~power (req : Request.t) =
  if req.Request.tasks = 0 then
    Ok (Lepts_workloads.Cnc.task_set ~power ~ratio:req.Request.ratio ())
  else
    let rng = Rng.create ~seed:req.Request.seed in
    Lepts_workloads.Random_gen.generate
      (Lepts_workloads.Random_gen.default_config ~n_tasks:req.Request.tasks
         ~ratio:req.Request.ratio)
      ~power ~rng

(* One solve attempt. Both failures are pure functions of the request:
   its task set cannot be generated, or every pipeline stage failed. *)
let solve_once ~power ~before_solve ~skip_acs ~prev ~wait_ms ~attempt
    (req : Request.t) =
  Option.iter (fun f -> f ~attempt req) before_solve;
  match workload_of ~power req with
  | Error msg -> `Ungenerated ("generation failed: " ^ msg)
  | Ok ts -> (
    let plan = Plan.expand ts in
    (* [budget_ms] is an end-to-end deadline: the time this request
       already spent queued is charged against the wall budget each NLP
       stage gets. (Dispatch guarantees wait < budget — anything else
       expired in the queue.) *)
    let wall =
      Option.map
        (fun ms -> float_of_int (ms - wait_ms) /. 1000.)
        req.Request.budget_ms
    in
    let wcs = { Lepts_core.Solver.default_budget with wall_budget = wall } in
    let solver_config =
      { Robust_solver.wcs;
        acs =
          (match req.Request.acs_max_outer with
          | Some max_outer -> { wcs with max_outer }
          | None -> wcs) }
    in
    match
      Robust_solver.solve ~config:solver_config ~skip_acs ?prev ~plan ~power ()
    with
    | Error e -> `Unsolved (Format.asprintf "%a" Lepts_core.Solver.pp_error e)
    | Ok (schedule, diagnostics) ->
      let mean_energy =
        if req.Request.rounds = 0 then None
        else
          let rng = Rng.create ~seed:req.Request.seed in
          let summary =
            Runner.simulate ~rounds:req.Request.rounds ~schedule
              ~policy:Lepts_dvs.Policy.Greedy ~rng ()
          in
          Some summary.Runner.mean_energy
      in
      `Solved (schedule, diagnostics, mean_energy))

(* Process one request on a worker domain. Returns the exec record plus
   the solved schedule object, which a warm chain threads into the next
   near-identical solve. Only a worker crash runs the request again: a
   failed solve would fail the same way on every attempt. *)
let process ~config ~power ~before_solve ~skip_acs ~prev ~wait_ms
    (req : Request.t) =
  (* One constant name: a request id in it would add a span path per
     request, and build a string per request even with spans off. *)
  Span.with_ ~name:"serve:request" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let failed ~attempt ~crashes ?(crashed_out = false) ~verdict msg =
    ( { e_status = Failed msg; e_attempts = attempt; e_crashes = crashes;
        e_verdict = verdict; e_degraded = true; e_crashed_out = crashed_out;
        e_schedule = None; e_ms = 0. },
      None )
  in
  let rec go ~attempt ~crashes =
    match
      solve_once ~power ~before_solve ~skip_acs ~prev ~wait_ms ~attempt req
    with
    | exception e ->
      let msg = Printexc.to_string e in
      Log.warn (fun f ->
          f "%s: worker crashed on attempt %d: %s" req.Request.id attempt msg);
      if crashes >= config.max_worker_crashes then
        failed ~attempt ~crashes:(crashes + 1) ~crashed_out:true
          ~verdict:(Some false) ("worker crashed: " ^ msg)
      else begin
        Metrics.incr m_restarts;
        go ~attempt:(attempt + 1) ~crashes:(crashes + 1)
      end
    | `Ungenerated msg -> failed ~attempt ~crashes ~verdict:None msg
    | `Unsolved msg -> failed ~attempt ~crashes ~verdict:(Some false) msg
    | `Solved (schedule, diagnostics, mean_energy) ->
      let chosen = diagnostics.Robust_solver.chosen in
      ( { e_status =
            Done { stage = Robust_solver.stage_name chosen; mean_energy };
          e_attempts = attempt; e_crashes = crashes;
          e_verdict = Some (chosen = Robust_solver.Acs);
          e_degraded = chosen <> Robust_solver.Acs; e_crashed_out = false;
          e_schedule =
            Some
              ( schedule.Static_schedule.end_times,
                schedule.Static_schedule.quotas );
          e_ms = 0. },
        Some schedule )
  in
  let e, sched = go ~attempt:1 ~crashes:0 in
  ({ e with e_ms = (Unix.gettimeofday () -. t0) *. 1000. }, sched)

let no_exec = (* placeholder for requests a drain left unprocessed *)
  { e_status = Drained; e_attempts = 0; e_crashes = 0; e_verdict = None;
    e_degraded = false; e_crashed_out = false; e_schedule = None; e_ms = 0. }

let exec_of_entry (e : Cache.entry) =
  (* Only authoritative entries are ever served, so a cache hit is by
     construction a non-degraded ACS result. *)
  { e_status = Done { stage = e.Cache.stage; mean_energy = e.Cache.mean_energy };
    e_attempts = e.Cache.attempts; e_crashes = e.Cache.crashes;
    e_verdict = Some true; e_degraded = false; e_crashed_out = false;
    e_schedule = e.Cache.schedule; e_ms = 0. }

(* Rebuild a cached schedule object to seed a warm chain: regenerate
   the entry's workload (same tasks/seed/ratio, deterministic) and
   attach the stored exact-bits vectors. Any inconsistency simply
   yields no seed — the chain member then solves cold. *)
let seed_schedule ~power (req : Request.t) (ets, qs) =
  match workload_of ~power req with
  | Error _ -> None
  | Ok ts -> (
    let plan = Plan.expand ts in
    match
      Static_schedule.create ~plan ~power ~end_times:ets ~quotas:qs
    with
    | schedule -> Some schedule
    | exception Invalid_argument _ -> None)

(* A dispatched wave slot: shed at dispatch because its deadline
   lapsed in the queue, served from the cache, or sent to a worker
   (with or without the ACS stage). *)
type slot_state =
  | S_expired
  | S_cached of Cache.entry
  | S_solve of bool  (* ACS-routed? *)

(* One unit of pool work: a chain of links executed in order on one
   worker, threading the previous ACS schedule into the next solve. A
   solo request is a one-link chain. *)
type link =
  | L_seed of Request.t * (float array * float array)
      (* cached family member: rebuild its schedule, solve nothing *)
  | L_solve of { l_slot : int; l_req : Request.t; l_route : bool }

type queued = {
  q_seq : int;
  q_req : Request.t;
  q_shard : int;
  q_at_ms : int;
}

let run_source ?(config = default_config) ?(power = Model.ideal ()) ?cache
    ?journal ?before_solve ?after_wave ?(should_stop = fun () -> false)
    ~source () =
  if config.jobs < 1 then invalid_arg "Service.run_source: jobs must be >= 1";
  if config.shards < 1 then invalid_arg "Service.run_source: shards must be >= 1";
  if config.high_water < 1 then
    invalid_arg "Service.run_source: high_water must be >= 1";
  if config.wave < 1 then invalid_arg "Service.run_source: wave must be >= 1";
  if config.max_worker_crashes < 0 then
    invalid_arg "Service.run_source: max_worker_crashes must be >= 0";
  Span.with_ ~name:"serve:batch" @@ fun () ->
  (* One long-lived pool serves every wave of this run (and, being the
     process-wide shared pool for this worker count, every later run
     too): workers spawn once, not once per wave. *)
  let pool = Pool.shared ~jobs:config.jobs in
  let shards =
    Array.init config.shards (fun index ->
        Shard.create ~config:config.breaker ~index)
  in
  let queue : queued Queue.t = Queue.create () in
  let outcomes : (int, outcome) Hashtbl.t = Hashtbl.create 64 in
  let record seq o = Hashtbl.replace outcomes seq o in
  let admitted_total = ref 0 in
  let shed_total = ref 0 in
  let rejected_total = ref 0 in
  let processed = ref 0 in
  let expired_total = ref 0 in
  let coalesced_total = ref 0 in
  let drained = ref false in
  let drained_count = ref 0 in
  let degraded_service = ref false in
  let wave_no = ref 0 in
  (* Admission, at arrival: parse, assign to a shard by content hash of
     the id, admit below that shard's high-water mark, shed the rest.
     Transport-level rejections (partial or oversized lines) arrive as
     [Error] payloads and are reported like parse rejections. *)
  let admit (a : Transport.arrival) =
    Metrics.incr m_requests;
    let reject msg =
      Metrics.incr m_rejected;
      incr rejected_total;
      Log.info (fun f -> f "line %d rejected: %s" a.Transport.a_seq msg);
      record a.Transport.a_seq
        { id = Printf.sprintf "line-%d" a.Transport.a_seq;
          status = Rejected msg; attempts = 0; crashes = 0;
          routed_acs = false; degraded = false }
    in
    match a.Transport.a_payload with
    | Error diag -> reject diag
    | Ok line -> (
      match Request.of_json line with
      | Error msg -> reject msg
      | Ok req ->
        let s = Shard.of_id ~shards:config.shards req.Request.id in
        let sh = shards.(s) in
        if Shard.backlog sh < config.high_water then begin
          sh.Shard.admitted <- sh.Shard.admitted + 1;
          incr admitted_total;
          Metrics.incr m_admitted;
          Queue.add
            { q_seq = a.Transport.a_seq; q_req = req; q_shard = s;
              q_at_ms = a.Transport.a_at_ms }
            queue
        end
        else begin
          sh.Shard.shed <- sh.Shard.shed + 1;
          incr shed_total;
          Metrics.incr m_shed;
          Log.warn (fun f ->
              f "load shedding: %s above shard %d's high-water mark (%d)"
                req.Request.id s config.high_water);
          record a.Transport.a_seq
            { id = req.Request.id; status = Shed; attempts = 0; crashes = 0;
              routed_acs = false; degraded = false }
        end)
  in
  (* One wave: dispatch (expiry + route planning + cache lookups,
     sequential), coalesce and chain, solve on the pool, fold
     (sequential, in slot order). [now_ms] is the polled batch's stamp,
     so every time comparison is a pure function of the journal. *)
  let run_wave ~now_ms =
    incr wave_no;
    let w = Int.min config.wave (Queue.length queue) in
    let slots =
      (* explicit front-to-back dequeue — wave membership is part of the
         deterministic service semantics *)
      let rec take n acc =
        if n = 0 then List.rev acc else take (n - 1) (Queue.pop queue :: acc)
      in
      Array.of_list (take w [])
    in
    let wait_of q = now_ms - q.q_at_ms in
    (* Dispatch phase. [plan_route] may consume a half-open probe slot,
       so it runs exactly once per dispatched request; an expired
       request is shed here — it never reaches a worker and never
       observes the breaker. *)
    let states =
      Array.map
        (fun q ->
          let sh = shards.(q.q_shard) in
          let expired =
            match q.q_req.Request.budget_ms with
            | Some b -> now_ms - q.q_at_ms >= b
            | None -> false
          in
          if expired then begin
            sh.Shard.expired <- sh.Shard.expired + 1;
            incr expired_total;
            Metrics.incr m_expired;
            Log.info (fun f ->
                f "%s: deadline expired after %d ms in queue, shedding"
                  q.q_req.Request.id (now_ms - q.q_at_ms));
            record q.q_seq
              { id = q.q_req.Request.id; status = Expired; attempts = 0;
                crashes = 0; routed_acs = false; degraded = false };
            S_expired
          end
          else begin
            Metrics.observe h_admission_to_dispatch
              (float_of_int (wait_of q));
            let route =
              Breaker.plan_route sh.Shard.breaker ~now:sh.Shard.clock
            in
            if not route then S_solve false
            else
              match cache with
              | None -> S_solve true
              | Some c -> (
                match
                  Cache.find ~wave:!wave_no c ~key:(Cache.key q.q_req)
                with
                | `Hit e -> S_cached e
                | `Stale _ | `Miss -> S_solve true)
          end)
        slots
    in
    (* Coalescing: later solve slots with the same content key (and
       route) follow the first — one solve fans out to every waiter. *)
    let keys = Array.map (fun q -> Cache.key q.q_req) slots in
    let leader = Array.init w Fun.id in
    let seen : (string * bool, int) Hashtbl.t = Hashtbl.create 16 in
    for k = 0 to w - 1 do
      match states.(k) with
      | S_solve route -> (
        match Hashtbl.find_opt seen (keys.(k), route) with
        | Some l -> leader.(k) <- l
        | None -> Hashtbl.add seen (keys.(k), route) k)
      | S_expired | S_cached _ -> ()
    done;
    (* Warm chains: ACS-routed leaders of one family (same content
       except the ratio) execute in ratio order on one worker, each
       seeding the next through the continuation path; a cached family
       member contributes its stored schedule as a seed. *)
    let fam : (string, int list) Hashtbl.t = Hashtbl.create 16 in
    for k = w - 1 downto 0 do
      let joins =
        match states.(k) with
        | S_cached e -> e.Cache.schedule <> None
        | S_solve true -> leader.(k) = k
        | S_solve false | S_expired -> false
      in
      if joins then begin
        let fk = Cache.family_key slots.(k).q_req in
        let prev = Option.value (Hashtbl.find_opt fam fk) ~default:[] in
        Hashtbl.replace fam fk (k :: prev)
      end
    done;
    let chained = Array.make w false in
    let units = ref [] (* newest first; order does not affect results *) in
    Hashtbl.iter
      (fun _fk members ->
        let solves =
          List.filter
            (fun k -> match states.(k) with S_solve _ -> true | _ -> false)
            members
        in
        if List.length solves >= 1 && List.length members >= 2 then begin
          let ordered =
            List.sort
              (fun k1 k2 ->
                match
                  compare slots.(k1).q_req.Request.ratio
                    slots.(k2).q_req.Request.ratio
                with
                | 0 -> compare k1 k2
                | c -> c)
              members
          in
          let links =
            List.map
              (fun k ->
                chained.(k) <- true;
                match states.(k) with
                | S_cached e ->
                  L_seed (slots.(k).q_req, Option.get e.Cache.schedule)
                | S_solve route ->
                  L_solve { l_slot = k; l_req = slots.(k).q_req; l_route = route }
                | S_expired -> assert false)
              ordered
          in
          units := Array.of_list links :: !units
        end)
      fam;
    (* Solo units: every un-chained solve leader. *)
    for k = 0 to w - 1 do
      match states.(k) with
      | S_solve route when leader.(k) = k && not chained.(k) ->
        units :=
          [| L_solve { l_slot = k; l_req = slots.(k).q_req; l_route = route } |]
          :: !units
      | _ -> ()
    done;
    let units = Array.of_list !units in
    (* Solve phase: each unit runs its links in order on one worker. *)
    let run_unit links =
      let prev = ref None in
      let out = ref [] in
      Array.iter
        (fun link ->
          match link with
          | L_seed (req, vectors) -> prev := seed_schedule ~power req vectors
          | L_solve { l_slot; l_req; l_route } ->
            let e, sched =
              process ~config ~power ~before_solve ~skip_acs:(not l_route)
                ~prev:(if l_route then !prev else None)
                ~wait_ms:(wait_of slots.(l_slot)) l_req
            in
            prev := (if e.e_verdict = Some true then sched else None);
            out := (l_slot, e) :: !out)
        links;
      List.rev !out
    in
    let solved =
      if Array.length units = 0 then [||]
      else fst (Pool.submit pool ~n:(Array.length units) ~f:(fun u -> run_unit units.(u)))
    in
    let results = Array.make w no_exec in
    Array.iter
      (List.iter (fun (k, e) -> results.(k) <- e))
      solved;
    (* Fold phase: sequential, in slot order. Cache hits fold as
       successful ACS observations; fresh [Done] results are stored
       with their provenance and schedule; coalesced followers fold
       their leader's verdict into their own shard. Each ACS slot
       [plan_route] granted is settled once: a verdict, or the slot
       handed back when no task set was generated. A request routed
       around ACS holds no slot and folds nothing. *)
    let settle sh ~routed e =
      if routed then
        match e.e_verdict with
        | Some ok -> Breaker.observe sh.Shard.breaker ~now:sh.Shard.clock ~ok
        | None -> Breaker.release sh.Shard.breaker
    in
    for k = 0 to w - 1 do
      let q = slots.(k) in
      let sh = shards.(q.q_shard) in
      match states.(k) with
      | S_expired -> ()
      | S_cached entry ->
        sh.Shard.clock <- sh.Shard.clock + 1;
        sh.Shard.processed <- sh.Shard.processed + 1;
        let e = exec_of_entry entry in
        settle sh ~routed:true e;
        incr processed;
        record q.q_seq
          { id = q.q_req.Request.id; status = e.e_status;
            attempts = e.e_attempts; crashes = e.e_crashes; routed_acs = true;
            degraded = e.e_degraded }
      | S_solve route ->
        sh.Shard.clock <- sh.Shard.clock + 1;
        sh.Shard.processed <- sh.Shard.processed + 1;
        let l = leader.(k) in
        let e = results.(l) in
        if l = k then begin
          Metrics.observe h_dispatch_to_done e.e_ms;
          match (cache, e.e_status) with
          | Some c, Done { stage; mean_energy } ->
            Cache.store ~wave:!wave_no c ~key:keys.(k)
              { Cache.stage; mean_energy; attempts = e.e_attempts;
                crashes = e.e_crashes;
                provenance =
                  (if e.e_verdict = Some true then Cache.Authoritative
                   else Cache.Fallback);
                schedule = e.e_schedule }
          | _ -> ()
        end
        else begin
          incr coalesced_total;
          Metrics.incr m_coalesced
        end;
        settle sh ~routed:route e;
        if e.e_degraded && not e.e_crashed_out then Metrics.incr m_degraded;
        if e.e_crashed_out then degraded_service := true;
        incr processed;
        record q.q_seq
          { id = q.q_req.Request.id; status = e.e_status;
            attempts = e.e_attempts; crashes = e.e_crashes;
            routed_acs = route; degraded = e.e_degraded }
    done;
    Option.iter
      (fun f ->
        f
          { p_wave = !wave_no; p_processed = !processed;
            p_backlog = Queue.length queue; p_expired = !expired_total;
            p_coalesced = !coalesced_total;
            p_shards =
              Array.to_list
                (Array.map
                   (fun sh ->
                     ( sh.Shard.index, Breaker.state sh.Shard.breaker,
                       Shard.backlog sh ))
                   shards) })
      after_wave
  in
  (* Event loop: poll the transport, admit the batch, honour drains,
     process one wave per iteration. Only batches the engine acted on
     are journaled, so replay reproduces the exact wave boundaries —
     including a drain, which is recorded where it struck. *)
  let record_batch b =
    Option.iter (fun j -> Transport.Journal.record j b) journal
  in
  let drain_queue () =
    drained := true;
    Log.warn (fun f ->
        f "drain requested: %d request(s) left unprocessed"
          (Queue.length queue));
    Queue.iter
      (fun q ->
        incr drained_count;
        record q.q_seq
          { id = q.q_req.Request.id; status = Drained; attempts = 0;
            crashes = 0; routed_acs = false; degraded = false })
      queue;
    Queue.clear queue
  in
  let rec loop () =
    let b = Transport.poll source ~pending:(not (Queue.is_empty queue)) in
    List.iter admit b.Transport.b_arrivals;
    if b.Transport.b_drain || should_stop () then begin
      record_batch { b with Transport.b_drain = true };
      drain_queue ()
    end
    else begin
      let work = not (Queue.is_empty queue) in
      if work || b.Transport.b_arrivals <> [] then record_batch b;
      if work then begin
        run_wave ~now_ms:b.Transport.b_now_ms;
        loop ()
      end
      else if not (b.Transport.b_closed && b.Transport.b_arrivals = []) then
        loop ()
    end
  in
  loop ();
  Metrics.incr ~by:!processed m_processed;
  Metrics.incr ~by:!drained_count m_drained;
  (* Reassemble one outcome per arrival, in sequence order. *)
  let outcome_list =
    List.sort compare (Hashtbl.fold (fun seq o acc -> (seq, o) :: acc) outcomes [])
    |> List.map snd
  in
  { outcomes = outcome_list; admitted = !admitted_total;
    processed = !processed; shed = !shed_total; rejected = !rejected_total;
    expired = !expired_total; coalesced = !coalesced_total;
    drained = !drained; degraded = !degraded_service;
    shards = Array.to_list (Array.map Shard.stat shards) }

let outcome_json (o : outcome) =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "{\"id\":\"%s\"" (Export.json_escape o.id));
  (match o.status with
  | Done { stage; mean_energy } ->
    Buffer.add_string b (Printf.sprintf ",\"status\":\"done\",\"stage\":\"%s\"" stage);
    Option.iter
      (fun e -> Buffer.add_string b (Printf.sprintf ",\"mean_energy\":%.12g" e))
      mean_energy
  | Failed msg ->
    Buffer.add_string b
      (Printf.sprintf ",\"status\":\"failed\",\"reason\":\"%s\""
         (Export.json_escape msg))
  | Rejected msg ->
    Buffer.add_string b
      (Printf.sprintf ",\"status\":\"rejected\",\"reason\":\"%s\""
         (Export.json_escape msg))
  | Shed -> Buffer.add_string b ",\"status\":\"shed\""
  | Expired -> Buffer.add_string b ",\"status\":\"expired\""
  | Drained -> Buffer.add_string b ",\"status\":\"drained\"");
  (match o.status with
  | Done _ | Failed _ ->
    Buffer.add_string b
      (Printf.sprintf ",\"route\":\"%s\",\"attempts\":%d,\"crashes\":%d"
         (if o.routed_acs then "acs" else "fallback")
         o.attempts o.crashes);
    if o.degraded then Buffer.add_string b ",\"degraded\":true"
  | Rejected _ | Shed | Expired | Drained -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let shard_json (s : Shard.stat) =
  let transitions =
    String.concat ","
      (List.map
         (fun (t, st) -> Printf.sprintf "[%d,\"%s\"]" t (Breaker.state_name st))
         s.Shard.transitions)
  in
  Printf.sprintf
    "{\"shard\":%d,\"admitted\":%d,\"shed\":%d,\"processed\":%d,\
     \"expired\":%d,\"breaker\":[%s]}"
    s.Shard.shard s.Shard.s_admitted s.Shard.s_shed s.Shard.s_processed
    s.Shard.s_expired transitions

let print_report ?(oc = stdout) r =
  List.iter (fun o -> output_string oc (outcome_json o ^ "\n")) r.outcomes;
  let shards = String.concat "," (List.map shard_json r.shards) in
  output_string oc
    (Printf.sprintf
       "{\"summary\":{\"requests\":%d,\"admitted\":%d,\"processed\":%d,\
        \"shed\":%d,\"rejected\":%d,\"expired\":%d,\"drained\":%b,\
        \"degraded\":%b,\"shards\":[%s]}}\n"
       (List.length r.outcomes) r.admitted r.processed r.shed r.rejected
       r.expired r.drained r.degraded shards);
  flush oc
