module Checkpoint = Lepts_robust.Checkpoint
module Metrics = Lepts_obs.Metrics
module Model = Lepts_power.Model

let log_src = Logs.Src.create "lepts.serve.daemon" ~doc:"persistent serve daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  service : Service.config;
  cache_path : string option;
  snapshot_every : int;
  health_every : int;
  journal_path : string option;
  max_cache_entries : int option;
}

let default_config =
  { service = Service.default_config; cache_path = None; snapshot_every = 8;
    health_every = 0; journal_path = None; max_cache_entries = None }

type start = Cold | Warm of int | Refused of string

let start_name = function
  | Cold -> "cold"
  | Warm n -> Printf.sprintf "warm (%d cached schedule(s))" n
  | Refused _ -> "cold (snapshot refused)"

type result = {
  report : Service.report;
  start : start;
  cache : Cache.t;
  chaos_line : string option;
}

(* The cache-level fingerprint pins every daemon parameter that changes
   responses — today, the power model (exact IEEE-754 bits of its
   voltage rails). [jobs], [shards] and the breaker thresholds change
   scheduling of work, never a schedule, so they are deliberately
   absent: a snapshot stays warm across a re-tuned deployment. The
   cache size bound is likewise absent — {!Cache.load} reconciles a
   differently-bounded snapshot by deterministic truncation instead of
   refusing it. *)
let cache_fingerprint ~power =
  Checkpoint.fingerprint
    ~parts:
      [ "lepts-serve-cache";
        Checkpoint.float_field power.Model.v_min;
        Checkpoint.float_field power.Model.v_max ]

(* Warm start: validate and load the snapshot if one exists. A corrupt
   or mismatched snapshot is refused with its diagnostic and the
   daemon falls back to a cold start — it must never trust bytes that
   fail a check, and never crash because a restart found debris. *)
let start_cache ~path_opt ~max_entries ~fingerprint =
  let fresh () = Cache.create ?max_entries ~fingerprint () in
  match path_opt with
  | None -> (Cold, fresh ())
  | Some path ->
    if not (Sys.file_exists path) then begin
      Log.info (fun f -> f "%s: no snapshot, cold start" path);
      (Cold, fresh ())
    end
    else (
      match Cache.load ?max_entries ~path ~fingerprint () with
      | Ok cache -> (Warm (Cache.size cache), cache)
      | Error msg ->
        Log.err (fun f -> f "refusing cache snapshot: %s" msg);
        (Refused msg, fresh ()))

let g_entries =
  Metrics.gauge ~help:"schedules held by the serve cache" Metrics.default
    "lepts_serve_cache_entries"

let shard_gauges shards =
  Array.init shards (fun i ->
      let labels = [ ("shard", string_of_int i) ] in
      ( Metrics.gauge ~help:"breaker state (0 closed, 1 open, 2 half-open)"
          ~labels Metrics.default "lepts_breaker_state",
        Metrics.gauge ~help:"admitted requests not yet processed" ~labels
          Metrics.default "lepts_serve_shard_backlog" ))

let state_code = function
  | Breaker.Closed -> 0.
  | Breaker.Open -> 1.
  | Breaker.Half_open -> 2.

let health_line ~cache (p : Service.progress) =
  let stats = Cache.stats cache in
  Printf.sprintf
    "health wave=%d processed=%d backlog=%d expired=%d coalesced=%d \
     cache{entries=%d,hits=%d,hit_rate=%.2f,stale=%d,upgrades=%d,\
     evictions=%d} shards=[%s]"
    p.Service.p_wave p.Service.p_processed p.Service.p_backlog
    p.Service.p_expired p.Service.p_coalesced stats.Cache.entries
    stats.Cache.s_hits (Cache.hit_rate cache) stats.Cache.s_stale
    stats.Cache.s_upgrades stats.Cache.s_evictions
    (String.concat ","
       (List.map
          (fun (i, st, backlog) ->
            Printf.sprintf "%d:%s:%d" i (Breaker.state_name st) backlog)
          p.Service.p_shards))

let cache_stats_line ~cache =
  let s = Cache.stats cache in
  Printf.sprintf
    "{\"cache\":{\"entries\":%d,\"hits\":%d,\"misses\":%d,\"stale\":%d,\
     \"inserts\":%d,\"upgrades\":%d,\"evictions\":%d}}"
    s.Cache.entries s.Cache.s_hits s.Cache.s_misses s.Cache.s_stale
    s.Cache.s_inserts s.Cache.s_upgrades s.Cache.s_evictions

(* A snapshot save writes [path ^ ".tmp"] and renames it onto [path],
   which fails on a directory or under a missing parent — after the
   whole run has been served, at the final save. *)
let refused_path config =
  List.find_map
    (fun path ->
      let dir = Filename.dirname path in
      if Sys.file_exists path && not (Sys.is_regular_file path) then
        Some (path ^ ": not a regular file")
      else if Sys.file_exists dir && Sys.is_directory dir then None
      else Some (path ^ ": no directory " ^ dir))
    (List.filter_map Fun.id [ config.cache_path; config.journal_path ])

let run_source ?(config = default_config) ?(power = Model.ideal ()) ?chaos
    ?before_solve ?(should_stop = fun () -> false) ~source () =
  if config.snapshot_every < 1 then
    invalid_arg "Daemon.run: snapshot_every must be >= 1";
  if config.health_every < 0 then
    invalid_arg "Daemon.run: health_every must be >= 0";
  Option.iter (fun msg -> invalid_arg ("Daemon.run: " ^ msg))
    (refused_path config);
  let fingerprint = cache_fingerprint ~power in
  let start, cache =
    start_cache ~path_opt:config.cache_path
      ~max_entries:config.max_cache_entries ~fingerprint
  in
  Log.info (fun f -> f "daemon start: %s" (start_name start));
  let journal =
    Option.map (fun _ -> Transport.Journal.create ()) config.journal_path
  in
  let save_journal () =
    match (journal, config.journal_path) with
    | Some j, Some path -> Transport.Journal.save j ~path
    | _ -> ()
  in
  let before_solve ~attempt req =
    Option.iter (fun ch -> Chaos.before_solve ch ~attempt req) chaos;
    Option.iter (fun f -> f ~attempt req) before_solve
  in
  let gauges = shard_gauges config.service.Service.shards in
  let after_wave (p : Service.progress) =
    Metrics.set g_entries (float_of_int (Cache.size cache));
    List.iter
      (fun (i, st, backlog) ->
        let g_state, g_backlog = gauges.(i) in
        Metrics.set g_state (state_code st);
        Metrics.set g_backlog (float_of_int backlog))
      p.Service.p_shards;
    (* Periodic snapshot: the persistence that makes a kill -9 at any
       wave boundary recoverable. Atomic write-rename, so a crash
       mid-save leaves the previous snapshot intact. The arrival
       journal is saved on the same cadence — after a kill, everything
       up to the last completed wave replays offline. *)
    if p.Service.p_wave mod config.snapshot_every = 0 then begin
      Option.iter (fun path -> Cache.save cache ~path) config.cache_path;
      save_journal ()
    end;
    if config.health_every > 0 && p.Service.p_wave mod config.health_every = 0
    then prerr_endline (health_line ~cache p)
  in
  let report =
    Service.run_source ~config:config.service ~power ~cache ?journal
      ~before_solve ~after_wave ~should_stop ~source ()
  in
  Option.iter (fun path -> Cache.save cache ~path) config.cache_path;
  save_journal ();
  (* Chaos epilogue: corrupt the final snapshot and verify the daemon's
     own validating loader refuses it — then restore the good bytes so
     the next restart still comes up warm. *)
  let chaos_line =
    Option.map
      (fun ch ->
        let verdict =
          match (config.cache_path, (Chaos.profile ch).Chaos.corrupt_snapshot)
          with
          | None, _ | _, false -> "skipped"
          | Some path, true -> (
            match Chaos.corrupt_file ch ~path with
            | Error msg ->
              Log.err (fun f -> f "chaos: corruption failed: %s" msg);
              "corrupt-error"
            | Ok _ -> (
              match
                Cache.load ?max_entries:config.max_cache_entries ~path
                  ~fingerprint ()
              with
              | Error msg ->
                Log.info (fun f ->
                    f "chaos: corrupted snapshot refused as expected: %s" msg);
                Cache.save cache ~path;
                "corrupted+refused"
              | Ok _ ->
                Log.err (fun f ->
                    f "chaos: corrupted snapshot was ACCEPTED — checksum hole");
                "corrupted+accepted"))
        in
        Chaos.report_json ch ~snapshot:verdict)
      chaos
  in
  { report; start; cache; chaos_line }

let run ?config ?power ?chaos ?before_solve ?should_stop ~lines () =
  run_source ?config ?power ?chaos ?before_solve ?should_stop
    ~source:(Transport.of_lines ?chaos lines) ()
