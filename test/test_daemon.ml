module Model = Lepts_power.Model
module Request = Lepts_serve.Request
module Service = Lepts_serve.Service
module Cache = Lepts_serve.Cache
module Chaos = Lepts_serve.Chaos
module Daemon = Lepts_serve.Daemon
module Checkpoint = Lepts_robust.Checkpoint

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let with_path f =
  let path = Filename.temp_file "lepts-test" ".cache" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let req ?(id = "a") ?(tasks = 0) ?(ratio = 0.1) ?(seed = 0) ?(rounds = 0)
    ?budget_ms ?acs_max_outer () =
  { Request.id; tasks; ratio; seed; rounds; budget_ms; acs_max_outer }

(* --- content-addressed keys ------------------------------------------------ *)

let test_cache_key_ignores_id () =
  let base = req ~id:"client-1" ~tasks:3 ~ratio:0.3 ~seed:7 ~rounds:5 () in
  Alcotest.(check string) "same content, different client: same key"
    (Cache.key base)
    (Cache.key { base with Request.id = "client-2" });
  List.iter
    (fun (label, other) ->
      Alcotest.(check bool) (label ^ " changes the key") true
        (Cache.key base <> Cache.key other))
    [ ("tasks", { base with Request.tasks = 4 });
      ("ratio", { base with Request.ratio = 0.30000000000000004 });
      ("seed", { base with Request.seed = 8 });
      ("rounds", { base with Request.rounds = 6 });
      ("budget_ms", { base with Request.budget_ms = Some 100 });
      ("acs_max_outer", { base with Request.acs_max_outer = Some 3 }) ]

(* --- provenance rules ------------------------------------------------------ *)

let entry ?(stage = "acs") ?mean_energy ?(attempts = 1) ?(crashes = 0)
    ?schedule provenance =
  { Cache.stage; mean_energy; attempts; crashes; provenance; schedule }

let test_cache_provenance_rules () =
  let c = Cache.create ~fingerprint:"fp" () in
  let key = "k1" in
  Alcotest.(check bool) "empty cache misses" true (Cache.find c ~key = `Miss);
  (* A degraded schedule is stored but never served as authoritative. *)
  Cache.store c ~key (entry ~stage:"wcs" Cache.Fallback);
  (match Cache.find c ~key with
  | `Stale e ->
    Alcotest.(check string) "stale entry keeps its stage" "wcs" e.Cache.stage
  | `Hit _ -> Alcotest.fail "served a fallback schedule as authoritative"
  | `Miss -> Alcotest.fail "stored entry lost");
  (* A later full-ACS solve of the same content upgrades it in place. *)
  Cache.store c ~key (entry Cache.Authoritative);
  (match Cache.find c ~key with
  | `Hit e -> Alcotest.(check string) "upgraded" "acs" e.Cache.stage
  | _ -> Alcotest.fail "authoritative entry not served");
  (* ... and is never demoted by a degraded re-solve. *)
  Cache.store c ~key (entry ~stage:"rm-vmax" Cache.Fallback);
  (match Cache.find c ~key with
  | `Hit e -> Alcotest.(check string) "not demoted" "acs" e.Cache.stage
  | _ -> Alcotest.fail "authoritative entry demoted");
  let s = Cache.stats c in
  Alcotest.(check int) "one insert" 1 s.Cache.s_inserts;
  Alcotest.(check int) "one upgrade" 1 s.Cache.s_upgrades;
  Alcotest.(check int) "one entry" 1 s.Cache.entries

(* --- snapshot persistence -------------------------------------------------- *)

let test_cache_snapshot_roundtrip () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "roundtrip" ] in
  let c = Cache.create ~fingerprint:fp () in
  Cache.store c ~key:"ka" (entry ~mean_energy:0.1 ~attempts:2 Cache.Authoritative);
  Cache.store c ~key:"kb" (entry ~stage:"wcs" ~crashes:1 Cache.Fallback);
  Cache.store c ~key:"kc" (entry ~mean_energy:1e-300 Cache.Authoritative);
  Cache.save c ~path;
  let c' =
    match Cache.load ~path ~fingerprint:fp () with
    | Ok c' -> c'
    | Error msg -> Alcotest.failf "valid snapshot refused: %s" msg
  in
  Alcotest.(check int) "all entries back" 3 (Cache.size c');
  (match Cache.find c' ~key:"ka" with
  | `Hit e ->
    Alcotest.(check bool) "float bits exact" true
      (e.Cache.mean_energy = Some 0.1);
    Alcotest.(check int) "attempts kept" 2 e.Cache.attempts
  | _ -> Alcotest.fail "ka lost");
  (match Cache.find c' ~key:"kb" with
  | `Stale e -> Alcotest.(check int) "crashes kept" 1 e.Cache.crashes
  | _ -> Alcotest.fail "fallback provenance lost in the round-trip");
  (* Re-saving the loaded cache reproduces the file byte for byte. *)
  let first = read_file path in
  Cache.save c' ~path;
  Alcotest.(check string) "snapshot byte-stable" first (read_file path)

let test_cache_snapshot_refusals () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "refusals" ] in
  let c = Cache.create ~fingerprint:fp () in
  Cache.store c ~key:"ka" (entry Cache.Authoritative);
  Cache.save c ~path;
  let good = read_file path in
  (* Fingerprint: a snapshot from a differently-configured daemon. *)
  let other = Checkpoint.fingerprint ~parts:[ "other-power-model" ] in
  (match Cache.load ~path ~fingerprint:other () with
  | Ok _ -> Alcotest.fail "accepted a foreign snapshot"
  | Error msg ->
    Alcotest.(check bool) "names the fingerprint check and both prints" true
      (contains ~sub:"fingerprint check failed" msg
      && contains ~sub:fp msg && contains ~sub:other msg));
  (* Checksum: one flipped byte. *)
  let flipped = Bytes.of_string good in
  Bytes.set flipped (String.index good 'k') 'K';
  write_file path (Bytes.to_string flipped);
  (match Cache.load ~path ~fingerprint:fp () with
  | Ok _ -> Alcotest.fail "accepted a corrupt snapshot"
  | Error msg ->
    Alcotest.(check bool) "names the checksum check" true
      (contains ~sub:"checksum check failed" msg));
  (* Truncation (a torn write). *)
  write_file path (String.sub good 0 (String.length good - 7));
  (match Cache.load ~path ~fingerprint:fp () with
  | Ok _ -> Alcotest.fail "accepted a truncated snapshot"
  | Error msg ->
    Alcotest.(check bool) "truncation caught" true
      (contains ~sub:"check failed" msg));
  (* Magic: a checkpoint is not a cache. *)
  write_file path
    (Checkpoint.Snapshot.render ~magic:"lepts-checkpoint" ~version:1
       ~fingerprint:fp ~body:[]);
  (match Cache.load ~path ~fingerprint:fp () with
  | Ok _ -> Alcotest.fail "accepted another family's snapshot"
  | Error msg ->
    Alcotest.(check bool) "names the magic check" true
      (contains ~sub:"magic check failed" msg));
  (* Version: future format. *)
  write_file path
    (Checkpoint.Snapshot.render ~magic:"lepts-cache" ~version:99
       ~fingerprint:fp ~body:[]);
  (match Cache.load ~path ~fingerprint:fp () with
  | Ok _ -> Alcotest.fail "accepted a future version"
  | Error msg ->
    Alcotest.(check bool) "names the version check" true
      (contains ~sub:"version check failed" msg));
  (* Body: a malformed entry line in a checksum-valid file. *)
  write_file path
    (Checkpoint.Snapshot.render ~magic:"lepts-cache" ~version:2
       ~fingerprint:fp ~body:[ "bound -"; "entry only-three fields" ]);
  match Cache.load ~path ~fingerprint:fp () with
  | Ok _ -> Alcotest.fail "accepted a malformed entry"
  | Error msg ->
    Alcotest.(check bool) "names the malformed line" true
      (contains ~sub:"malformed line" msg)

(* --- bounded cache --------------------------------------------------------- *)

let test_cache_bound_evicts_deterministically () =
  let make () =
    let c = Cache.create ~max_entries:2 ~fingerprint:"fp" () in
    Cache.store ~wave:1 c ~key:"k1" (entry Cache.Authoritative);
    Cache.store ~wave:1 c ~key:"k2" (entry ~stage:"wcs" Cache.Fallback);
    Cache.store ~wave:2 c ~key:"k3" (entry Cache.Authoritative);
    c
  in
  let c = make () in
  Alcotest.(check int) "never exceeds the bound" 2 (Cache.size c);
  Alcotest.(check int) "one eviction counted" 1
    (Cache.stats c).Cache.s_evictions;
  (* Fallback entries go first, whatever their recency. *)
  Alcotest.(check bool) "fallback evicted first" true
    (Cache.find c ~key:"k2" = `Miss);
  (match Cache.find c ~key:"k1" with
  | `Hit _ -> ()
  | _ -> Alcotest.fail "authoritative entry evicted before the fallback");
  (* The acceptance pin: equal runs under eviction pressure evict the
     same keys — their snapshots are byte-identical. *)
  with_path @@ fun p1 ->
  with_path @@ fun p2 ->
  Cache.save (make ()) ~path:p1;
  Cache.save (make ()) ~path:p2;
  Alcotest.(check string) "equal runs, byte-identical snapshots"
    (read_file p1) (read_file p2)

let test_cache_load_zero_entries () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "empty" ] in
  Cache.save (Cache.create ~fingerprint:fp ()) ~path;
  match Cache.load ~path ~fingerprint:fp () with
  | Ok c ->
    Alcotest.(check int) "zero entries round-trip" 0 (Cache.size c);
    Alcotest.(check bool) "unboundedness preserved" true
      (Cache.max_entries c = None)
  | Error msg -> Alcotest.failf "empty snapshot refused: %s" msg

let test_cache_load_truncates_larger_snapshot () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "trunc" ] in
  let c = Cache.create ~fingerprint:fp () in
  Cache.store ~wave:1 c ~key:"k1" (entry Cache.Authoritative);
  Cache.store ~wave:2 c ~key:"k2" (entry Cache.Authoritative);
  Cache.store ~wave:3 c ~key:"k3" (entry Cache.Authoritative);
  Cache.store ~wave:1 c ~key:"k0" (entry ~stage:"wcs" Cache.Fallback);
  Cache.save c ~path;
  (* A snapshot over the daemon's bound is truncated deterministically
     in eviction order — never refused. *)
  let c2 =
    match Cache.load ~max_entries:2 ~path ~fingerprint:fp () with
    | Ok c2 -> c2
    | Error msg -> Alcotest.failf "bounded load refused: %s" msg
  in
  Alcotest.(check int) "truncated to the bound" 2 (Cache.size c2);
  Alcotest.(check int) "truncation counted as evictions" 2
    (Cache.stats c2).Cache.s_evictions;
  Alcotest.(check bool) "fallback dropped first" true
    (Cache.find c2 ~key:"k0" = `Miss);
  Alcotest.(check bool) "oldest authoritative dropped next" true
    (Cache.find c2 ~key:"k1" = `Miss);
  Alcotest.(check bool) "daemon bound adopted" true
    (Cache.max_entries c2 = Some 2);
  (* save → load → save is byte-identical once the bound settled. *)
  with_path @@ fun p2 ->
  with_path @@ fun p3 ->
  Cache.save c2 ~path:p2;
  match Cache.load ~path:p2 ~fingerprint:fp () with
  | Ok c3 ->
    Cache.save c3 ~path:p3;
    Alcotest.(check string) "save→load→save byte-identical" (read_file p2)
      (read_file p3)
  | Error msg -> Alcotest.failf "re-load refused: %s" msg

(* --- warm restart byte-identity (the acceptance gate) ---------------------- *)

let serve_lines =
  [ {|{"id": "a1", "rounds": 4, "seed": 1}|};
    {|{"id": "b2", "rounds": 4, "seed": 2}|};
    {|{"id": "bad3", "acs_max_outer": 0}|};
    {|{"id": "c4", "rounds": 4, "seed": 3}|};
    {|{"id": "dup5", "rounds": 4, "seed": 1}|} ]

let daemon_config ?cache_path ?(jobs = 1) () =
  { Daemon.service = { Service.default_config with Service.jobs; wave = 2 };
    cache_path; snapshot_every = 1; health_every = 0; journal_path = None;
    max_cache_entries = None }

let energy_bits (r : Service.report) =
  List.filter_map
    (fun (o : Service.outcome) ->
      match o.Service.status with
      | Service.Done { mean_energy = Some e; _ } ->
        Some (Int64.bits_of_float e)
      | _ -> None)
    r.Service.outcomes

let test_daemon_warm_restart_identical () =
  with_path @@ fun path ->
  let solved = ref [] in
  let before_solve ~attempt:_ (r : Request.t) =
    solved := r.Request.id :: !solved
  in
  let run ?(jobs = 1) () =
    solved := [];
    Daemon.run
      ~config:(daemon_config ~cache_path:path ~jobs ())
      ~power ~before_solve ~lines:serve_lines ()
  in
  let cold = run () in
  Alcotest.(check bool) "first run is cold" true
    (cold.Daemon.start = Daemon.Cold);
  (* dup5 has a1's content: served from the cache within the same run. *)
  Alcotest.(check bool) "intra-run hit skips the solve" false
    (List.mem "dup5" !solved);
  Alcotest.(check bool) "intra-run hit counted" true
    ((Cache.stats cold.Daemon.cache).Cache.s_hits > 0);
  let cold_solved = !solved in
  let warm = run () in
  (match warm.Daemon.start with
  | Daemon.Warm n -> Alcotest.(check bool) "warm with entries" true (n > 0)
  | _ -> Alcotest.fail "second run did not start warm");
  (* The gate: byte-identical reports, exact energy bits included. *)
  Alcotest.(check bool) "warm report identical to cold" true
    (warm.Daemon.report = cold.Daemon.report);
  Alcotest.(check bool) "mean energies bit-identical" true
    (energy_bits warm.Daemon.report = energy_bits cold.Daemon.report);
  (* Only the degraded request re-solves: its entry has fallback
     provenance, which the cache refuses to serve as authoritative. *)
  Alcotest.(check bool) "acs-solved requests served from cache" true
    (not (List.mem "a1" !solved) && not (List.mem "b2" !solved));
  Alcotest.(check bool) "fallback-provenance request re-solved" true
    (List.mem "bad3" !solved);
  Alcotest.(check bool) "cold run solved the acs requests" true
    (List.mem "a1" cold_solved);
  (* And the whole thing is jobs-independent, cache and shards included. *)
  let warm4 = run ~jobs:4 () in
  Alcotest.(check bool) "warm report identical at jobs=4" true
    (warm4.Daemon.report = cold.Daemon.report)

let test_daemon_refuses_corrupt_snapshot () =
  with_path @@ fun path ->
  let run () =
    Daemon.run
      ~config:(daemon_config ~cache_path:path ())
      ~power ~lines:serve_lines ()
  in
  let cold = run () in
  let contents = read_file path in
  let mangled = Bytes.of_string contents in
  Bytes.set mangled (String.length contents / 2)
    (Char.chr (Char.code (Bytes.get mangled (String.length contents / 2)) lxor 1));
  write_file path (Bytes.to_string mangled);
  let recovered = run () in
  (match recovered.Daemon.start with
  | Daemon.Refused msg ->
    Alcotest.(check bool) "diagnostic names the failed check" true
      (contains ~sub:"check failed" msg)
  | _ -> Alcotest.fail "corrupt snapshot not refused");
  (* A refused snapshot falls back to a cold start — same answers. *)
  Alcotest.(check bool) "cold fallback still serves identically" true
    (recovered.Daemon.report = cold.Daemon.report)

let test_daemon_fingerprint_pins_power_model () =
  with_path @@ fun path ->
  let _ =
    Daemon.run
      ~config:(daemon_config ~cache_path:path ())
      ~power ~lines:serve_lines ()
  in
  let other_power = Model.ideal ~v_min:0.5 ~v_max:3.5 () in
  let r =
    Daemon.run
      ~config:(daemon_config ~cache_path:path ())
      ~power:other_power ~lines:serve_lines ()
  in
  match r.Daemon.start with
  | Daemon.Refused msg ->
    Alcotest.(check bool) "names the fingerprint check" true
      (contains ~sub:"fingerprint check failed" msg)
  | _ -> Alcotest.fail "schedules computed under another power model accepted"

let test_daemon_bounded_cache_same_answers () =
  with_path @@ fun path ->
  let bounded =
    Daemon.run
      ~config:
        { (daemon_config ~cache_path:path ()) with
          Daemon.max_cache_entries = Some 1 }
      ~power ~lines:serve_lines ()
  in
  Alcotest.(check bool) "bound respected" true
    (Cache.size bounded.Daemon.cache <= 1);
  Alcotest.(check bool) "entries were evicted" true
    ((Cache.stats bounded.Daemon.cache).Cache.s_evictions > 0);
  (* Eviction changes what is cached, never what is answered. *)
  let unbounded =
    Daemon.run ~config:(daemon_config ()) ~power ~lines:serve_lines ()
  in
  Alcotest.(check bool) "eviction never changes answers" true
    (bounded.Daemon.report = unbounded.Daemon.report)

(* --- chaos harness --------------------------------------------------------- *)

let test_chaos_profile_parser () =
  (match Chaos.of_string "crash=0.2,slow=0.1,slow-ms=2,drop=0.1,corrupt=1,seed=7" with
  | Error msg -> Alcotest.failf "valid profile rejected: %s" msg
  | Ok p ->
    Alcotest.(check bool) "all fields parsed" true
      (p.Chaos.seed = 7 && p.Chaos.crash_prob = 0.2 && p.Chaos.slow_prob = 0.1
      && p.Chaos.slow_ms = 2 && p.Chaos.drop_prob = 0.1
      && p.Chaos.corrupt_snapshot));
  List.iter
    (fun (spec, expect) ->
      match Chaos.of_string spec with
      | Ok _ -> Alcotest.failf "accepted %S" spec
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S rejected mentioning %S" spec expect)
          true (contains ~sub:expect msg))
    [ ("", "empty");
      ("crash", "key=value");
      ("banana=1", "unknown key");
      ("crash=lots", "not a number");
      ("slow-ms=2.5", "not an integer");
      ("crash=1.5", "crash");
      ("crash=nan", "crash");
      ("drop=-0.1", "drop") ]

let chaos_of spec =
  match Chaos.of_string spec with
  | Ok p -> Chaos.create ~profile:p
  | Error msg -> Alcotest.failf "profile %S rejected: %s" spec msg

let test_chaos_deterministic () =
  (* The chaos-smoke acceptance: a fixed-seed profile injects the same
     faults on every run — reports and trailers diff clean. *)
  let run () =
    Daemon.run
      ~config:(daemon_config ())
      ~power
      ~chaos:(chaos_of "crash=0.4,drop=0.2,seed=11")
      ~lines:serve_lines ()
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "reports identical" true
    (a.Daemon.report = b.Daemon.report);
  (match (a.Daemon.chaos_line, b.Daemon.chaos_line) with
  | Some la, Some lb ->
    Alcotest.(check string) "chaos trailers identical" la lb;
    Alcotest.(check bool) "trailer says corruption skipped" true
      (contains ~sub:{|"snapshot":"skipped"|} la)
  | _ -> Alcotest.fail "chaos trailer missing")

let test_chaos_crash_injection_restarts () =
  (* Injected crashes go through the real supervision loop: workers
     restart and the requests still complete. *)
  let config =
    { (daemon_config ()) with
      Daemon.service =
        { Service.default_config with Service.wave = 2; max_worker_crashes = 8 } }
  in
  let r =
    Daemon.run ~config ~power
      ~chaos:(chaos_of "crash=0.6,seed=3")
      ~lines:serve_lines ()
  in
  let crashes =
    List.fold_left
      (fun acc (o : Service.outcome) -> acc + o.Service.crashes)
      0 r.Daemon.report.Service.outcomes
  in
  Alcotest.(check bool) "some crashes injected" true (crashes > 0);
  Alcotest.(check bool) "crashed workers restarted and served" true
    (List.exists
       (fun (o : Service.outcome) ->
         o.Service.crashes > 0
         && match o.Service.status with Service.Done _ -> true | _ -> false)
       r.Daemon.report.Service.outcomes)

let test_chaos_drop_injection () =
  let r =
    Daemon.run
      ~config:(daemon_config ())
      ~power
      ~chaos:(chaos_of "drop=0.5,seed=5")
      ~lines:serve_lines ()
  in
  let kept = List.length r.Daemon.report.Service.outcomes in
  Alcotest.(check bool) "some requests dropped before admission" true
    (kept < List.length serve_lines);
  match r.Daemon.chaos_line with
  | Some line ->
    Alcotest.(check bool) "trailer counts the drops" true
      (contains
         ~sub:(Printf.sprintf "\"dropped\":%d" (List.length serve_lines - kept))
         line)
  | None -> Alcotest.fail "chaos trailer missing"

let test_chaos_snapshot_corruption_refused_and_restored () =
  with_path @@ fun path ->
  let r =
    Daemon.run
      ~config:(daemon_config ~cache_path:path ())
      ~power
      ~chaos:(chaos_of "corrupt=1,seed=9")
      ~lines:serve_lines ()
  in
  (match r.Daemon.chaos_line with
  | Some line ->
    Alcotest.(check bool) "validating reload refused the corruption" true
      (contains ~sub:{|"snapshot":"corrupted+refused"|} line)
  | None -> Alcotest.fail "chaos trailer missing");
  (* The harness restores the good bytes, so the next start is warm. *)
  match Cache.load ~path ~fingerprint:(Cache.fingerprint r.Daemon.cache) () with
  | Ok c -> Alcotest.(check bool) "snapshot restored" true (Cache.size c > 0)
  | Error msg -> Alcotest.failf "restored snapshot unreadable: %s" msg

let test_serve_refuses_unwritable_snapshot_paths () =
  (* A snapshot save renames its temporary file onto the path, which
     fails on a directory or under a missing parent, and only after the
     run has been served: the daemon refuses such a path up front, for
     the CLI (exit 2) and a library caller (Invalid_argument) alike. *)
  let dir = Filename.temp_dir "lepts-test" ".cache" in
  Fun.protect ~finally:(fun () -> Unix.rmdir dir) @@ fun () ->
  let orphan = Filename.concat (Filename.concat dir "missing") "x.cache" in
  List.iter
    (fun (flag, path, diagnostic) ->
      let code, _, err = Test_golden.lepts_status [ "serve"; flag; path ] in
      Alcotest.(check int) (flag ^ " exits 2") 2 code;
      Alcotest.(check bool) (Printf.sprintf "%s diagnostic %S" flag err) true
        (contains ~sub:diagnostic err))
    [ ("--cache", dir, dir ^ ": not a regular file");
      ("--journal", dir, dir ^ ": not a regular file");
      ("--cache", orphan, orphan ^ ": no directory");
      ("--journal", orphan, orphan ^ ": no directory") ];
  let solved = ref 0 in
  Alcotest.(check bool) "library caller refused before serving" true
    (try
       ignore
         (Daemon.run
            ~config:{ Daemon.default_config with Daemon.cache_path = Some orphan }
            ~before_solve:(fun ~attempt:_ _ -> incr solved)
            ~lines:[ {|{"id": "a"}|} ] ());
       false
     with Invalid_argument _ -> !solved = 0)

let suite =
  [ ("cache key ignores id", `Quick, test_cache_key_ignores_id);
    ("cache provenance rules", `Quick, test_cache_provenance_rules);
    ("cache snapshot round-trip", `Quick, test_cache_snapshot_roundtrip);
    ("cache snapshot refusals", `Quick, test_cache_snapshot_refusals);
    ("cache bound evicts deterministically", `Quick,
     test_cache_bound_evicts_deterministically);
    ("cache load zero entries", `Quick, test_cache_load_zero_entries);
    ("cache load truncates larger snapshot", `Quick,
     test_cache_load_truncates_larger_snapshot);
    ("daemon bounded cache same answers", `Quick,
     test_daemon_bounded_cache_same_answers);
    ("daemon warm restart identical", `Quick,
     test_daemon_warm_restart_identical);
    ("daemon refuses corrupt snapshot", `Quick,
     test_daemon_refuses_corrupt_snapshot);
    ("daemon fingerprint pins power model", `Quick,
     test_daemon_fingerprint_pins_power_model);
    ("serve refuses unwritable snapshot paths", `Quick,
     test_serve_refuses_unwritable_snapshot_paths);
    ("chaos profile parser", `Quick, test_chaos_profile_parser);
    ("chaos deterministic", `Quick, test_chaos_deterministic);
    ("chaos crash injection restarts", `Quick,
     test_chaos_crash_injection_restarts);
    ("chaos drop injection", `Quick, test_chaos_drop_injection);
    ("chaos snapshot corruption refused", `Quick,
     test_chaos_snapshot_corruption_refused_and_restored) ]
