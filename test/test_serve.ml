module Model = Lepts_power.Model
module Breaker = Lepts_serve.Breaker
module Request = Lepts_serve.Request
module Service = Lepts_serve.Service
module Transport = Lepts_serve.Transport
module Shard = Lepts_serve.Shard
module Drain = Lepts_serve.Drain

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- circuit breaker (logical-clock state machine) ------------------------- *)

let small_breaker = { Breaker.failure_threshold = 2; cooldown = 3; probes = 1 }

let test_breaker_pinned_transitions () =
  (* The acceptance sequence: trip on consecutive failures, cool down,
     half-open a probe, close on its success — at exact logical times. *)
  let b = Breaker.create ~config:small_breaker () in
  Alcotest.(check bool) "closed routes to ACS" true (Breaker.plan_route b ~now:0);
  Breaker.observe b ~now:1 ~ok:false;
  Alcotest.(check bool) "one failure stays closed" true
    (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "still routes to ACS" true (Breaker.plan_route b ~now:1);
  Breaker.observe b ~now:2 ~ok:false;
  Alcotest.(check bool) "threshold trips the circuit" true
    (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open routes to fallback" false
    (Breaker.plan_route b ~now:3);
  Alcotest.(check bool) "still cooling down" false (Breaker.plan_route b ~now:4);
  Alcotest.(check bool) "cooldown elapsed: probe granted" true
    (Breaker.plan_route b ~now:5);
  Alcotest.(check bool) "probe budget spent: fallback" false
    (Breaker.plan_route b ~now:5);
  Breaker.observe b ~now:6 ~ok:true;
  Alcotest.(check bool) "successful probe closes" true
    (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed again routes to ACS" true
    (Breaker.plan_route b ~now:7);
  Alcotest.(check bool) "transition log pinned" true
    (Breaker.transitions b
    = [ (2, Breaker.Open); (5, Breaker.Half_open); (6, Breaker.Closed) ])

let test_breaker_failed_probe_reopens () =
  let b = Breaker.create ~config:small_breaker () in
  Breaker.observe b ~now:1 ~ok:false;
  Breaker.observe b ~now:2 ~ok:false;
  Alcotest.(check bool) "half-open after cooldown" true
    (Breaker.plan_route b ~now:5);
  Breaker.observe b ~now:6 ~ok:false;
  Alcotest.(check bool) "failed probe reopens" true
    (Breaker.state b = Breaker.Open);
  (* The new episode cools down from the re-open time, not the first. *)
  Alcotest.(check bool) "cooldown restarts" false (Breaker.plan_route b ~now:8);
  Alcotest.(check bool) "second probe after second cooldown" true
    (Breaker.plan_route b ~now:9);
  Breaker.observe b ~now:10 ~ok:true;
  Alcotest.(check bool) "recovers on the second probe" true
    (Breaker.transitions b
    = [ (2, Breaker.Open); (5, Breaker.Half_open); (6, Breaker.Open);
        (9, Breaker.Half_open); (10, Breaker.Closed) ])

let test_breaker_success_resets_failure_streak () =
  let b = Breaker.create ~config:small_breaker () in
  Breaker.observe b ~now:1 ~ok:false;
  Breaker.observe b ~now:2 ~ok:true;
  Breaker.observe b ~now:3 ~ok:false;
  Alcotest.(check bool) "non-consecutive failures do not trip" true
    (Breaker.state b = Breaker.Closed);
  Breaker.observe b ~now:4 ~ok:false;
  Alcotest.(check bool) "consecutive ones do" true
    (Breaker.state b = Breaker.Open)

let test_breaker_release_returns_probe () =
  (* A slot settled without a verdict goes back to a half-open
     episode's budget, and is a no-op in the other two states. *)
  let b = Breaker.create ~config:small_breaker () in
  Alcotest.(check bool) "closed routes to ACS" true (Breaker.plan_route b ~now:0);
  Breaker.release b;
  Breaker.observe b ~now:1 ~ok:false;
  Breaker.observe b ~now:2 ~ok:false;
  Breaker.release b;
  Alcotest.(check bool) "open ignores a release" false
    (Breaker.plan_route b ~now:3);
  Alcotest.(check bool) "probe granted" true (Breaker.plan_route b ~now:5);
  Alcotest.(check bool) "budget spent" false (Breaker.plan_route b ~now:5);
  Breaker.release b;
  Alcotest.(check bool) "released probe granted again" true
    (Breaker.plan_route b ~now:6);
  Alcotest.(check bool) "and spent again" false (Breaker.plan_route b ~now:6);
  Breaker.observe b ~now:7 ~ok:true;
  Alcotest.(check bool) "releases never transition" true
    (Breaker.transitions b
    = [ (2, Breaker.Open); (5, Breaker.Half_open); (7, Breaker.Closed) ])

let test_breaker_rejects_bad_config () =
  List.iter
    (fun config ->
      Alcotest.(check bool) "non-positive config field rejected" true
        (try ignore (Breaker.create ~config ()); false
         with Invalid_argument _ -> true))
    [ { small_breaker with Breaker.failure_threshold = 0 };
      { small_breaker with Breaker.cooldown = 0 };
      { small_breaker with Breaker.probes = 0 } ]

(* --- request parser -------------------------------------------------------- *)

let test_request_defaults () =
  match Request.of_json {|{"id": "x"}|} with
  | Error msg -> Alcotest.failf "minimal request rejected: %s" msg
  | Ok r ->
    Alcotest.(check string) "id" "x" r.Request.id;
    Alcotest.(check int) "tasks default" 0 r.Request.tasks;
    Alcotest.(check (float 0.)) "ratio default" 0.1 r.Request.ratio;
    Alcotest.(check int) "seed default" 0 r.Request.seed;
    Alcotest.(check int) "rounds default" 0 r.Request.rounds;
    Alcotest.(check bool) "no budget" true (r.Request.budget_ms = None);
    Alcotest.(check bool) "no override" true (r.Request.acs_max_outer = None)

let test_request_roundtrip () =
  let r =
    { Request.id = "rnd-7"; tasks = 3; ratio = 0.5; seed = 7; rounds = 10;
      budget_ms = Some 100; acs_max_outer = Some 5 }
  in
  (match Request.of_json (Request.to_json r) with
  | Error msg -> Alcotest.failf "re-encoding rejected: %s" msg
  | Ok r' -> Alcotest.(check bool) "full request round-trips" true (r = r'));
  let minimal = { r with Request.tasks = 0; ratio = 0.1; seed = 0; rounds = 0;
                  budget_ms = None; acs_max_outer = None } in
  Alcotest.(check string) "defaults omitted on the wire"
    {|{"id":"rnd-7"}|} (Request.to_json minimal)

let test_request_rejections_name_the_field () =
  (* One rejected line per rule; the reason must name what was wrong —
     operators debug shed requests from these strings. *)
  List.iter
    (fun (line, field) ->
      match Request.of_json line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error msg ->
        if not (contains ~sub:field msg) then
          Alcotest.failf "%s: reason %S does not mention %S" line msg field)
    [ ({|{}|}, "id");
      ({|{"id": ""}|}, "id");
      ({|{"id": "x", "tasks": 65}|}, "tasks");
      ({|{"id": "x", "tasks": -1}|}, "tasks");
      ({|{"id": "x", "tasks": 2.5}|}, "tasks");
      ({|{"id": "x", "ratio": 1.5}|}, "ratio");
      ({|{"id": "x", "ratio": -0.1}|}, "ratio");
      ({|{"id": "x", "rounds": -1}|}, "rounds");
      ({|{"id": "x", "budget_ms": 0}|}, "budget_ms");
      ({|{"id": "x", "acs_max_outer": -1}|}, "acs_max_outer");
      ({|{"id": "x", "typo": 1}|}, "typo");
      ({|{"id": "x", "id": "y"}|}, "duplicate");
      ({|{"id": "x"} trailing|}, "trailing");
      ({|not json at all|}, "expected") ]

(* --- service engine -------------------------------------------------------- *)

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let quick_config =
  { Service.default_config with
    Service.wave = 1;
    breaker = { Breaker.failure_threshold = 2; cooldown = 2; probes = 1 } }

let stage_of o =
  match o.Service.status with
  | Service.Done { stage; _ } -> stage
  | _ -> "?"

let test_service_breaker_sequence () =
  (* End-to-end acceptance: injected ACS faults (acs_max_outer = 0)
     trip the breaker, the cooldown routes requests to the fallback,
     and a healthy probe closes it — the whole sequence pinned. *)
  let lines =
    [ {|{"id": "f1", "acs_max_outer": 0}|};
      {|{"id": "f2", "acs_max_outer": 0}|};
      {|{"id": "f3", "acs_max_outer": 0}|};
      {|{"id": "f4", "acs_max_outer": 0}|};
      {|{"id": "ok5"}|};
      {|{"id": "ok6"}|} ]
  in
  let r =
    Service.run_source ~config:quick_config ~power
      ~source:(Transport.of_lines lines) ()
  in
  Alcotest.(check bool) "transition sequence pinned" true
    (match r.Service.shards with
    | [ s ] ->
      s.Shard.transitions
      = [ (2, Breaker.Open); (4, Breaker.Half_open); (5, Breaker.Closed) ]
    | _ -> false);
  Alcotest.(check (list bool)) "routes follow the breaker"
    [ true; true; false; false; true; true ]
    (List.map (fun o -> o.Service.routed_acs) r.Service.outcomes);
  Alcotest.(check (list string)) "fallback requests still solved"
    [ "wcs"; "wcs"; "wcs"; "wcs"; "acs"; "acs" ]
    (List.map stage_of r.Service.outcomes);
  Alcotest.(check (list bool)) "degradation tracked per request"
    [ true; true; true; true; false; false ]
    (List.map (fun (o : Service.outcome) -> o.Service.degraded) r.Service.outcomes);
  Alcotest.(check int) "all processed" 6 r.Service.processed;
  Alcotest.(check bool) "no drain, service healthy" true
    ((not r.Service.drained) && not r.Service.degraded)

let test_service_admission_shed () =
  let config = { quick_config with Service.high_water = 2; wave = 8 } in
  let lines =
    [ "nonsense"; {|{"id": "a"}|}; {|{"id": "b"}|}; {|{"id": "c"}|} ]
  in
  let r = Service.run_source ~config ~power ~source:(Transport.of_lines lines) () in
  Alcotest.(check int) "rejected" 1 r.Service.rejected;
  Alcotest.(check int) "admitted" 2 r.Service.admitted;
  Alcotest.(check int) "shed" 1 r.Service.shed;
  (match r.Service.outcomes with
  | [ bad; a; b; c ] ->
    Alcotest.(check string) "rejected lines get positional ids" "line-1"
      bad.Service.id;
    Alcotest.(check bool) "rejection reason kept" true
      (match bad.Service.status with Service.Rejected _ -> true | _ -> false);
    Alcotest.(check bool) "admitted requests solved" true
      (stage_of a = "acs" && stage_of b = "acs");
    Alcotest.(check bool) "overflow shed, not failed" true
      (c.Service.status = Service.Shed && c.Service.attempts = 0)
  | _ -> Alcotest.fail "expected one outcome per input line")

(* The report [print_report] writes, one string per line. *)
let report_lines r =
  let path = Filename.temp_file "lepts-test" ".report" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Service.print_report ~oc r);
      In_channel.with_open_bin path In_channel.input_lines)

let test_control_bytes_rejected_report_stays_json () =
  (* JSON forbids raw bytes below 0x20 inside a string. A request
     carrying one is rejected with a named reason, a reason quoting one
     is escaped, and the escapes the parser reads ("\t" here) still
     round-trip — so every report line stays valid JSON. *)
  let lines = [ "{\"id\": \"a\001b\"}"; "{\001}"; {|{"id": "tab\tbed"}|} ] in
  let r =
    Service.run_source ~config:quick_config ~power
      ~source:(Transport.of_lines lines) ()
  in
  (match r.Service.outcomes with
  | [ raw; debris; escaped ] ->
    (match raw.Service.status with
    | Service.Rejected msg ->
      Alcotest.(check bool) "reason names the control byte" true
        (contains ~sub:"control byte 0x01" msg)
    | _ -> Alcotest.fail "raw control byte in a string accepted");
    Alcotest.(check bool) "control byte outside a string rejected" true
      (match debris.Service.status with Service.Rejected _ -> true | _ -> false);
    Alcotest.(check string) "escaped tab accepted" "tab\tbed" escaped.Service.id
  | _ -> Alcotest.fail "expected three outcomes");
  List.iter
    (fun line ->
      String.iter
        (fun c ->
          if Char.code c < 0x20 then
            Alcotest.failf "report line holds raw byte 0x%02x: %S" (Char.code c)
              line)
        line)
    (report_lines r)

let test_non_utf8_rejected_report_stays_json () =
  (* JSON text is UTF-8. A string holding a malformed sequence is
     rejected at its position, a diagnostic shows a stray byte as 0xNN,
     and a well-formed multi-byte id is served and echoed unchanged —
     so every report line decodes as UTF-8 and parses as JSON. *)
  let lines = [ "{\"id\": \"a\255b\"}"; "{\255}"; {|{"id": "é"}|} ] in
  let r =
    Service.run_source ~config:quick_config ~power
      ~source:(Transport.of_lines lines) ()
  in
  let reason o =
    match o.Service.status with Service.Rejected msg -> msg | _ -> "(not rejected)"
  in
  (match r.Service.outcomes with
  | [ bad_id; debris; accented ] ->
    Alcotest.(check string) "malformed sequence named with its position"
      "malformed UTF-8 in string at position 9" (reason bad_id);
    Alcotest.(check bool) "stray byte shown as 0xff" true
      (contains ~sub:"found 0xff" (reason debris));
    Alcotest.(check string) "UTF-8 id echoed unchanged" "é" accented.Service.id;
    Alcotest.(check string) "and served" "acs" (stage_of accented)
  | _ -> Alcotest.fail "expected three outcomes");
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" line) true
        (Result.is_error (Request.of_json line)))
    [ "{\"id\": \"\xc0\xaf\"}" (* overlong '/' *);
      "{\"id\": \"\xed\xa0\x80\"}" (* surrogate *);
      "{\"id\": \"\xe2\x82\"}" (* truncated sequence *) ];
  let lines = report_lines r in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "%S is UTF-8" line) true
        (String.is_valid_utf_8 line);
      Alcotest.(check bool) (Printf.sprintf "%S parses" line) true
        (Test_obs.json_valid line))
    lines;
  Alcotest.(check bool) "the id travels as raw UTF-8" true
    (List.exists (contains ~sub:{|{"id":"é","status":"done"|}) lines)

let test_service_jobs_bit_identical () =
  let lines =
    [ {|{"id": "f1", "acs_max_outer": 0}|};
      {|{"id": "f2", "acs_max_outer": 0}|};
      {|{"id": "sim3", "rounds": 5, "seed": 3}|};
      {|{"id": "sim4", "rounds": 5, "seed": 4}|} ]
  in
  let run jobs =
    Service.run_source
      ~config:{ quick_config with Service.jobs; shards = 3; wave = 2 }
      ~power ~source:(Transport.of_lines lines) ()
  in
  let seq = run 1 in
  (* The simulated requests exercise the mean-energy path too. *)
  Alcotest.(check bool) "rounds > 0 reports energy" true
    (List.exists
       (fun o ->
         match o.Service.status with
         | Service.Done { mean_energy = Some _; _ } -> true
         | _ -> false)
       seq.Service.outcomes);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "report identical at jobs=%d" jobs)
        true (seq = run jobs))
    [ 2; 4 ]

let test_service_span_names_bounded () =
  (* Span paths are aggregation keys: a request id in one would grow the
     span table by a path per request. *)
  let module Span = Lepts_obs.Span in
  let lines =
    [ {|{"id": "alpha-req", "rounds": 5, "seed": 3}|};
      {|{"id": "beta-req", "rounds": 5, "seed": 4}|} ]
  in
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.set_enabled true;
      Span.reset ();
      let r =
        Service.run_source ~config:quick_config ~power
          ~source:(Transport.of_lines lines) ()
      in
      Alcotest.(check int) "both processed" 2 r.Service.processed;
      let paths = List.map (fun (a : Span.agg) -> a.Span.path) (Span.report ()) in
      Alcotest.(check bool) "requests spanned" true
        (List.exists (contains ~sub:"serve:request") paths);
      List.iter
        (fun path ->
          Alcotest.(check bool) (path ^ " names no request") false
            (contains ~sub:"alpha-req" path || contains ~sub:"beta-req" path))
        paths)

(* A 64-task request cannot satisfy the random generator's sub-instance
   cap (any short period splits every lower-priority instance, blowing
   far past 1000 sub-instances), so its solve fails in-band, the same
   way on every run. *)
let doomed id seed = Printf.sprintf {|{"id": "%s", "tasks": 64, "seed": %d}|} id seed

let test_service_failed_solve_runs_once () =
  let attempts_seen = ref [] in
  let before_solve ~attempt (req : Request.t) =
    attempts_seen := (req.Request.id, attempt) :: !attempts_seen
  in
  let r =
    Service.run_source ~config:quick_config ~power ~before_solve
      ~source:(Transport.of_lines [ doomed "doomed" 1 ]) ()
  in
  (match r.Service.outcomes with
  | [ o ] ->
    Alcotest.(check bool) "failed" true
      (match o.Service.status with Service.Failed _ -> true | _ -> false);
    Alcotest.(check int) "one attempt" 1 o.Service.attempts;
    Alcotest.(check int) "no crashes involved" 0 o.Service.crashes;
    Alcotest.(check bool) "request degraded" true o.Service.degraded
  | _ -> Alcotest.fail "expected one outcome");
  Alcotest.(check bool) "the hook saw one attempt" true
    (!attempts_seen = [ ("doomed", 1) ]);
  Alcotest.(check bool) "solver failure is not service degradation" false
    r.Service.degraded

let test_service_generation_failure_folds_no_verdict () =
  (* The ACS stage never sees a request whose task set cannot be
     generated, so three of them in a row must not trip the breaker:
     the healthy request after them is still routed to ACS. *)
  let config = { Service.default_config with Service.wave = 1 } in
  let lines = [ doomed "d1" 1; doomed "d2" 2; doomed "d3" 3; {|{"id": "ok"}|} ] in
  let r = Service.run_source ~config ~power ~source:(Transport.of_lines lines) () in
  (match r.Service.shards with
  | [ s ] -> Alcotest.(check bool) "breaker never moved" true (s.Shard.transitions = [])
  | _ -> Alcotest.fail "expected one shard");
  match r.Service.outcomes with
  | [ d1; d2; d3; ok ] ->
    Alcotest.(check bool) "generation failures failed" true
      (List.for_all
         (fun o -> match o.Service.status with Service.Failed _ -> true | _ -> false)
         [ d1; d2; d3 ]);
    Alcotest.(check bool) "healthy request routed to ACS" true ok.Service.routed_acs;
    Alcotest.(check string) "and served by it" "acs" (stage_of ok)
  | _ -> Alcotest.fail "expected four outcomes"

let test_service_generation_failure_returns_probe () =
  (* A half-open probe taken by a request whose task set cannot be
     generated settles no verdict, so it is handed back: the healthy
     request after it probes and closes the breaker, instead of the
     shard staying half-open with no probe left. *)
  let lines =
    [ {|{"id": "f1", "acs_max_outer": 0}|};
      {|{"id": "f2", "acs_max_outer": 0}|};
      {|{"id": "f3", "acs_max_outer": 0}|};
      {|{"id": "f4", "acs_max_outer": 0}|};
      doomed "probe5" 5;
      {|{"id": "ok6"}|} ]
  in
  let r =
    Service.run_source ~config:quick_config ~power
      ~source:(Transport.of_lines lines) ()
  in
  (match r.Service.shards with
  | [ s ] ->
    Alcotest.(check bool) "the next request's probe closes" true
      (s.Shard.transitions
      = [ (2, Breaker.Open); (4, Breaker.Half_open); (6, Breaker.Closed) ])
  | _ -> Alcotest.fail "expected one shard");
  Alcotest.(check (list bool)) "both probes routed to ACS"
    [ true; true; false; false; true; true ]
    (List.map (fun o -> o.Service.routed_acs) r.Service.outcomes);
  Alcotest.(check (list string)) "the healthy probe is served by ACS"
    [ "wcs"; "wcs"; "wcs"; "wcs"; "?"; "acs" ]
    (List.map stage_of r.Service.outcomes)

let test_service_fallback_folds_no_verdict () =
  (* At wave 2 the half-open probe's sibling is planned with no probe
     left and routed around ACS; it folds after the probe has closed
     the breaker. Were its WCS answer folded as an ACS failure, the
     next ACS failure would make two in a row and trip the breaker. *)
  let config = { quick_config with Service.wave = 2 } in
  let lines =
    [ {|{"id": "f1", "acs_max_outer": 0}|};
      {|{"id": "f2", "acs_max_outer": 0}|};
      {|{"id": "r3"}|};
      {|{"id": "r4"}|};
      {|{"id": "p5"}|};
      {|{"id": "x6"}|};
      {|{"id": "f7", "acs_max_outer": 0}|} ]
  in
  let r = Service.run_source ~config ~power ~source:(Transport.of_lines lines) () in
  (match r.Service.shards with
  | [ s ] ->
    Alcotest.(check bool) "one ACS failure after closing does not trip" true
      (s.Shard.transitions
      = [ (2, Breaker.Open); (4, Breaker.Half_open); (5, Breaker.Closed) ])
  | _ -> Alcotest.fail "expected one shard");
  Alcotest.(check (list bool)) "the probe's sibling is routed around ACS"
    [ true; true; false; false; true; false; true ]
    (List.map (fun o -> o.Service.routed_acs) r.Service.outcomes);
  Alcotest.(check (list string)) "stages"
    [ "wcs"; "wcs"; "wcs"; "wcs"; "acs"; "wcs"; "wcs" ]
    (List.map stage_of r.Service.outcomes)

let test_service_worker_restart_recovers () =
  (* Supervision: two induced worker crashes are absorbed by restarts
     and the third attempt completes the request. *)
  let before_solve ~attempt (req : Request.t) =
    if req.Request.id = "crashy" && attempt <= 2 then failwith "induced crash"
  in
  let r =
    Service.run_source ~config:quick_config ~power ~before_solve
      ~source:(Transport.of_lines [ {|{"id": "crashy"}|} ]) ()
  in
  match r.Service.outcomes with
  | [ o ] ->
    Alcotest.(check string) "recovered and solved" "acs" (stage_of o);
    Alcotest.(check int) "two restarts absorbed" 2 o.Service.crashes;
    Alcotest.(check int) "three attempts" 3 o.Service.attempts;
    Alcotest.(check bool) "service not degraded" false r.Service.degraded
  | _ -> Alcotest.fail "expected one outcome"

let test_service_worker_crashout_degrades () =
  let before_solve ~attempt:_ (_ : Request.t) = failwith "always crashes" in
  let config = { quick_config with Service.max_worker_crashes = 1 } in
  let r =
    Service.run_source ~config ~power ~before_solve
      ~source:(Transport.of_lines [ {|{"id": "hopeless"}|} ]) ()
  in
  match r.Service.outcomes with
  | [ o ] ->
    Alcotest.(check bool) "failed as a crash" true
      (match o.Service.status with
      | Service.Failed msg -> contains ~sub:"crash" msg
      | _ -> false);
    Alcotest.(check int) "restart budget spent" 2 o.Service.crashes;
    Alcotest.(check bool) "service marked degraded" true r.Service.degraded
  | _ -> Alcotest.fail "expected one outcome"

let test_service_drain_keeps_tail () =
  let polls = ref 0 in
  let should_stop () = incr polls; !polls >= 2 in
  let config = { quick_config with Service.wave = 2 } in
  let lines =
    [ {|{"id": "a"}|}; {|{"id": "b"}|}; {|{"id": "c"}|}; {|{"id": "d"}|} ]
  in
  let r =
    Service.run_source ~config ~power ~should_stop
      ~source:(Transport.of_lines lines) ()
  in
  Alcotest.(check bool) "drain recorded" true r.Service.drained;
  Alcotest.(check int) "first wave processed" 2 r.Service.processed;
  Alcotest.(check (list bool)) "tail drained, in order"
    [ false; false; true; true ]
    (List.map
       (fun o -> o.Service.status = Service.Drained)
       r.Service.outcomes);
  Alcotest.(check bool) "drained requests were never attempted" true
    (List.for_all
       (fun o ->
         o.Service.status <> Service.Drained || o.Service.attempts = 0)
       r.Service.outcomes)

let test_service_probe_drain_completes_fold () =
  (* A drain arriving while a half-open probe wave is in flight must
     not leave the breaker stuck in Half_open: the wave's fold always
     completes, so the probe outcome is recorded before the tail is
     drained. The flag is set from inside the probe's own solve. *)
  let drain = ref false in
  let before_solve ~attempt:_ (req : Request.t) =
    if req.Request.id = "probe5" then drain := true
  in
  let should_stop () = !drain in
  let lines =
    [ {|{"id": "f1", "acs_max_outer": 0}|};
      {|{"id": "f2", "acs_max_outer": 0}|};
      {|{"id": "f3", "acs_max_outer": 0}|};
      {|{"id": "f4", "acs_max_outer": 0}|};
      {|{"id": "probe5"}|};
      {|{"id": "tail6"}|} ]
  in
  let r =
    Service.run_source ~config:quick_config ~power ~before_solve ~should_stop
      ~source:(Transport.of_lines lines) ()
  in
  Alcotest.(check bool) "drain recorded" true r.Service.drained;
  Alcotest.(check int) "probe wave folded before draining" 5
    r.Service.processed;
  (match r.Service.shards with
  | [ s ] ->
    Alcotest.(check bool) "probe outcome recorded, breaker closed" true
      (s.Shard.transitions
      = [ (2, Breaker.Open); (4, Breaker.Half_open); (5, Breaker.Closed) ])
  | _ -> Alcotest.fail "expected one shard");
  match List.rev r.Service.outcomes with
  | tail :: probe :: _ ->
    Alcotest.(check bool) "probe served" true
      (match probe.Service.status with Service.Done _ -> true | _ -> false);
    Alcotest.(check bool) "tail drained" true
      (tail.Service.status = Service.Drained)
  | _ -> Alcotest.fail "expected six outcomes"

(* Ids that hash to a given shard under [Shard.of_id ~shards:2]. *)
let ids_for_shard ~shards shard n =
  let rec go i acc n =
    if n = 0 then List.rev acc
    else
      let id = Printf.sprintf "req-%d" i in
      if Shard.of_id ~shards id = shard then go (i + 1) (id :: acc) (n - 1)
      else go (i + 1) acc n
  in
  go 0 [] n

let test_shard_assignment () =
  Alcotest.(check int) "assignment is stable"
    (Shard.of_id ~shards:4 "r1") (Shard.of_id ~shards:4 "r1");
  List.iter
    (fun id ->
      Alcotest.(check int) "one shard takes everything" 0
        (Shard.of_id ~shards:1 id))
    [ "a"; "b"; "c"; "" ];
  let hit = Array.make 4 false in
  for i = 0 to 63 do
    hit.(Shard.of_id ~shards:4 (Printf.sprintf "req-%d" i)) <- true
  done;
  Alcotest.(check bool) "64 ids spread over all 4 shards" true
    (Array.for_all Fun.id hit);
  Alcotest.(check bool) "shards < 1 rejected" true
    (try ignore (Shard.of_id ~shards:0 "x"); false
     with Invalid_argument _ -> true)

let test_service_shard_isolation () =
  (* A family of failing requests hashing to one shard trips that
     shard's breaker; the sibling shard keeps serving at ACS. *)
  let bad = ids_for_shard ~shards:2 0 3 in
  let good = ids_for_shard ~shards:2 1 3 in
  let lines =
    List.map
      (fun id -> Printf.sprintf {|{"id": "%s", "acs_max_outer": 0}|} id)
      bad
    @ List.map (fun id -> Printf.sprintf {|{"id": "%s"}|} id) good
  in
  let config = { quick_config with Service.shards = 2; wave = 8 } in
  let r = Service.run_source ~config ~power ~source:(Transport.of_lines lines) () in
  (match r.Service.shards with
  | [ s0; s1 ] ->
    Alcotest.(check bool) "failing shard tripped" true
      (s0.Shard.transitions <> []);
    Alcotest.(check bool) "healthy shard untouched" true
      (s1.Shard.transitions = []);
    Alcotest.(check int) "failing shard processed its three" 3
      s0.Shard.s_processed;
    Alcotest.(check int) "healthy shard processed its three" 3
      s1.Shard.s_processed
  | _ -> Alcotest.fail "expected two shards");
  List.iter
    (fun o ->
      if List.mem o.Service.id good then
        Alcotest.(check string)
          (o.Service.id ^ " served at full quality despite sibling failures")
          "acs" (stage_of o))
    r.Service.outcomes

let test_service_per_shard_shed () =
  (* The high-water mark is per shard: the second request of a full
     shard is shed even though the service as a whole has room. *)
  let s0 = ids_for_shard ~shards:2 0 2 in
  let s1 = ids_for_shard ~shards:2 1 1 in
  let lines =
    List.map (fun id -> Printf.sprintf {|{"id": "%s"}|} id) (s0 @ s1)
  in
  let config =
    { quick_config with Service.shards = 2; high_water = 1; wave = 8 }
  in
  let r = Service.run_source ~config ~power ~source:(Transport.of_lines lines) () in
  Alcotest.(check int) "admitted one per shard" 2 r.Service.admitted;
  Alcotest.(check int) "one shed" 1 r.Service.shed;
  (match r.Service.shards with
  | [ sh0; sh1 ] ->
    Alcotest.(check int) "full shard shed its overflow" 1 sh0.Shard.s_shed;
    Alcotest.(check int) "sibling shard shed nothing" 0 sh1.Shard.s_shed
  | _ -> Alcotest.fail "expected two shards");
  match r.Service.outcomes with
  | [ a; b; c ] ->
    Alcotest.(check bool) "first of the full shard served" true
      (match a.Service.status with Service.Done _ -> true | _ -> false);
    Alcotest.(check bool) "overflow shed" true
      (b.Service.status = Service.Shed);
    Alcotest.(check bool) "other shard's request served" true
      (match c.Service.status with Service.Done _ -> true | _ -> false)
  | _ -> Alcotest.fail "expected three outcomes"

let test_drain_flag () =
  Drain.reset ();
  Alcotest.(check bool) "starts clear" false (Drain.requested ());
  Drain.request ();
  Alcotest.(check bool) "sticky once requested" true (Drain.requested ());
  Drain.reset ();
  Alcotest.(check bool) "reset clears" false (Drain.requested ())

let suite =
  [ ("breaker pinned transitions", `Quick, test_breaker_pinned_transitions);
    ("breaker failed probe reopens", `Quick, test_breaker_failed_probe_reopens);
    ("breaker success resets streak", `Quick,
     test_breaker_success_resets_failure_streak);
    ("breaker config validated", `Quick, test_breaker_rejects_bad_config);
    ("breaker release returns probe", `Quick,
     test_breaker_release_returns_probe);
    ("request defaults", `Quick, test_request_defaults);
    ("request round-trip", `Quick, test_request_roundtrip);
    ("request rejections name the field", `Quick,
     test_request_rejections_name_the_field);
    ("service breaker sequence", `Quick, test_service_breaker_sequence);
    ("service admission shed", `Quick, test_service_admission_shed);
    ("control bytes rejected, report stays JSON", `Quick,
     test_control_bytes_rejected_report_stays_json);
    ("non-UTF-8 rejected, report stays JSON", `Quick,
     test_non_utf8_rejected_report_stays_json);
    ("service jobs bit-identical", `Quick, test_service_jobs_bit_identical);
    ("service span names bounded", `Quick, test_service_span_names_bounded);
    ("service failed solve runs once", `Quick,
     test_service_failed_solve_runs_once);
    ("service generation failure folds no verdict", `Quick,
     test_service_generation_failure_folds_no_verdict);
    ("service generation failure returns probe", `Quick,
     test_service_generation_failure_returns_probe);
    ("service fallback folds no verdict", `Quick,
     test_service_fallback_folds_no_verdict);
    ("service worker restart recovers", `Quick,
     test_service_worker_restart_recovers);
    ("service worker crash-out degrades", `Quick,
     test_service_worker_crashout_degrades);
    ("service drain keeps tail", `Quick, test_service_drain_keeps_tail);
    ("service probe drain completes fold", `Quick,
     test_service_probe_drain_completes_fold);
    ("shard assignment", `Quick, test_shard_assignment);
    ("service shard isolation", `Quick, test_service_shard_isolation);
    ("service per-shard shed", `Quick, test_service_per_shard_shed);
    ("drain flag", `Quick, test_drain_flag) ]
