module Model = Lepts_power.Model
module Request = Lepts_serve.Request
module Service = Lepts_serve.Service
module Shard = Lepts_serve.Shard
module Chaos = Lepts_serve.Chaos
module Transport = Lepts_serve.Transport

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

let with_path f =
  let path = Filename.temp_file "lepts-test" ".transport" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let with_dir f =
  let dir = Filename.temp_file "lepts-test" ".spool" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let chaos_of spec =
  match Chaos.of_string spec with
  | Ok p -> Chaos.create ~profile:p
  | Error msg -> Alcotest.failf "profile %S rejected: %s" spec msg

let render_report r =
  let path = Filename.temp_file "lepts-test" ".report" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Service.print_report ~oc r;
      close_out oc;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s)

(* --- the arrival journal --------------------------------------------------- *)

let sample_batches =
  [ { Transport.b_now_ms = 0;
      b_arrivals =
        [ { Transport.a_seq = 1; a_at_ms = 0;
            a_payload = Ok {|{"id": "spaced out", "seed": 3}|} };
          { Transport.a_seq = 2; a_at_ms = 7;
            a_payload = Error "oversized line: 99 bytes exceeds limit 64" } ];
      b_closed = false; b_drain = false };
    { Transport.b_now_ms = 250;
      b_arrivals =
        [ { Transport.a_seq = 3; a_at_ms = 250; a_payload = Ok {|{"id":"b"}|} } ];
      b_closed = true; b_drain = false } ]

let drain_replay source =
  let rec go acc =
    let b = Transport.poll source ~pending:false in
    if b.Transport.b_closed && b.Transport.b_arrivals = [] then List.rev acc
    else go (b :: acc)
  in
  go []

let test_journal_roundtrip () =
  with_path @@ fun path ->
  let j = Transport.Journal.create () in
  List.iter (Transport.Journal.record j) sample_batches;
  Alcotest.(check int) "batches counted" 2 (Transport.Journal.batches j);
  Transport.Journal.save j ~path;
  let source =
    match Transport.replay ~path with
    | Ok s -> s
    | Error msg -> Alcotest.failf "own journal refused: %s" msg
  in
  let got = drain_replay source in
  (* The closing batch is consumed by the drain loop's own termination
     test, so compare against everything it returned plus the tail. *)
  Alcotest.(check bool) "arrivals, stamps and diagnostics round-trip" true
    (got = sample_batches
    || got @ [ { Transport.b_now_ms = 250; b_arrivals = []; b_closed = true;
                 b_drain = false } ]
       = sample_batches)

let test_journal_refuses_foreign_file () =
  with_path @@ fun path ->
  let oc = open_out path in
  output_string oc "not a journal\n";
  close_out oc;
  (match Transport.replay ~path with
  | Ok _ -> Alcotest.fail "accepted a non-journal file"
  | Error msg ->
    Alcotest.(check bool) "names a failed check" true
      (contains ~sub:"check failed" msg));
  let missing = path ^ ".missing" in
  match Transport.replay ~path:missing with
  | Ok _ -> Alcotest.fail "accepted a missing file"
  | Error msg ->
    Alcotest.(check bool) "names the missing file" true (contains ~sub:missing msg)

(* --- deadline-aware admission ---------------------------------------------- *)

(* The acceptance pin: a request whose budget lapses while queued is
   shed with status [expired] and is never dispatched — its id never
   reaches a worker. Replayed from a journal, so the timing is exact
   and the test is deterministic. *)
let test_replay_expires_queued_deadline () =
  with_path @@ fun path ->
  let j = Transport.Journal.create () in
  List.iter (Transport.Journal.record j)
    [ { Transport.b_now_ms = 0;
        b_arrivals =
          [ { Transport.a_seq = 1; a_at_ms = 0;
              a_payload = Ok {|{"id":"keep"}|} };
            { Transport.a_seq = 2; a_at_ms = 0;
              a_payload = Ok {|{"id":"late","budget_ms":100}|} } ];
        b_closed = false; b_drain = false };
      { Transport.b_now_ms = 500; b_arrivals = []; b_closed = true;
        b_drain = false } ];
  Transport.Journal.save j ~path;
  let run () =
    let solved = ref [] in
    let source =
      match Transport.replay ~path with
      | Ok s -> s
      | Error msg -> Alcotest.failf "journal refused: %s" msg
    in
    let r =
      Service.run_source
        ~config:{ Service.default_config with Service.wave = 1 }
        ~power
        ~before_solve:(fun ~attempt:_ (req : Request.t) ->
          solved := req.Request.id :: !solved)
        ~source ()
    in
    (r, !solved)
  in
  let r, solved = run () in
  Alcotest.(check int) "one expired" 1 r.Service.expired;
  Alcotest.(check int) "one processed" 1 r.Service.processed;
  Alcotest.(check bool) "expired request never dispatched" false
    (List.mem "late" solved);
  Alcotest.(check bool) "the other request solved" true
    (List.mem "keep" solved);
  (match r.Service.outcomes with
  | [ keep; late ] ->
    Alcotest.(check bool) "keep done" true
      (match keep.Service.status with Service.Done _ -> true | _ -> false);
    Alcotest.(check bool) "late expired" true
      (late.Service.status = Service.Expired);
    Alcotest.(check int) "expired made no attempts" 0 late.Service.attempts
  | _ -> Alcotest.fail "expected exactly two outcomes");
  (match r.Service.shards with
  | [ s ] ->
    Alcotest.(check int) "shard counts the expiry" 1 s.Shard.s_expired;
    Alcotest.(check int) "shard still processed the rest" 1
      s.Shard.s_processed
  | _ -> Alcotest.fail "expected one shard");
  Alcotest.(check bool) "summary reports the expiry" true
    (contains ~sub:{|"expired":1|} (render_report r));
  (* Equal replays produce byte-identical reports. *)
  let r2, _ = run () in
  Alcotest.(check string) "replay byte-stable" (render_report r)
    (render_report r2)

(* --- socket ingress -------------------------------------------------------- *)

let socket_client ~path lines ~partial =
  (* Connect with a short retry in case the listener's accept loop has
     not run yet, stream the lines, leave [partial] unterminated. *)
  let rec connect tries =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  let fd = connect 100 in
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  (try
     List.iter (fun l -> send (l ^ "\n")) lines;
     Option.iter send partial
   with Unix.Unix_error _ -> ());
  Unix.close fd

let test_socket_end_to_end_with_replay () =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "lepts.sock" in
  let journal_path = Filename.concat dir "arrivals.journal" in
  let source =
    match
      Transport.socket ~read_timeout_ms:5000 ~max_line_bytes:64
        ~idle_exit_ms:300 ~path:sock ()
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "socket refused: %s" msg
  in
  let client =
    Domain.spawn (fun () ->
        socket_client ~path:sock
          [ {|{"id":"s1"}|}; String.make 80 'x' ]
          ~partial:(Some {|{"id":"part|}))
  in
  let journal = Transport.Journal.create () in
  let live = Service.run_source ~power ~journal ~source () in
  Domain.join client;
  Transport.close source;
  Alcotest.(check bool) "socket file removed on close" false
    (Sys.file_exists sock);
  Transport.Journal.save journal ~path:journal_path;
  let statuses =
    List.map (fun (o : Service.outcome) -> o.Service.status)
      live.Service.outcomes
  in
  (match statuses with
  | [ Service.Done _; Service.Rejected over; Service.Rejected part ] ->
    Alcotest.(check bool) "oversized line diagnosed" true
      (contains ~sub:"oversized line: 80 bytes exceeds limit 64" over);
    Alcotest.(check bool) "partial line diagnosed" true
      (contains ~sub:"connection closed mid-line after" part)
  | _ -> Alcotest.failf "unexpected outcomes:\n%s" (render_report live));
  (* The journal replays the live run byte-identically — the whole
     point of recording arrivals. *)
  let replayed =
    match Transport.replay ~path:journal_path with
    | Ok source -> Service.run_source ~power ~source ()
    | Error msg -> Alcotest.failf "journal refused: %s" msg
  in
  Alcotest.(check string) "replay report byte-identical to live"
    (render_report live) (render_report replayed);
  let replayed4 =
    match Transport.replay ~path:journal_path with
    | Ok source ->
      Service.run_source
        ~config:{ Service.default_config with Service.jobs = 4 }
        ~power ~source ()
    | Error msg -> Alcotest.failf "journal refused: %s" msg
  in
  Alcotest.(check string) "replay byte-identical at jobs=4"
    (render_report live) (render_report replayed4)

let test_socket_chaos_cut () =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "cut.sock" in
  let source =
    match
      Transport.socket ~idle_exit_ms:300 ~chaos:(chaos_of "cut=1,seed=1")
        ~path:sock ()
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "socket refused: %s" msg
  in
  let client =
    Domain.spawn (fun () ->
        socket_client ~path:sock [ {|{"id":"doomed"}|} ] ~partial:None)
  in
  let r = Service.run_source ~power ~source () in
  Domain.join client;
  Transport.close source;
  match r.Service.outcomes with
  | [ { Service.status = Service.Rejected msg; _ } ] ->
    Alcotest.(check bool) "cut reported as a mid-line close" true
      (contains ~sub:"connection closed mid-line" msg)
  | _ -> Alcotest.fail "chaos cut did not reject the line"

(* --- spool ingress --------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_spool_consumes_files () =
  with_dir @@ fun dir ->
  write_file (Filename.concat dir "b-second.ndjson") {|{"id":"two"}|};
  write_file
    (Filename.concat dir "a-first.ndjson")
    "{\"id\":\"one\"}\nnot json\n";
  write_file (Filename.concat dir "ignored.tmp") {|{"id":"never"}|};
  let source =
    match Transport.spool ~idle_exit_ms:300 ~dir () with
    | Ok s -> s
    | Error msg -> Alcotest.failf "spool refused: %s" msg
  in
  let r = Service.run_source ~power ~source () in
  Transport.close source;
  let ids = List.map (fun (o : Service.outcome) -> o.Service.id) r.Service.outcomes in
  Alcotest.(check (list string)) "files consumed in name order, bad line rejected"
    [ "one"; "line-2"; "two" ] ids;
  Alcotest.(check bool) "consumed files deleted" false
    (Sys.file_exists (Filename.concat dir "a-first.ndjson"));
  Alcotest.(check bool) "in-progress files left alone" true
    (Sys.file_exists (Filename.concat dir "ignored.tmp"))

let test_spool_chaos_flip_deterministic () =
  let run () =
    with_dir @@ fun dir ->
    write_file (Filename.concat dir "batch.ndjson")
      "{\"id\":\"f1\"}\n{\"id\":\"f2\"}\n";
    let source =
      match
        Transport.spool ~idle_exit_ms:300 ~chaos:(chaos_of "flip=1,seed=4")
          ~dir ()
      with
      | Ok s -> s
      | Error msg -> Alcotest.failf "spool refused: %s" msg
    in
    let r = Service.run_source ~power ~source () in
    Transport.close source;
    r
  in
  (* The flip is keyed by (seed, file name), so equal runs corrupt the
     same bit and the reports diff clean — chaos never costs replay. *)
  Alcotest.(check string) "flip injection deterministic"
    (render_report (run ()))
    (render_report (run ()))

(* --- coalescing and warm chains -------------------------------------------- *)

let test_coalescing_single_solve_fans_out () =
  let solves = Atomic.make 0 in
  let r =
    Service.run_source ~power
      ~before_solve:(fun ~attempt:_ _ -> Atomic.incr solves)
      ~source:
        (Transport.of_lines
           [ {|{"id":"cx1","seed":5,"rounds":3}|};
             {|{"id":"cx2","seed":5,"rounds":3}|} ])
      ()
  in
  Alcotest.(check int) "one solve for two identical requests" 1
    (Atomic.get solves);
  Alcotest.(check int) "follower counted as coalesced" 1 r.Service.coalesced;
  Alcotest.(check int) "both processed" 2 r.Service.processed;
  match r.Service.outcomes with
  | [ a; b ] ->
    Alcotest.(check bool) "leader solved" true
      (match a.Service.status with Service.Done _ -> true | _ -> false);
    Alcotest.(check bool) "identical responses (exact energy bits)" true
      (a.Service.status = b.Service.status)
  | _ -> Alcotest.fail "expected two outcomes"

let test_warm_chain_bit_identical () =
  let lines =
    [ {|{"id":"w1","tasks":3,"seed":7,"ratio":0.2,"rounds":3}|};
      {|{"id":"w2","tasks":3,"seed":7,"ratio":0.8,"rounds":3}|} ]
  in
  let run jobs =
    Service.run_source ~config:{ Service.default_config with Service.jobs } ~power
      ~source:(Transport.of_lines lines) ()
  in
  let r1 = run 1 in
  Alcotest.(check int) "chained requests are not coalesced" 0
    r1.Service.coalesced;
  Alcotest.(check bool) "both family members solved" true
    (List.for_all
       (fun (o : Service.outcome) ->
         match o.Service.status with Service.Done _ -> true | _ -> false)
       r1.Service.outcomes);
  Alcotest.(check string) "warm chain bit-identical across jobs"
    (render_report r1)
    (render_report (run 4));
  Alcotest.(check string) "warm chain bit-identical across runs"
    (render_report r1)
    (render_report (run 1))

let suite =
  [ ("journal round-trip", `Quick, test_journal_roundtrip);
    ("journal refuses foreign file", `Quick, test_journal_refuses_foreign_file);
    ("replay expires queued deadline", `Quick,
     test_replay_expires_queued_deadline);
    ("socket end-to-end with replay", `Quick,
     test_socket_end_to_end_with_replay);
    ("socket chaos cut", `Quick, test_socket_chaos_cut);
    ("spool consumes files", `Quick, test_spool_consumes_files);
    ("spool chaos flip deterministic", `Quick,
     test_spool_chaos_flip_deterministic);
    ("coalescing single solve fans out", `Quick,
     test_coalescing_single_solve_fans_out);
    ("warm chain bit-identical", `Quick, test_warm_chain_bit_identical) ]
