module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set
module Plan = Lepts_preempt.Plan
module Model = Lepts_power.Model
module Policy = Lepts_dvs.Policy
module Rng = Lepts_prng.Xoshiro256
module Checkpoint = Lepts_robust.Checkpoint
module Campaign = Lepts_robust.Campaign
module Fault_injector = Lepts_robust.Fault_injector

let power = Model.ideal ~v_min:0.5 ~v_max:4. ()

(* A path in the temp directory that does not exist yet (a fresh
   session must see no file), cleaned up afterwards. *)
let with_path f =
  let path = Filename.temp_file "lepts-test" ".ckpt" in
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

let encode_int x = [ string_of_int x ]

let decode_int = function
  | [ s ] -> int_of_string s
  | _ -> failwith "bad int entry"

let session_ok = function
  | Ok s -> s
  | Error msg -> Alcotest.failf "session refused: %s" msg

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- fingerprints and field codecs ---------------------------------------- *)

let test_fingerprint_canonical () =
  let a = Checkpoint.fingerprint ~parts:[ "faults"; "seed=5" ] in
  let b = Checkpoint.fingerprint ~parts:[ "faults"; "seed=5" ] in
  let c = Checkpoint.fingerprint ~parts:[ "seed=5"; "faults" ] in
  Alcotest.(check string) "deterministic" a b;
  Alcotest.(check bool) "order matters" true (a <> c);
  Alcotest.(check int) "hex64" 16 (String.length a);
  let h = Checkpoint.hash_floats [| 1.; 2.; 0.1 |] in
  Alcotest.(check string) "float hash deterministic" h
    (Checkpoint.hash_floats [| 1.; 2.; 0.1 |]);
  Alcotest.(check bool) "float hash sees content" true
    (h <> Checkpoint.hash_floats [| 1.; 2.; 0.2 |])

let test_float_field_exact () =
  (* The codec must round-trip the IEEE-754 bits exactly — resumed
     energies may not drift by even one ulp. *)
  List.iter
    (fun x ->
      let y = Checkpoint.float_of_field (Checkpoint.float_field x) in
      Alcotest.(check bool)
        (Printf.sprintf "%h round-trips" x)
        true
        (Int64.bits_of_float x = Int64.bits_of_float y))
    [ 0.; -0.; 1. /. 3.; 4. *. atan 1.; 1e-310; max_float; min_float;
      infinity; neg_infinity; Float.nan ];
  Alcotest.(check bool) "malformed field raises" true
    (try ignore (Checkpoint.float_of_field "not-hex"); false
     with Failure _ -> true)

(* --- save / load ----------------------------------------------------------- *)

let test_save_load_roundtrip () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "roundtrip" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  let computed = ref 0 in
  let a =
    Checkpoint.map_indices ~session ~section:"sq" ~encode:encode_int
      ~decode:decode_int ~jobs:1 ~n:20
      ~f:(fun i -> incr computed; i * i)
      ()
  in
  Alcotest.(check int) "all units computed once" 20 !computed;
  let session2 = session_ok (Checkpoint.start ~path ~resume:true ~fingerprint:fp) in
  Alcotest.(check int) "entries persisted" 20
    (Checkpoint.entries session2 ~section:"sq");
  let b =
    Checkpoint.map_indices ~session:session2 ~section:"sq" ~encode:encode_int
      ~decode:decode_int ~jobs:1 ~n:20
      ~f:(fun _ -> Alcotest.fail "cached entry recomputed")
      ()
  in
  Alcotest.(check bool) "resumed array bit-identical" true (a = b)

let test_resume_computes_only_missing () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "partial" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  let _ =
    Checkpoint.map_indices ~session ~chunk:4 ~section:"sq" ~encode:encode_int
      ~decode:decode_int ~jobs:1 ~n:8 ~f:(fun i -> i * i) ()
  in
  (* A longer run over the same section: only indices 8..19 are new. *)
  let session2 = session_ok (Checkpoint.start ~path ~resume:true ~fingerprint:fp) in
  let calls = ref [] in
  let out =
    Checkpoint.map_indices ~session:session2 ~section:"sq" ~encode:encode_int
      ~decode:decode_int ~jobs:1 ~n:20
      ~f:(fun i -> calls := i :: !calls; i * i)
      ()
  in
  Alcotest.(check int) "only the missing tail computed" 12 (List.length !calls);
  List.iter
    (fun i ->
      Alcotest.(check bool) "no cached index recomputed" true (i >= 8))
    !calls;
  Array.iteri
    (fun i v -> Alcotest.(check int) "values in index order" (i * i) v)
    out

let test_sections_are_independent () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "sections" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  let run section f =
    Checkpoint.map_indices ~session ~section ~encode:encode_int
      ~decode:decode_int ~jobs:1 ~n:5 ~f ()
  in
  let a = run "double" (fun i -> 2 * i) in
  let b = run "triple" (fun i -> 3 * i) in
  Alcotest.(check int) "section a isolated" 5
    (Checkpoint.entries session ~section:"double");
  Alcotest.(check int) "section b isolated" 5
    (Checkpoint.entries session ~section:"triple");
  Alcotest.(check bool) "distinct results" true (a.(4) = 8 && b.(4) = 12)

(* --- refusal paths --------------------------------------------------------- *)

let test_corrupt_file_refused () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "corrupt" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  let _ =
    Checkpoint.map_indices ~session ~section:"sq" ~encode:encode_int
      ~decode:decode_int ~jobs:1 ~n:4 ~f:(fun i -> i) ()
  in
  let contents = read_file path in
  (* Flip one payload byte: the checksum must catch it. *)
  let mangled = Bytes.of_string contents in
  let target = String.index contents 'q' in
  Bytes.set mangled target 'Q';
  write_file path (Bytes.to_string mangled);
  (match Checkpoint.start ~path ~resume:true ~fingerprint:fp with
  | Ok _ -> Alcotest.fail "loaded a corrupt checkpoint"
  | Error msg ->
    Alcotest.(check bool) "names the checksum" true
      (contains ~sub:"checksum" msg));
  (* Truncation (a torn write) is caught the same way. *)
  write_file path (String.sub contents 0 (String.length contents - 10));
  match Checkpoint.start ~path ~resume:true ~fingerprint:fp with
  | Ok _ -> Alcotest.fail "loaded a truncated checkpoint"
  | Error _ -> ()

let test_version_mismatch_refused () =
  with_path @@ fun path ->
  write_file path "lepts-checkpoint/99\nfingerprint 0\nchecksum 0\n";
  match Checkpoint.start ~path ~resume:true ~fingerprint:"00" with
  | Ok _ -> Alcotest.fail "loaded an unsupported version"
  | Error msg ->
    Alcotest.(check bool) "names the version" true (contains ~sub:"version" msg)

let test_snapshot_check_diagnostics () =
  (* Every refusal names the check that tripped — magic, version,
     checksum or fingerprint — so an operator can tell a wrong artifact
     from a torn write from a foreign run. *)
  with_path @@ fun path ->
  let refuse ~check contents =
    write_file path contents;
    match Checkpoint.Snapshot.read ~path ~magic:"lepts-demo" ~version:1 with
    | Ok _ -> Alcotest.failf "accepted a snapshot failing the %s check" check
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "names the %s check in %S" check msg)
        true
        (contains ~sub:(check ^ " check failed") msg && contains ~sub:path msg)
  in
  let good =
    Checkpoint.Snapshot.render ~magic:"lepts-demo" ~version:1
      ~fingerprint:"aa" ~body:[ "entry x" ]
  in
  (* Magic: a different family's snapshot, a headerless file, an empty
     file. *)
  refuse ~check:"magic"
    (Checkpoint.Snapshot.render ~magic:"lepts-other" ~version:1
       ~fingerprint:"aa" ~body:[]);
  refuse ~check:"magic" "not a snapshot at all\n";
  refuse ~check:"magic" "";
  (* Version: same family, future format. *)
  refuse ~check:"version"
    (Checkpoint.Snapshot.render ~magic:"lepts-demo" ~version:99
       ~fingerprint:"aa" ~body:[]);
  (* Checksum: one flipped payload byte, and a truncated tail. *)
  let flipped = Bytes.of_string good in
  Bytes.set flipped (String.index good 'x') 'y';
  refuse ~check:"checksum" (Bytes.to_string flipped);
  refuse ~check:"checksum" (String.sub good 0 (String.length good - 5));
  (* Fingerprint: a checksum-valid file missing its fingerprint line.
     [fingerprint ~parts] joins with '\n', so these parts reproduce the
     framing checksum of the bare-header payload. *)
  refuse ~check:"fingerprint"
    ("lepts-demo/1\nchecksum "
    ^ Checkpoint.fingerprint ~parts:[ "lepts-demo/1"; "" ]
    ^ "\n");
  (* Round-trip sanity: the untouched snapshot parses back. *)
  write_file path good;
  match Checkpoint.Snapshot.read ~path ~magic:"lepts-demo" ~version:1 with
  | Ok (fp, body) ->
    Alcotest.(check string) "fingerprint round-trips" "aa" fp;
    Alcotest.(check (list string)) "body round-trips" [ "entry x" ] body
  | Error msg -> Alcotest.failf "refused a valid snapshot: %s" msg

let test_fingerprint_mismatch_refused () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "run-a" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  Checkpoint.save session;
  let other = Checkpoint.fingerprint ~parts:[ "run-b" ] in
  (* Both modes must refuse: splicing rounds from a different run's
     parameters would corrupt the result stream silently. *)
  List.iter
    (fun resume ->
      match Checkpoint.start ~path ~resume ~fingerprint:other with
      | Ok _ -> Alcotest.fail "accepted a foreign checkpoint"
      | Error msg ->
        Alcotest.(check bool) "names both fingerprints" true
          (contains ~sub:fp msg && contains ~sub:other msg))
    [ true; false ]

let test_resume_requires_file () =
  with_path @@ fun path ->
  match Checkpoint.start ~path ~resume:true ~fingerprint:"00" with
  | Ok _ -> Alcotest.fail "resumed from nothing"
  | Error msg ->
    Alcotest.(check bool) "says there is nothing to resume" true
      (contains ~sub:"no checkpoint" msg)

(* --- graceful drain -------------------------------------------------------- *)

let test_drain_saves_and_raises () =
  with_path @@ fun path ->
  let fp = Checkpoint.fingerprint ~parts:[ "drain" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  let polls = ref 0 in
  let should_stop () = incr polls; !polls >= 2 in
  (* Poll sequence: once before the first chunk (false), once after it
     (true) -> exactly one chunk lands on disk, then Drained. *)
  (try
     ignore
       (Checkpoint.map_indices ~session ~chunk:4 ~should_stop ~section:"sq"
          ~encode:encode_int ~decode:decode_int ~jobs:1 ~n:10 ~f:(fun i -> i) ());
     Alcotest.fail "expected Drained"
   with Checkpoint.Drained -> ());
  let session2 = session_ok (Checkpoint.start ~path ~resume:true ~fingerprint:fp) in
  Alcotest.(check int) "one chunk persisted" 4
    (Checkpoint.entries session2 ~section:"sq");
  let out =
    Checkpoint.map_indices ~session:session2 ~section:"sq" ~encode:encode_int
      ~decode:decode_int ~jobs:1 ~n:10 ~f:(fun i -> i) ()
  in
  Alcotest.(check bool) "resume completes the map" true
    (out = Array.init 10 Fun.id);
  (* A drain request with nothing left to compute is a no-op: the run
     finishes instead of raising. *)
  let done_ =
    Checkpoint.map_indices ~session:session2 ~should_stop:(fun () -> true)
      ~section:"sq" ~encode:encode_int ~decode:decode_int ~jobs:1 ~n:10
      ~f:(fun _ -> Alcotest.fail "nothing should run")
      ()
  in
  Alcotest.(check bool) "fully-cached map ignores drain" true
    (done_ = Array.init 10 Fun.id)

(* --- campaign kill/resume bit-identity ------------------------------------- *)

let acs_schedule () =
  let ts =
    Task_set.scale_wcec_to_utilization
      (Task_set.create
         [ Task.with_ratio ~name:"a" ~period:4 ~wcec:4. ~ratio:0.1;
           Task.with_ratio ~name:"b" ~period:6 ~wcec:5. ~ratio:0.1;
           Task.with_ratio ~name:"c" ~period:12 ~wcec:8. ~ratio:0.1 ])
      ~power ~target:0.7
  in
  let plan = Plan.expand ts in
  fst (Result.get_ok (Lepts_core.Solver.solve_acs ~plan ~power ()))

let moderate_spec =
  { Fault_injector.seed = 42; overrun_prob = 0.3; overrun_factor = 2.;
    jitter_prob = 0.3; jitter_frac = 0.2; denial_prob = 0.1 }

let test_campaign_drain_resume_bit_identical () =
  (* The acceptance property behind the CI crash-recovery job, run
     in-process: interrupt a checkpointed campaign mid-arm, resume it,
     and require the resumed report to equal the uninterrupted one on
     every field. 120 rounds with the default chunk of 50 puts the
     drain two chunks into the first arm. *)
  with_path @@ fun path ->
  let acs = acs_schedule () in
  let campaign ?checkpoint ?should_stop () =
    Campaign.run ~rounds:120 ?checkpoint ?should_stop ~spec:moderate_spec
      ~schedule:acs ~policy:Policy.Greedy ~seed:5 ()
  in
  let uninterrupted = campaign () in
  let fp = Checkpoint.fingerprint ~parts:[ "campaign-test" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  let polls = ref 0 in
  let should_stop () = incr polls; !polls >= 3 in
  (try
     ignore (campaign ~checkpoint:session ~should_stop ());
     Alcotest.fail "expected the campaign to drain"
   with Checkpoint.Drained -> ());
  let session2 = session_ok (Checkpoint.start ~path ~resume:true ~fingerprint:fp) in
  Alcotest.(check int) "two chunks of the clean arm on disk" 100
    (Checkpoint.entries session2 ~section:"clean");
  let resumed = campaign ~checkpoint:session2 () in
  Alcotest.(check bool) "resumed report bit-identical" true
    (uninterrupted = resumed)

(* --- Fig 6(a) checkpointed sweep ------------------------------------------ *)

module Fig6a = Lepts_experiments.Fig6a

let point_key (p : Fig6a.point) =
  Printf.sprintf "n%d r%h mean %Lx stddev %Lx sets %d misses %d" p.Fig6a.n_tasks
    p.Fig6a.ratio
    (Int64.bits_of_float p.Fig6a.mean_improvement_pct)
    (Int64.bits_of_float p.Fig6a.stddev_improvement_pct)
    p.Fig6a.sets_measured p.Fig6a.total_misses

let test_fig6a_checkpoint_parallel_bit_identical () =
  (* A checkpointed sweep runs its cells [jobs] at a time: draining after
     the first poll leaves exactly [jobs] sets on disk, and the resumed
     sweep returns the plain run's points bit for bit. Two points of
     three sets each, so the second chunk straddles the point boundary. *)
  with_path @@ fun path ->
  let config =
    { Fig6a.quick_config with
      task_counts = [ 2 ]; ratios = [ 0.1; 0.5 ]; sets_per_point = 3; rounds = 30 }
  in
  let jobs = 2 in
  let plain = List.map point_key (Fig6a.run ~jobs config ~power) in
  let fp = Checkpoint.fingerprint ~parts:[ "fig6a-test" ] in
  let session = session_ok (Checkpoint.start ~path ~resume:false ~fingerprint:fp) in
  let polls = ref 0 in
  let should_stop () = incr polls; !polls >= 2 in
  (try
     ignore (Fig6a.run ~jobs ~checkpoint:session ~should_stop config ~power);
     Alcotest.fail "expected the sweep to drain"
   with Checkpoint.Drained -> ());
  let session2 = session_ok (Checkpoint.start ~path ~resume:true ~fingerprint:fp) in
  Alcotest.(check int) "one chunk of jobs sets on disk" jobs
    (Checkpoint.entries session2 ~section:"set");
  let resumed = List.map point_key (Fig6a.run ~jobs ~checkpoint:session2 config ~power) in
  Alcotest.(check (list string)) "resumed points bit-identical" plain resumed;
  let session3 = session_ok (Checkpoint.start ~path ~resume:true ~fingerprint:fp) in
  Alcotest.(check int) "every set on disk" 6 (Checkpoint.entries session3 ~section:"set")

let test_directory_path_refused () =
  (* A directory is not a snapshot: reading one is an error naming the
     path, never an exception, and a --checkpoint DIR exits 2. *)
  let dir = Filename.temp_dir "lepts-test" ".ckpt" in
  Fun.protect ~finally:(fun () -> Unix.rmdir dir) @@ fun () ->
  let refused what = function
    | Ok _ -> Alcotest.failf "%s accepted a directory" what
    | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "%s names the path in %S" what msg) true
        (contains ~sub:(dir ^ ": ") msg)
  in
  refused "Snapshot.read"
    (Checkpoint.Snapshot.read ~path:dir ~magic:"lepts-checkpoint" ~version:1);
  refused "start" (Checkpoint.start ~path:dir ~resume:false ~fingerprint:"aa");
  let code, _, err =
    Test_golden.lepts_status [ "faults"; "--rounds"; "10"; "--checkpoint"; dir ]
  in
  Alcotest.(check int) "faults --checkpoint DIR exits 2" 2 code;
  Alcotest.(check bool) (Printf.sprintf "diagnostic %S" err) true
    (contains ~sub:("checkpoint: " ^ dir ^ ": ") err)

let suite =
  [ ("fingerprint canonical", `Quick, test_fingerprint_canonical);
    ("float field exact", `Quick, test_float_field_exact);
    ("save/load round trip", `Quick, test_save_load_roundtrip);
    ("resume computes only missing", `Quick, test_resume_computes_only_missing);
    ("sections independent", `Quick, test_sections_are_independent);
    ("corrupt file refused", `Quick, test_corrupt_file_refused);
    ("version mismatch refused", `Quick, test_version_mismatch_refused);
    ("snapshot check diagnostics", `Quick, test_snapshot_check_diagnostics);
    ("fingerprint mismatch refused", `Quick, test_fingerprint_mismatch_refused);
    ("resume requires a file", `Quick, test_resume_requires_file);
    ("drain saves and raises", `Quick, test_drain_saves_and_raises);
    ("campaign drain/resume bit-identical", `Quick,
     test_campaign_drain_resume_bit_identical);
    ("fig6a checkpoint at jobs 2 bit-identical", `Slow,
     test_fig6a_checkpoint_parallel_bit_identical);
    ("directory path refused", `Quick, test_directory_path_refused) ]
