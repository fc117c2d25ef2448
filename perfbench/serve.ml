(* serve-cold and serve-hot: one NDJSON batch through the serve daemon
   (Daemon.run_source: cache and journal files, the default snapshot
   cadence, one worker domain, waves of 8) fed by a spool directory.
   The whole batch is in the spool before the daemon's first poll, so
   every run groups its work into the same waves.

   serve-cold starts with no snapshot and a solve-heavy batch: the
   robust pipeline, warm chains and coalescing do the work and the
   cache is mostly written. serve-hot warm-starts from the snapshot of
   a priming run and receives a long batch over a few dozen contents,
   so nearly every request is a cache read and the per-request engine
   work and persistence do the work instead. Contents whose ACS stage
   falls back stay in the mix: they are cached as fallbacks, found
   stale and re-solved on every request. *)

open Common
module Service = Lepts_serve.Service
module Daemon = Lepts_serve.Daemon
module Transport = Lepts_serve.Transport
module Request = Lepts_serve.Request
module Cache = Lepts_serve.Cache
module Checkpoint = Lepts_robust.Checkpoint
module Metrics = Lepts_obs.Metrics
module Rng = Lepts_prng.Xoshiro256

type content = { tasks : int; ratio : float; seed : int; rounds : int }

let line ~id c =
  Request.to_json
    { Request.id; tasks = c.tasks; ratio = c.ratio; seed = c.seed; rounds = c.rounds;
      budget_ms = None; acs_max_outer = None }

let pick rng a = a.(Rng.int rng ~bound:(Array.length a))

(* Draws are sequenced with [let]: OCaml leaves the evaluation order of
   record fields and list elements unspecified. *)
let random_content ?(rounds = 0) rng =
  let tasks = 2 + Rng.int rng ~bound:3 in
  let ratio = pick rng [| 0.1; 0.3; 0.5; 0.7; 0.9 |] in
  let seed = Rng.int rng ~bound:1_000_000 in
  { tasks; ratio; seed; rounds }

let cnc ratio = { tasks = 0; ratio; seed = 0; rounds = 0 }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* serve-cold: blocks of two waves with a fixed mix of kinds. The first
   wave holds a content-identical pair (coalesced), a four-step ratio
   ladder of one family (warm-chained), a small random set and a CNC
   set; the second holds six more random sets (one simulated for 20
   rounds) and a repeat of the first wave's CNC set (a cache hit). The
   contents are pinned and the seed shuffles the order of the blocks:
   the solve cost of small random sets is heavy-tailed, so drawing them
   from the seed would move a batch's cost by more than the bounds
   allow, and blocks aligned to waves keep what coalesces, chains and
   hits the same for every order. *)
let cold_blocks = 4

let cold_contents ~seed =
  let rng = Rng.create ~seed:0xc01d in
  let blocks =
    Array.init cold_blocks (fun _ ->
        let pair = random_content rng in
        let family = random_content rng in
        let single = random_content rng in
        let plant = cnc (pick rng [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 |]) in
        let simulated = random_content ~rounds:20 rng in
        let more = List.init 6 (fun _ -> random_content rng) in
        ([ pair; pair ] @ List.map (fun ratio -> { family with ratio }) [ 0.2; 0.4; 0.6; 0.8 ]
         @ [ single; plant ])
        @ (simulated :: plant :: more))
  in
  shuffle (Rng.create ~seed:(0xc01d + seed)) blocks;
  List.concat (Array.to_list blocks)

(* serve-hot: a pinned catalog of 24 contents (CNC at six ratios and 18
   small random sets), sent in rounds that hold each content once, in
   an order the seed shuffles. A round is three waves, so no content
   appears twice in a wave and nothing coalesces. The catalog seed is
   the first whose sets include exactly one content the ACS stage fails
   on, the rate seen in earlier probes of this mix; that content is
   re-solved on every request (about 80 ms each on a 2-vCPU VM). *)
let hot_catalog =
  let rng = Rng.create ~seed:0x413 in
  let random = List.init 18 (fun _ -> random_content rng) in
  List.map cnc [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ] @ random

let hot_rounds = 50

let hot_contents ~seed =
  let rng = Rng.create ~seed:(0x407 + seed) in
  List.concat
    (List.init hot_rounds (fun _ ->
         let round = Array.of_list hot_catalog in
         shuffle rng round;
         Array.to_list round))

let batch_lines contents = List.mapi (fun i c -> line ~id:(Printf.sprintf "r%05d" i) c) contents

(* --- files ------------------------------------------------------------------- *)

type paths = { dir : string; spool : string; cache : string; journal : string; primed : string }

let paths ~out ~hot =
  let dir = Filename.concat out (if hot then "serve-hot" else "serve-cold") in
  { dir; spool = Filename.concat dir "spool"; cache = Filename.concat dir "cache.snap";
    journal = Filename.concat dir "journal.snap"; primed = Filename.concat dir "primed.snap" }

let mkdir_p path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

let remove path = if Sys.file_exists path then Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size

let config p ~batch =
  { Daemon.default_config with
    Daemon.service =
      { Service.default_config with Service.jobs = 1; wave = 8; high_water = batch + 1 };
    cache_path = Some p.cache; journal_path = Some p.journal }

(* The daemon's cache fingerprint (Daemon pins the power model's
   voltage rails), for the start-up the benchmark times on its own. *)
let fingerprint =
  Checkpoint.fingerprint
    ~parts:
      [ "lepts-serve-cache"; Checkpoint.float_field power.Lepts_power.Model.v_min;
        Checkpoint.float_field power.Lepts_power.Model.v_max ]

let report_bytes p (report : Service.report) =
  let path = Filename.concat p.dir "report.ndjson" in
  Out_channel.with_open_bin path (fun oc -> Service.print_report ~oc report);
  read_file path

(* Each batch starts from the same state: no files for a cold start,
   the priming run's snapshot for a warm one. *)
let reset p ~hot =
  remove p.journal;
  if hot then write_file p.cache (read_file p.primed) else remove p.cache

(* The priming run goes in a child process, so that its allocation
   cannot set the measuring process's top heap size. *)
let prime p =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      match
        let lines = batch_lines hot_catalog in
        remove p.cache;
        let cfg = { (config p ~batch:(List.length lines)) with Daemon.journal_path = None } in
        ignore (Daemon.run ~config:cfg ~power ~lines ());
        Sys.rename p.cache p.primed
      with
      | () -> 0
      | exception e ->
        prerr_endline ("bench: priming run failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "the priming run failed")

let spool_source p =
  match Transport.spool ~poll_ms:1 ~idle_exit_ms:1 ~dir:p.spool () with
  | Ok s -> s
  | Error msg -> failwith msg

(* Hand the batch to the spool: write, then rename, so a poll never
   sees a partial file. *)
let hand_off p ~text =
  let tmp = Filename.concat p.spool ".batch.tmp" in
  write_file tmp text;
  Sys.rename tmp (Filename.concat p.spool "batch.ndjson")

(* The daemon's start as Daemon.run_source makes it: an empty cache
   cold, the snapshot load warm. *)
let start_cache ~path ~hot =
  if hot then
    match Cache.load ~path ~fingerprint () with Ok c -> c | Error msg -> failwith msg
  else Cache.create ~fingerprint ()

(* One set-up as a user pays it before the daemon's first poll: creating
   the ingress and starting the daemon. No hook fires between the two,
   so it is timed through the same public calls Daemon.run_source makes
   first. A warm start loads the primed snapshot, the bytes every warm
   batch starts from. *)
let setup_once p ~hot () =
  Transport.close (spool_source p);
  ignore (start_cache ~path:p.primed ~hot)

(* Waves between set-up samples: every wave of a cold batch, every
   16th of the much longer hot one. *)
let sample_every ~hot = if hot then 16 else 1

(* The share of requests the ACS stage answered, and the outcomes that
   are not done. *)
let quality_and_failed (report : Service.report) =
  let acs, failed =
    List.fold_left
      (fun (a, f) (o : Service.outcome) ->
        match o.Service.status with
        | Service.Done { stage = "acs"; _ } -> (a + 1, f)
        | Service.Done _ -> (a, f)
        | _ -> (a, f + 1))
      (0, 0) report.Service.outcomes
  in
  (100. *. float_of_int acs /. float_of_int (List.length report.Service.outcomes), failed)

(* The repo's determinism contract: replaying the run's own journal
   offline reproduces its report byte for byte. *)
let replay_report p ~batch =
  let source =
    match Transport.replay ~path:p.journal with Ok s -> s | Error msg -> failwith msg
  in
  let cfg = { (config p ~batch) with Daemon.cache_path = None; journal_path = None } in
  let r = Daemon.run_source ~config:cfg ~power ~source () in
  report_bytes p r.Daemon.report

(* One batch through Daemon.run_source. Its should_stop hook, which runs
   after each poll and before each wave, takes a set-up sample every few
   waves; the served time leaves those samples out. It still holds the
   daemon's start and, after the last wave, one empty poll of the spool:
   Daemon.run_source has no hook after its final wave, and that poll
   sleeps for the 1 ms poll interval before the idle exit closes the
   ingress. *)
let run_batch p ~hot ~setup ~lines ~text =
  reset p ~hot;
  hand_off p ~text;
  let source = spool_source p in
  let polls = ref 0 and spent = ref 0. in
  let should_stop () =
    incr polls;
    if !polls mod sample_every ~hot = 0 then spent := !spent +. Setup.take setup;
    false
  in
  let result, served_s =
    time (fun () ->
        Daemon.run_source ~config:(config p ~batch:(List.length lines)) ~power ~should_stop
          ~source ())
  in
  Transport.close source;
  (result, report_bytes p result.Daemon.report, served_s -. !spent)

let prepare ~out ~hot ~seed =
  let p = paths ~out ~hot in
  mkdir_p p.dir;
  mkdir_p p.spool;
  if hot then prime p;
  let lines = batch_lines (if hot then hot_contents ~seed else cold_contents ~seed) in
  (p, lines, String.concat "\n" lines ^ "\n")

(* Batches run while another fits in [seconds]; only the first batch's
   result is kept, so the heap does not grow with the batch count. *)
type batches = {
  first : Daemon.result;
  report : string;
  served : float list;
  setup : Setup.t;
  before : float;  (** top heap before the first batch *)
  heap : float;
}

let measure_batches ~hot ~seed ~seconds ~out =
  let p, lines, text = prepare ~out ~hot ~seed in
  let setup = Setup.create ~workload:(if hot then "serve-hot" else "serve-cold") ~out in
  settle ();
  let before = heap_mb () in
  let start = now () in
  let first, report, s0 = run_batch p ~hot ~setup ~lines ~text in
  let heap = heap_mb () in
  let rec go acc =
    if not (another ~start ~seconds ~last:(List.hd acc)) then List.rev acc
    else
      let _, again, s = run_batch p ~hot ~setup ~lines ~text in
      if again <> report then check_failed "serve report differs between batches";
      go (s :: acc)
  in
  let served = go [ s0 ] in
  (* The last batch's journal holds the same arrivals as every other. *)
  if replay_report p ~batch:(List.length lines) <> report then
    check_failed "serve report differs from the replay of its journal";
  (p, lines, text, { first; report; served; setup; before; heap })

let summarize ~lines b =
  let first = b.first in
  let n = List.length b.served and per = List.length lines in
  let quality, failed = quality_and_failed first.Daemon.report in
  let makespans = List.map (fun s -> s *. 1000.) b.served in
  let stats = Cache.stats first.Daemon.cache in
  let setup_s = Setup.median b.setup in
  ( { correct = true; attempted = n * per; failed = n * failed;
      metrics =
        [ ("setup_s", setup_s, "s");
          ("throughput_per_s", float_of_int per /. median b.served, "1/s");
          ("latency_ms", median makespans, "ms");
          ("quality_pct", quality, "%");
          ("heap_mb", b.heap, "MB") ];
      notes =
        [ Printf.sprintf "serve: %d batch(es) of %d requests, %s start, -j 1, waves of 8" n per
            (Daemon.start_name first.Daemon.start);
          Printf.sprintf "cache per batch: %d hits, %d misses, %d stale, %d inserts"
            stats.Cache.s_hits stats.Cache.s_misses stats.Cache.s_stale stats.Cache.s_inserts;
          Printf.sprintf
            "latency_ms: median makespan of %d batches (daemon start to report, with one final \
             1 ms spool poll)"
            n;
          Setup.note b.setup;
          heap_note ~before:b.before ~after:b.heap ] },
    makespans )

let measure ~hot ~seed ~seconds ~out =
  let _, lines, _, batches = measure_batches ~hot ~seed ~seconds ~out in
  summarize ~lines batches

(* --- traced replica ---------------------------------------------------------- *)

(* The library's counter [name] in the default registry, summed over
   the label sets [keep] accepts. *)
let counter ?(keep = fun _ -> true) name =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Counter_v n when s.Metrics.name = name && keep s.Metrics.labels -> acc + n
      | _ -> acc)
    0 (Metrics.snapshot Metrics.default)

let fallbacks () =
  counter "lepts_pipeline_chosen_total" ~keep:(fun l -> List.assoc_opt "stage" l <> Some "acs")

(* Segments of the engine's single-domain timeline, delimited by its
   hooks: [should_stop] runs after each poll and admission, before the
   wave; [before_solve] before each solve attempt; [after_wave] after
   each wave's fold. A solve segment runs until the next hook, so the
   last solve of a wave also carries that wave's fold. *)
type segment = Ingest | Engine | Solve of string

let segment_name = function
  | Ingest -> "transport.ingest"
  | Engine -> "service"
  | Solve _ -> "robust"

(* One batch through Daemon.run_source's public calls in its order —
   start the cache, Service.run_source with the journal, a snapshot and
   a journal save every [snapshot_every] waves and once at the end —
   with spans around each, and the engine's hooks marking its
   segments. *)
let traced_batch p ~hot ~lines ~text root =
  let cfg = config p ~batch:(List.length lines) in
  reset p ~hot;
  hand_off p ~text;
  let source = spool_source p in
  let span name f = Spans.with_ root ~name f in
  let calls = ref 0 and waves = ref 0 in
  let snapshot_bytes = ref 0 and journal_bytes = ref 0 in
  let journal = Transport.Journal.create () in
  let save cache =
    span "daemon.snapshot_save" (fun () -> Cache.save cache ~path:p.cache);
    snapshot_bytes := !snapshot_bytes + file_size p.cache;
    span "transport.journal_save" (fun () -> Transport.Journal.save journal ~path:p.journal);
    journal_bytes := !journal_bytes + file_size p.journal
  in
  let fallbacks0 = fallbacks () and solves0 = counter "lepts_solver_solves_total" in
  let rounds0 = counter "lepts_sim_rounds_total" in
  (* A warm continuation is the only single-start solve (every cold
     multi-start runs at least two), so a solve segment with fewer starts
     than twice its solves ran a warm chain link. *)
  let solves_c = Metrics.counter Metrics.default "lepts_solver_solves_total" in
  let starts_c = Metrics.counter Metrics.default "lepts_solver_starts_total" in
  let warm_calls = ref 0 and warm_s = ref 0. and base = ref (0, 0) in
  let (report, cache), wall =
    time (fun () ->
        span "batch" (fun () ->
            let cache = span "daemon.start" (fun () -> start_cache ~path:p.cache ~hot) in
            let seg = ref Ingest and mark = ref (now ()) in
            let switch next =
              let t = now () in
              let id = match !seg with Solve id -> id | _ -> "" in
              Spans.interval root ~name:(segment_name !seg) ~id ~t0:!mark ~t1:t ();
              (match !seg with
              | Solve _ ->
                let solves = Metrics.counter_value solves_c - fst !base in
                let starts = Metrics.counter_value starts_c - snd !base in
                if solves > 0 && starts < 2 * solves then begin
                  incr warm_calls;
                  warm_s := !warm_s +. (t -. !mark)
                end
              | _ -> ());
              (match next with
              | Solve _ -> base := (Metrics.counter_value solves_c, Metrics.counter_value starts_c)
              | _ -> ());
              seg := next;
              mark := t
            in
            let should_stop () =
              switch Engine;
              false
            in
            let before_solve ~attempt:_ (req : Request.t) =
              incr calls;
              switch (Solve req.Request.id)
            in
            let after_wave (w : Service.progress) =
              switch Engine;
              incr waves;
              if w.Service.p_wave mod cfg.Daemon.snapshot_every = 0 then save cache;
              seg := Ingest;
              mark := now ()
            in
            let report =
              Service.run_source ~config:cfg.Daemon.service ~power ~cache ~journal ~before_solve
                ~after_wave ~should_stop ~source ()
            in
            switch Engine;
            save cache;
            (report, cache)))
  in
  Transport.close source;
  let text, report_s = time (fun () -> span "service.report" (fun () -> report_bytes p report)) in
  let stats = Cache.stats cache in
  let robust_ms = List.map (fun s -> s *. 1000.) (Spans.durations root "robust") in
  let counts =
    [ ("robust.calls", float_of_int !calls);
      ("solver.warm_calls", float_of_int !warm_calls);
      ("solver.warm_s", !warm_s);
      ("robust.fallbacks", float_of_int (fallbacks () - fallbacks0));
      ("solver.calls", float_of_int (counter "lepts_solver_solves_total" - solves0));
      ("sim.rounds", float_of_int (counter "lepts_sim_rounds_total" - rounds0));
      ("transport.lines", float_of_int (List.length lines));
      ("cache.hits", float_of_int stats.Cache.s_hits);
      ("cache.misses", float_of_int stats.Cache.s_misses);
      ("cache.stale", float_of_int stats.Cache.s_stale);
      ("cache.inserts", float_of_int stats.Cache.s_inserts);
      ("service.waves", float_of_int !waves);
      ("service.coalesced", float_of_int report.Service.coalesced);
      ("service.report_s", report_s);
      ("service.report_bytes", float_of_int (String.length text));
      ("daemon.snapshot_bytes", float_of_int !snapshot_bytes);
      ("transport.journal_bytes", float_of_int !journal_bytes) ]
  in
  (text, wall, robust_ms, counts)

(* Layers the engine runs inside one call, timed by repeating their
   public calls on the batch outside the traced interval: parsing every
   line, and one cache lookup per request against the batch's starting
   cache. *)
let replica_layers p ~hot ~lines =
  let reqs, parse_s =
    time (fun () ->
        List.map (fun l -> match Request.of_json l with Ok r -> r | Error m -> failwith m) lines)
  in
  reset p ~hot;
  let cache = start_cache ~path:p.cache ~hot in
  let (), lookup_s =
    time (fun () -> List.iter (fun r -> ignore (Cache.find cache ~key:(Cache.key r))) reqs)
  in
  [ ("request.parse_s", parse_s); ("cache.lookup_s", lookup_s) ]

let traced ~hot ~seed ~out =
  let p, lines, text, batches = measure_batches ~hot ~seed ~seconds:0. ~out in
  let untraced, _ = summarize ~lines batches in
  let root = Spans.create () in
  let report, wall, robust_ms, counts = traced_batch p ~hot ~lines ~text root in
  let self = Spans.self root in
  let layers =
    [ "daemon.start"; "transport.ingest"; "service"; "robust"; "daemon.snapshot_save";
      "transport.journal_save" ]
  in
  let attributed = List.fold_left (fun a l -> a +. self l) 0. layers in
  let tail_ms =
    match tail robust_ms with
    | Some (_, v, _) -> v
    | None -> 0.
  in
  let per_layer =
    counts
    @ replica_layers p ~hot ~lines
    @ [ ("daemon.start_s", self "daemon.start");
        ("transport.ingest_s", self "transport.ingest");
        ("service.self_s", self "service");
        ("robust.s", self "robust");
        ("robust.request_ms_p50", (if robust_ms = [] then 0. else median robust_ms));
        ("robust.request_ms_tail", tail_ms);
        ("daemon.snapshot_save_s", self "daemon.snapshot_save");
        ("transport.journal_save_s", self "transport.journal_save");
        ("trace.unattributed_pct", 100. *. (wall -. attributed) /. wall);
        ("trace.overhead_pct",
          100. *. (wall -. List.hd batches.served) /. List.hd batches.served) ]
  in
  let tail_note =
    match tail robust_ms with
    | Some (q, v, beyond) ->
      Printf.sprintf "robust.request_ms: p50 over %d solve attempts; tail p%g = %.4g ms, %d beyond"
        (List.length robust_ms) q v beyond
    | None ->
      Printf.sprintf "robust.request_ms: %d solve attempts, too few for a tail (reported as 0)"
        (List.length robust_ms)
  in
  ( { untraced with notes = untraced.notes @ [ tail_note ] },
    root,
    per_layer,
    report = batches.report )
