(* The benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--nproc N] [--commit SHA] [--out DIR]

   With --trace 0 it measures the end-to-end metrics of one workload;
   with --trace 1 it runs the workload's traced replica and prints the
   per-layer metrics. Either way the last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   Any failed output check exits non-zero without that line.

     bench.exe --setup-sample NAME --out DIR

   is the child a run starts for each set-up sample: it prints one
   sample of NAME's set-up (Common.Setup). *)

open Common

let workloads = [ "fig6a-sweep"; "large-plan-solve"; "serve-cold"; "serve-hot" ]

let jobs_of = function "fig6a-sweep" -> Fig6a_sweep.jobs | _ -> 1

(* Every per-layer metric, in the order BENCHMARK.json lists them; a
   layer a workload does not reach reports 0. *)
let per_layer_names =
  [ "workloads.generate_s"; "preempt.expand_s"; "preempt.subs"; "solver.wcs_s";
    "solver.acs_s"; "solver.calls"; "solver.outer"; "solver.inner";
    "solver.inner_per_s"; "solver.warm_s"; "solver.warm_calls"; "literal.s"; "literal.calls"; "literal.wins"; "validate.s";
    "validate.calls"; "validate.rejects"; "validate.worst_margin"; "export.s"; "export.bytes"; "sim.s";
    "sim.rounds"; "sim.rounds_per_s"; "pool.busy_s"; "pool.utilization_pct";
    "robust.s"; "robust.calls"; "robust.fallbacks"; "robust.request_ms_p50";
    "robust.request_ms_tail"; "transport.ingest_s"; "transport.lines";
    "request.parse_s"; "cache.lookup_s"; "cache.hits"; "cache.misses"; "cache.stale";
    "cache.inserts"; "service.waves"; "service.coalesced"; "service.self_s";
    "service.report_s"; "service.report_bytes"; "transport.journal_save_s";
    "transport.journal_bytes"; "daemon.snapshot_save_s"; "daemon.snapshot_bytes";
    "daemon.start_s"; "trace.unattributed_pct"; "trace.overhead_pct"; "trace.faithful" ]

let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "_pct" then "%"
  else if ends "_ms_p50" || ends "_ms_tail" then "ms"
  else if ends "_per_s" then "1/s"
  else if ends "_s" || ends ".s" then "s"
  else if ends "bytes" then "B"
  else if ends "_margin" then "ratio"
  else "count"

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else failwith "non-finite metric"

let result_line (r : result) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) u)
          r.metrics))

let print_result ~context (r : result) =
  print_endline ("context " ^ context);
  List.iter print_endline r.notes;
  List.iter (fun (name, v, u) -> Printf.printf "%-26s %.6g %s\n" name v u) r.metrics;
  print_endline (result_line r)

(* failed_pct and the tail are printed, not part of the result object:
   the first is the result's failed/attempted, and the tail exists only
   where at least ten samples lie beyond it. *)
let extra_lines ~attempted ~failed samples_ms =
  Printf.sprintf "%-26s %.6g %% (%d of %d units)" "failed_pct"
    (100. *. float_of_int failed /. float_of_int attempted)
    failed attempted
  ::
  (match tail samples_ms with
  | Some (p, v, beyond) ->
    [ Printf.sprintf "%-26s %.6g ms (p%g of %d samples, %d beyond)" "tail_ms" v p
        (List.length samples_ms) beyond ]
  | None ->
    [ Printf.sprintf "%-26s n/a (%d samples: fewer than 10 beyond the median)" "tail_ms"
        (List.length samples_ms) ])

let untraced ~workload ~seed ~seconds ~out =
  match workload with
  | "fig6a-sweep" ->
    let r, ms, _, _, _ = Fig6a_sweep.measure ~seconds ~out () in
    (r, ms)
  | "large-plan-solve" ->
    let r, ms, _, _, _ = Large_plan.measure ~seconds ~out in
    (r, ms)
  | "serve-cold" -> Serve.measure ~hot:false ~seed ~seconds ~out
  | "serve-hot" -> Serve.measure ~hot:true ~seed ~seconds ~out
  | w -> invalid_arg ("unknown workload " ^ w)

let traced ~workload ~seed ~out =
  match workload with
  | "fig6a-sweep" -> Fig6a_sweep.traced ~out
  | "large-plan-solve" -> Large_plan.traced ~out
  | "serve-cold" -> Serve.traced ~hot:false ~seed ~out
  | "serve-hot" -> Serve.traced ~hot:true ~seed ~out
  | w -> invalid_arg ("unknown workload " ^ w)

let setup_sample ~workload ~out =
  Setup.sample
    (match workload with
    | "fig6a-sweep" -> Fig6a_sweep.setup_once
    | "large-plan-solve" -> Large_plan.setup_once
    | "serve-cold" -> Serve.setup_once (Serve.paths ~out ~hot:false) ~hot:false
    | "serve-hot" -> Serve.setup_once (Serve.paths ~out ~hot:true) ~hot:true
    | w -> invalid_arg ("unknown workload " ^ w))

let main ~workload ~seed ~seconds ~trace ~nproc ~commit ~out =
  if not (List.mem workload workloads) then begin
    prerr_endline ("unknown workload " ^ workload ^ "; one of: " ^ String.concat ", " workloads);
    exit 2
  end;
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let context =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"jobs\": %d, \
       \"nproc\": %s, \"recommended_domain_count\": %d, \"ocaml\": %S, \"commit\": %S}"
      workload seed seconds trace (jobs_of workload) nproc
      (Domain.recommended_domain_count ()) Sys.ocaml_version commit
  in
  if not trace then begin
    let r, samples_ms = untraced ~workload ~seed ~seconds ~out in
    List.iter print_endline (extra_lines ~attempted:r.attempted ~failed:r.failed samples_ms);
    print_result ~context r
  end
  else begin
    let (r : result), spans, per_layer, faithful = traced ~workload ~seed ~out in
    let path = Filename.concat out (workload ^ ".spans.tsv") in
    Spans.write spans ~path;
    let per_layer = ("trace.faithful", if faithful then 1. else 0.) :: per_layer in
    let metrics =
      List.map
        (fun name ->
          let v = Option.value (List.assoc_opt name per_layer) ~default:0. in
          (name, (if Float.is_finite v then v else 0.), unit_of name))
        per_layer_names
    in
    List.iter
      (fun (name, _) ->
        if not (List.mem name per_layer_names) then invalid_arg ("unlisted metric " ^ name))
      per_layer;
    print_endline
      (if faithful then "trace: faithful (the replica reproduced the untraced outputs bit for bit)"
       else "trace: STALE (the replica no longer reproduces the untraced outputs; breakdown not trusted)");
    Printf.printf "trace: %d spans written to %s\n" spans.Spans.len path;
    print_result ~context { r with metrics }
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let nproc = ref "null" and commit = ref "unknown" and out = ref ".perfbench" in
  let sample = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--nproc", Arg.Set_string nproc, "N online CPUs, recorded in the context");
      ("--commit", Arg.Set_string commit, "SHA source commit, recorded in the context");
      ("--out", Arg.Set_string out, "DIR working files and span dumps");
      ("--setup-sample", Arg.Set_string sample, "NAME print one set-up sample of NAME") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  try
    if !sample <> "" then setup_sample ~workload:!sample ~out:!out
    else
      main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~nproc:!nproc ~commit:!commit ~out:!out
  with Failure msg ->
    prerr_endline ("bench: " ^ msg);
    exit 1
