(* Golden outputs: the byte-exact stdout of `lepts motivation`,
   `lepts schedule` and `lepts export --ratio 0.1|0.5|0.9`, plus the
   Int64 bits of the paper-literal NLP's schedules and objectives. The
   numbers come only from correctly rounded IEEE-754 operations, so the
   recorded bytes hold on any conforming machine; a change that moves
   any of them changed the solver's arithmetic, not just its code.

   Regenerate a CLI golden with, e.g.,
   `dune exec -- lepts export --ratio 0.5 > test/golden/export_0.5.csv`,
   and only when the change is meant to move the numbers. *)

open Lepts_core
module Plan = Lepts_preempt.Plan

(* The runner lives in _build/<context>/test; its dependencies (the CLI
   and the golden files) are staged beside it by dune. *)
let build_dir = Filename.dirname Sys.executable_name
let lepts = Filename.concat (Filename.dirname build_dir) "bin/lepts.exe"
let golden name = In_channel.with_open_bin (Filename.concat build_dir ("golden/" ^ name)) In_channel.input_all

let check_text ~what expect got =
  if expect <> got then begin
    let rec first_diff line = function
      | e :: es, g :: gs ->
        if e = g then first_diff (line + 1) (es, gs)
        else Alcotest.failf "%s, line %d:\n  golden: %s\n  actual: %s" what line e g
      | e :: _, [] -> Alcotest.failf "%s: output ends before line %d (%s)" what line e
      | [], g :: _ -> Alcotest.failf "%s: extra line %d (%s)" what line g
      | [], [] -> Alcotest.failf "%s: outputs differ" what
    in
    first_diff 1 (String.split_on_char '\n' expect, String.split_on_char '\n' got)
  end

let run_lepts args =
  let ic = Unix.open_process_args_in lepts (Array.of_list (lepts :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "lepts %s did not exit 0" (String.concat " " args)

(* Exit code, stdout and stderr of one CLI run, stdin on /dev/null:
   for the commands that must refuse their arguments. *)
let lepts_status args =
  let out = Filename.temp_file "lepts-test" ".out" in
  let err = Filename.temp_file "lepts-test" ".err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let sink path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_fd = sink out and err_fd = sink err in
  let pid =
    Unix.create_process lepts (Array.of_list (lepts :: args)) null out_fd err_fd
  in
  List.iter Unix.close [ null; out_fd; err_fd ];
  let _, status = Unix.waitpid [] pid in
  let read path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  let stdout = read out in
  let stderr = read err in
  ((match status with Unix.WEXITED code -> code | _ -> -1), stdout, stderr)

(* An invalid option value is a usage error: exit 124 with a message
   naming the flag, and nothing on stdout, before any work starts. *)
let test_refuses_invalid_values () =
  List.iter
    (fun (args, flag) ->
      let what = "lepts " ^ String.concat " " args in
      let code, out, err = lepts_status args in
      Alcotest.(check int) (what ^ ": exit") 124 code;
      Alcotest.(check string) (what ^ ": stdout") "" out;
      Alcotest.(check bool) (Printf.sprintf "%s: %S names %s" what err flag) true
        (Test_serve.contains ~sub:flag err))
    [ ([ "fig6a"; "--sets"; "0"; "--rounds"; "10" ], "'--sets'");
      ([ "faults"; "--overrun-prob"; "2"; "--rounds"; "20" ], "'--overrun-prob'");
      ([ "faults"; "--jitter-frac"; "1" ], "'--jitter-frac'");
      ([ "fig6a"; "--rounds"; "0" ], "'--rounds'");
      ([ "random"; "-n"; "0" ], "'-n'");
      ([ "random"; "--ratio"; "1.5" ], "'--ratio'");
      ([ "random"; "--jobs=-1" ], "'--jobs'");
      ([ "fig6a"; "--v-min"; "5" ], "'--v-min'");
      ([ "serve"; "--wave"; "0" ], "'--wave'") ]

let cli_case ~file args =
  ( "lepts " ^ String.concat " " args,
    `Quick,
    fun () -> check_text ~what:file (golden file) (run_lepts args) )

(* The motivational example and CNC at ratio 0.1, both modes: one block
   per solve, each vector as space-separated hex of its IEEE-754 bits.
   A third fixture is a [Random_gen] plan of exactly 120 subs, the
   largest size [Improvement] refines with the literal NLP. The AL keeps
   constraint terms active over more than a dozen outer rounds on three
   of the six solves: 17 on motivation average, 19 on CNC average and
   22 on random worst. *)
let literal_nlp_bits () =
  let bits xs =
    String.concat " "
      (Array.to_list
         (Array.map (fun x -> Printf.sprintf "%016Lx" (Int64.bits_of_float x)) xs))
  in
  let module Model = Lepts_power.Model in
  let cnc_power = Model.ideal ~v_min:0.5 ~v_max:4.0 () in
  let random_plan =
    let rng = Lepts_prng.Xoshiro256.create ~seed:4004 in
    match
      Lepts_workloads.Random_gen.generate
        (Lepts_workloads.Random_gen.default_config ~n_tasks:4 ~ratio:0.1)
        ~power:cnc_power ~rng
    with
    | Ok ts -> Plan.expand ts
    | Error msg -> Alcotest.failf "random fixture: %s" msg
  in
  Alcotest.(check int) "random fixture size" 120 (Array.length random_plan.Plan.order);
  let fixtures =
    [ ( "motivation",
        Plan.expand (Lepts_experiments.Motivation.task_set ()),
        Lepts_experiments.Motivation.power () );
      ( "cnc",
        Plan.expand (Lepts_workloads.Cnc.task_set ~power:cnc_power ~ratio:0.1 ()),
        cnc_power );
      ("random", random_plan, cnc_power) ]
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, plan, power) ->
      List.iter
        (fun (mode_name, mode) ->
          match Literal_nlp.solve ~mode ~plan ~power () with
          | Error e -> Alcotest.failf "%s %s: %a" name mode_name Solver.pp_error e
          | Ok (s, stats) ->
            Printf.bprintf buf "%s %s\nobjective %s\nend_times %s\nquotas %s\n" name
              mode_name
              (bits [| stats.Solver.objective |])
              (bits s.Static_schedule.end_times)
              (bits s.Static_schedule.quotas))
        [ ("average", Objective.Average); ("worst", Objective.Worst) ])
    fixtures;
  check_text ~what:"literal_nlp.txt" (golden "literal_nlp.txt") (Buffer.contents buf)

let suite =
  [ cli_case ~file:"motivation.txt" [ "motivation" ];
    cli_case ~file:"schedule.txt" [ "schedule" ];
    cli_case ~file:"export_0.1.csv" [ "export"; "--ratio"; "0.1" ];
    cli_case ~file:"export_0.5.csv" [ "export"; "--ratio"; "0.5" ];
    cli_case ~file:"export_0.9.csv" [ "export"; "--ratio"; "0.9" ];
    ("Literal_nlp pinned bits", `Quick, literal_nlp_bits);
    ("lepts refuses invalid option values", `Quick, test_refuses_invalid_values) ]
