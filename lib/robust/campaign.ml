module Runner = Lepts_sim.Runner
module Static_schedule = Lepts_core.Static_schedule
module Rng = Lepts_prng.Xoshiro256
module Table = Lepts_util.Table
module Span = Lepts_obs.Span

type arm = {
  label : string;
  summary : Runner.summary;
  faults : Fault_injector.counters;
  containment : Containment.counters option;
}

type report = {
  clean : Runner.summary;
  faulty : arm;
  contained : arm;
  spec : Fault_injector.spec;
  rounds : int;
}

(* Checkpoint codecs: one entry per round per arm, its energy bits,
   misses and shed count. The faulted arms append their fault and
   containment counters — a resumed campaign must restore them exactly,
   not only the energy figures. *)
let round_fields (r : Runner.round_result) =
  [ Checkpoint.float_field r.Runner.energy; string_of_int r.Runner.misses;
    string_of_int r.Runner.shed ]

let round_of e m s =
  { Runner.energy = Checkpoint.float_of_field e; misses = int_of_string m;
    shed = int_of_string s }

let decode_round = function
  | [ e; m; s ] -> round_of e m s
  | fields ->
    failwith (Printf.sprintf "Campaign: round entry has %d fields" (List.length fields))

let encode_arm ~contained (r, (fc : Fault_injector.counters), cc) =
  round_fields r
  @ [ string_of_int fc.Fault_injector.overruns;
      string_of_int fc.Fault_injector.jitters;
      string_of_int fc.Fault_injector.denials ]
  @
  if not contained then []
  else
    match cc with
    | None -> failwith "Campaign: contained round without containment counters"
    | Some (c : Containment.counters) ->
      [ string_of_int c.Containment.escalated_dispatches;
        string_of_int c.Containment.escalated_instances;
        string_of_int c.Containment.shed_instances ]

let decode_arm ~contained fields =
  match (contained, fields) with
  | false, [ e; m; s; ov; ji; de ] ->
    ( round_of e m s,
      { Fault_injector.overruns = int_of_string ov; jitters = int_of_string ji;
        denials = int_of_string de },
      None )
  | true, [ e; m; s; ov; ji; de; ed; ei; si ] ->
    ( round_of e m s,
      { Fault_injector.overruns = int_of_string ov; jitters = int_of_string ji;
        denials = int_of_string de },
      Some
        { Containment.escalated_dispatches = int_of_string ed;
          escalated_instances = int_of_string ei;
          shed_instances = int_of_string si } )
  | _ ->
    failwith
      (Printf.sprintf "Campaign: arm entry has %d fields" (List.length fields))

let run ?(rounds = 500) ?(jobs = 1) ?on_stats ?dist
    ?(containment = Containment.default_config) ?checkpoint ?should_stop ~spec
    ~(schedule : Static_schedule.t) ~policy ~seed () =
  Fault_injector.validate spec;
  let plan = schedule.Static_schedule.plan in
  let power = schedule.Static_schedule.power in
  let base = Rng.create ~seed in
  let stats_for label = Option.map (fun f s -> f ~label s) on_stats in
  (* Each arm replays the identical workload draws (every round is a
     [Runner.round] on [base], exactly what the clean arm runs) and the
     identical fault scenarios (same injector spec and per-round
     seeds); only the runtime response differs. Every round gets its
     own fault/containment counters, captured by its [scenario] and
     containment hooks, so rounds are independent — safe to run on any
     domain — and the totals are merged in round order. Rounds flow
     through {!Checkpoint.map_indices}: without a session that is one
     pool run, with one it reuses every round already on disk and
     persists new rounds chunk by chunk — the merged report is
     bit-identical either way, which is what makes kill-9-and-resume
     exact. *)
  (* Arms run on the caller's domain (only their rounds fan out), so a
     plain span per arm is enough for the campaign profile. *)
  let arm label ~section ~contained =
    Span.with_ ~name:("arm:" ^ label) @@ fun () ->
    let one_round r =
      let fc = Fault_injector.fresh_counters () in
      let scenario ~round ~totals =
        let s = Fault_injector.perturb spec ~counters:fc ~round plan ~totals in
        (s.Fault_injector.totals, Some s.Fault_injector.faults)
      in
      let cc, control =
        if not contained then (None, None)
        else
          let c = Containment.fresh_counters () in
          (Some c, Some (Containment.control ~config:containment ~power ~counters:c ()))
      in
      ( Runner.round ?dist ~scenario ?control ~schedule ~policy ~rng:base ~round:r (),
        fc, cc )
    in
    let results =
      Checkpoint.map_indices ?session:checkpoint ?should_stop
        ?on_stats:(stats_for label) ~section ~encode:(encode_arm ~contained)
        ~decode:(decode_arm ~contained) ~jobs ~n:rounds ~f:one_round ()
    in
    let fcounters = Fault_injector.fresh_counters () in
    let ccounters = Containment.fresh_counters () in
    Array.iter
      (fun (_, fc, cc) ->
        Fault_injector.add_counters ~into:fcounters fc;
        Option.iter (fun c -> Containment.add_counters ~into:ccounters c) cc)
      results;
    { label;
      summary = Runner.summarize (Array.map (fun (r, _, _) -> r) results);
      faults = fcounters;
      containment = (if contained then Some ccounters else None) }
  in
  let clean =
    Span.with_ ~name:"arm:fault-free" (fun () ->
        let one_round r =
          Runner.round ?dist ~schedule ~policy ~rng:base ~round:r ()
        in
        let results =
          Checkpoint.map_indices ?session:checkpoint ?should_stop
            ?on_stats:(stats_for "fault-free") ~section:"clean"
            ~encode:round_fields ~decode:decode_round ~jobs ~n:rounds
            ~f:one_round ()
        in
        let summary = Runner.summarize results in
        Runner.record_metrics summary;
        summary)
  in
  let faulty = arm "faults" ~section:"faults" ~contained:false in
  let contained = arm "faults + containment" ~section:"contained" ~contained:true in
  { clean; faulty; contained; spec; rounds }

let to_table r =
  let t =
    Table.create
      ~header:
        [ "run"; "misses"; "shed"; "escalated"; "overruns"; "jitters"; "denials";
          "mean"; "p95"; "p99" ]
  in
  let row label (s : Runner.summary) (f : Fault_injector.counters option)
      (c : Containment.counters option) =
    Table.add_row t
      [ label;
        string_of_int s.Runner.deadline_misses;
        string_of_int s.Runner.shed_instances;
        (match c with
        | None -> "-"
        | Some c -> string_of_int c.Containment.escalated_instances);
        (match f with
        | None -> "-"
        | Some f -> string_of_int f.Fault_injector.overruns);
        (match f with
        | None -> "-"
        | Some f -> string_of_int f.Fault_injector.jitters);
        (match f with
        | None -> "-"
        | Some f -> string_of_int f.Fault_injector.denials);
        Table.float_cell s.Runner.mean_energy;
        Table.float_cell s.Runner.p95_energy;
        Table.float_cell s.Runner.p99_energy ]
  in
  row "fault-free" r.clean None None;
  row r.faulty.label r.faulty.summary (Some r.faulty.faults) None;
  row r.contained.label r.contained.summary (Some r.contained.faults)
    r.contained.containment;
  t
