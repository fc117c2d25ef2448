type report = {
  command : string;
  argv : string list;
  elapsed_s : float;
  metrics : Metrics.sample list;
  spans : Span.agg list;
  solves : Telemetry.solve list;
  dropped_solves : int;
}

let report ~command ?(argv = []) ~elapsed_s ~metrics ?telemetry () =
  let solves, dropped_solves =
    match telemetry with
    | None -> ([], 0)
    | Some c -> (Telemetry.solves c, Telemetry.dropped c)
  in
  {
    command;
    argv;
    elapsed_s;
    metrics = Metrics.snapshot metrics;
    spans = Span.report ();
    solves;
    dropped_solves;
  }

(* JSON helpers — same conventions as bench/main.ml: shortest
   round-trippable floats, non-finite values as null. *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_string b s =
  Buffer.add_char b '"';
  Buffer.add_string b (json_escape s);
  Buffer.add_char b '"'

let add_float b v =
  if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
  else Buffer.add_string b "null"

let add_list b xs add =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    xs;
  Buffer.add_char b ']'

let add_labels b labels =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_string b k;
      Buffer.add_char b ':';
      add_string b v)
    labels;
  Buffer.add_char b '}'

let add_metric b (s : Metrics.sample) =
  Buffer.add_string b "{\"name\":";
  add_string b s.name;
  Buffer.add_string b ",\"labels\":";
  add_labels b s.labels;
  if s.help <> "" then begin
    Buffer.add_string b ",\"help\":";
    add_string b s.help
  end;
  (match s.value with
  | Metrics.Counter_v v ->
    Buffer.add_string b ",\"kind\":\"counter\",\"value\":";
    Buffer.add_string b (string_of_int v)
  | Metrics.Gauge_v v ->
    Buffer.add_string b ",\"kind\":\"gauge\",\"value\":";
    add_float b v
  | Metrics.Histogram_v { upper; counts; sum; count } ->
    Buffer.add_string b ",\"kind\":\"histogram\",\"upper\":";
    add_list b (Array.to_list upper) add_float;
    Buffer.add_string b ",\"counts\":";
    add_list b (Array.to_list counts) (fun b c ->
        Buffer.add_string b (string_of_int c));
    Buffer.add_string b ",\"sum\":";
    add_float b sum;
    Buffer.add_string b ",\"count\":";
    Buffer.add_string b (string_of_int count));
  Buffer.add_char b '}'

let add_span b (a : Span.agg) =
  Buffer.add_string b "{\"path\":";
  add_string b a.path;
  Buffer.add_string b ",\"count\":";
  Buffer.add_string b (string_of_int a.count);
  Buffer.add_string b ",\"total_s\":";
  add_float b a.total_s;
  Buffer.add_string b ",\"max_s\":";
  add_float b a.max_s;
  Buffer.add_char b '}'

let add_record b (r : Telemetry.record) =
  Buffer.add_string b "{\"outer\":";
  Buffer.add_string b (string_of_int r.outer);
  Buffer.add_string b ",\"iteration\":";
  Buffer.add_string b (string_of_int r.iteration);
  Buffer.add_string b ",\"objective\":";
  add_float b r.objective;
  Buffer.add_string b ",\"step\":";
  add_float b r.step;
  Buffer.add_string b ",\"step_norm\":";
  add_float b r.step_norm;
  Buffer.add_string b ",\"backtracks\":";
  Buffer.add_string b (string_of_int r.backtracks);
  Buffer.add_string b ",\"projections\":";
  Buffer.add_string b (string_of_int r.projections);
  Buffer.add_char b '}'

let add_start b (st : Telemetry.start) =
  Buffer.add_string b "{\"start\":";
  Buffer.add_string b (string_of_int st.start_index);
  Buffer.add_string b ",\"outer_rounds\":";
  Buffer.add_string b (string_of_int st.outer_rounds);
  Buffer.add_string b ",\"inner_iterations\":";
  Buffer.add_string b (string_of_int st.inner_iterations);
  Buffer.add_string b ",\"final_objective\":";
  add_float b st.final_objective;
  (match st.failure with
  | None -> ()
  | Some msg ->
    Buffer.add_string b ",\"failure\":";
    add_string b msg);
  Buffer.add_string b ",\"records_seen\":";
  Buffer.add_string b (string_of_int (Telemetry.pushed st.s_ring));
  Buffer.add_string b ",\"records\":";
  add_list b (Telemetry.records st.s_ring) add_record;
  Buffer.add_char b '}'

let add_solve b (s : Telemetry.solve) =
  Buffer.add_string b "{\"label\":";
  add_string b s.label;
  Buffer.add_string b ",\"starts\":";
  add_list b (Array.to_list s.starts) add_start;
  Buffer.add_char b '}'

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"lepts-obs-report/1\",\"command\":";
  add_string b r.command;
  Buffer.add_string b ",\"argv\":";
  add_list b r.argv (fun b s -> add_string b s);
  Buffer.add_string b ",\"elapsed_s\":";
  add_float b r.elapsed_s;
  Buffer.add_string b ",\"metrics\":";
  add_list b r.metrics add_metric;
  Buffer.add_string b ",\"spans\":";
  add_list b r.spans add_span;
  Buffer.add_string b ",\"solves\":";
  add_list b r.solves add_solve;
  Buffer.add_string b ",\"dropped_solves\":";
  Buffer.add_string b (string_of_int r.dropped_solves);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* CSV: no quoting needed — solve labels never contain commas by
   construction, but escape defensively anyway by replacing commas. *)

let csv_field s =
  String.map (fun c -> if c = ',' || c = '\n' then ';' else c) s

let csv_float v = Printf.sprintf "%.17g" v

let convergence_csv r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "solve,start,outer,iteration,objective,step,step_norm,backtracks,projections\n";
  List.iter
    (fun (s : Telemetry.solve) ->
      Array.iter
        (fun (st : Telemetry.start) ->
          List.iter
            (fun (rec_ : Telemetry.record) ->
              Buffer.add_string b
                (Printf.sprintf "%s,%d,%d,%d,%s,%s,%s,%d,%d\n"
                   (csv_field s.label) st.start_index rec_.outer
                   rec_.iteration (csv_float rec_.objective)
                   (csv_float rec_.step) (csv_float rec_.step_norm)
                   rec_.backtracks rec_.projections))
            (Telemetry.records st.s_ring))
        s.starts)
    r.solves;
  Buffer.contents b

(* Prometheus text exposition format. *)

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

let prom_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
           labels)
    ^ "}"

let to_prometheus r =
  let b = Buffer.create 4096 in
  let seen_header = Hashtbl.create 16 in
  let header name kind help =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" name (prom_escape help));
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (s : Metrics.sample) ->
      match s.value with
      | Metrics.Counter_v v ->
        header s.name "counter" s.help;
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" s.name (prom_labels s.labels) v)
      | Metrics.Gauge_v v ->
        header s.name "gauge" s.help;
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" s.name (prom_labels s.labels)
             (prom_float v))
      | Metrics.Histogram_v { upper; counts; sum; count } ->
        header s.name "histogram" s.help;
        let cumulative = ref 0 in
        Array.iteri
          (fun i u ->
            cumulative := !cumulative + counts.(i);
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" s.name
                 (prom_labels (s.labels @ [ ("le", prom_float u) ]))
                 !cumulative))
          upper;
        cumulative := !cumulative + counts.(Array.length upper);
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" s.name
             (prom_labels (s.labels @ [ ("le", "+Inf") ]))
             !cumulative);
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" s.name (prom_labels s.labels)
             (prom_float sum));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" s.name (prom_labels s.labels)
             count))
    r.metrics;
  if r.spans <> [] then begin
    Buffer.add_string b "# TYPE lepts_span_seconds_total counter\n";
    List.iter
      (fun (a : Span.agg) ->
        Buffer.add_string b
          (Printf.sprintf "lepts_span_seconds_total{path=\"%s\"} %s\n"
             (prom_escape a.path) (prom_float a.total_s)))
      r.spans;
    Buffer.add_string b "# TYPE lepts_span_count counter\n";
    List.iter
      (fun (a : Span.agg) ->
        Buffer.add_string b
          (Printf.sprintf "lepts_span_count{path=\"%s\"} %d\n"
             (prom_escape a.path) a.count))
      r.spans
  end;
  Buffer.contents b
