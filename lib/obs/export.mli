(** Machine-readable run reports: JSON, CSV and Prometheus text.

    A {!report} bundles everything one experiment run observed — a
    metrics snapshot, the merged span profile and the captured solver
    telemetry — and the exporters below serialise it without any
    external dependency. All three are pure functions of the report, so
    equal reports give byte-equal output (the golden tests rely on
    this). Non-finite floats are emitted as [null] in JSON and [NaN]
    in Prometheus text. *)

type report = {
  command : string;  (** e.g. ["fig6a"] *)
  argv : string list;  (** the invocation, for provenance *)
  elapsed_s : float;  (** wall clock of the whole run *)
  metrics : Metrics.sample list;
  spans : Span.agg list;
  solves : Telemetry.solve list;
  dropped_solves : int;
      (** solves that ran uncaptured because the collector was full *)
}

val report :
  command:string ->
  ?argv:string list ->
  elapsed_s:float ->
  metrics:Metrics.t ->
  ?telemetry:Telemetry.collector ->
  unit ->
  report
(** Snapshot [metrics] and the global span profile ({!Span.report})
    into a report. Call after all pools have joined. *)

val json_escape : string -> string
(** [s] ready to sit between the quotes of a JSON string: ['"'] and
    ['\\'] are backslash-escaped, and so is every byte below 0x20
    ([\n], [\r] and [\t] by name, the rest as [\u00XX]), since JSON
    forbids them raw. The serve report, the request encoder and the
    solver bench use it too. *)

val to_json : report -> string
(** The full report as one JSON object (schema
    ["lepts-obs-report/1"]): metrics (with histogram buckets), span
    aggregates, and per-solve / per-start convergence records. *)

val convergence_csv : report -> string
(** One row per captured convergence record:
    [solve,start,outer,iteration,objective,step,step_norm,backtracks,projections]
    — the file to hand a plotting script. *)

val to_prometheus : report -> string
(** Prometheus text exposition of the metrics snapshot, plus the span
    profile as synthetic [lepts_span_seconds_total] /
    [lepts_span_count] families labelled by path. *)
