(** Solve-job requests for the scheduling service.

    One request per line, as a {e flat} JSON object (NDJSON). The
    parser is deliberately minimal — string and number fields only, no
    nesting — because the service's wire format is under our control
    and the toolchain has no JSON dependency:

    {v
      {"id": "cnc-1", "ratio": 0.3, "rounds": 100}
      {"id": "rnd-7", "tasks": 8, "ratio": 0.5, "seed": 42}
    v}

    Unknown fields are rejected (a typo must not silently change a
    job), as are duplicate fields, values out of range, raw bytes
    below 0x20 inside a string (JSON admits them only escaped; the
    parser reads the escapes [\n] and [\t]) and strings that are not
    well-formed UTF-8 — malformed lines are shed at admission and
    counted, never guessed at. A reason shows any byte outside
    printable ASCII as [0xNN], so the report stays UTF-8. *)

type t = {
  id : string;  (** request identifier, echoed in the response *)
  tasks : int;
      (** task count for a {!Lepts_workloads.Random_gen} set;
          [0] (default) solves the CNC controller set *)
  ratio : float;  (** BCEC/WCEC ratio, in [[0, 1]]; default 0.1 *)
  seed : int;  (** generation/simulation seed; default 0 *)
  rounds : int;
      (** post-solve simulation rounds; [0] (default) = solve only *)
  budget_ms : int option;
      (** end-to-end deadline, in milliseconds, charged from arrival:
          time spent queued counts against it (a request that expires
          while queued is shed with status [expired], never
          dispatched), and the remainder is the wall cap applied to
          each NLP stage of the solve pipeline *)
  acs_max_outer : int option;
      (** override for the ACS stage's outer-iteration budget; [0]
          fails the stage deterministically (the fault-injection hook
          the breaker tests use) *)
}

val of_json : string -> (t, string) result
(** Parse one NDJSON line. [Error] carries a human-readable reason
    naming the offending field. *)

val to_json : t -> string
(** Canonical one-line re-encoding (defaults omitted); [of_json] of
    the result round-trips. *)
