module Rng = Lepts_prng.Xoshiro256

let log_src = Logs.Src.create "lepts.serve.chaos" ~doc:"service chaos harness"

module Log = (val Logs.src_log log_src : Logs.LOG)

type profile = {
  seed : int;
  crash_prob : float;
  slow_prob : float;
  slow_ms : int;
  drop_prob : float;
  corrupt_snapshot : bool;
  cut_prob : float;
  stall_prob : float;
  stall_ms : int;
  flip_prob : float;
}

let zero =
  { seed = 2005; crash_prob = 0.; slow_prob = 0.; slow_ms = 1; drop_prob = 0.;
    corrupt_snapshot = false; cut_prob = 0.; stall_prob = 0.; stall_ms = 1;
    flip_prob = 0. }

(* Per-field validation in the Fault_injector style: probabilities are
   checked with a negated [>=]-conjunction so NaN fails every check
   instead of slipping through a naive [p < 0. || p > 1.]. *)
let validate p =
  let reject field value rule =
    invalid_arg
      (Printf.sprintf "Chaos: %s = %s must be %s" field value rule)
  in
  let prob field v =
    if not (v >= 0. && v <= 1.) then
      reject field (string_of_float v) "in [0, 1]"
  in
  prob "crash" p.crash_prob;
  prob "slow" p.slow_prob;
  prob "drop" p.drop_prob;
  prob "cut" p.cut_prob;
  prob "stall" p.stall_prob;
  prob "flip" p.flip_prob;
  if p.slow_ms < 0 then reject "slow-ms" (string_of_int p.slow_ms) ">= 0";
  if p.stall_ms < 0 then reject "stall-ms" (string_of_int p.stall_ms) ">= 0"

(* Profile strings: comma-separated [key=value] pairs, e.g.
   ["crash=0.2,slow=0.1,slow-ms=2,drop=0.1,corrupt=1,seed=7"]. *)
let of_string s =
  let parse_field acc pair =
    match acc with
    | Error _ as e -> e
    | Ok p -> (
      match String.index_opt pair '=' with
      | None ->
        Error (Printf.sprintf "chaos profile: %S is not a key=value pair" pair)
      | Some i -> (
        let k = String.sub pair 0 i in
        let v = String.sub pair (i + 1) (String.length pair - i - 1) in
        let float_v () =
          match float_of_string_opt v with
          | Some f -> Ok f
          | None ->
            Error
              (Printf.sprintf "chaos profile: %s = %S is not a number" k v)
        in
        let int_v () =
          match int_of_string_opt v with
          | Some n -> Ok n
          | None ->
            Error
              (Printf.sprintf "chaos profile: %s = %S is not an integer" k v)
        in
        match k with
        | "seed" -> Result.map (fun n -> { p with seed = n }) (int_v ())
        | "crash" -> Result.map (fun f -> { p with crash_prob = f }) (float_v ())
        | "slow" -> Result.map (fun f -> { p with slow_prob = f }) (float_v ())
        | "slow-ms" -> Result.map (fun n -> { p with slow_ms = n }) (int_v ())
        | "drop" -> Result.map (fun f -> { p with drop_prob = f }) (float_v ())
        | "corrupt" ->
          Result.map
            (fun n -> { p with corrupt_snapshot = n <> 0 })
            (int_v ())
        | "cut" -> Result.map (fun f -> { p with cut_prob = f }) (float_v ())
        | "stall" -> Result.map (fun f -> { p with stall_prob = f }) (float_v ())
        | "stall-ms" -> Result.map (fun n -> { p with stall_ms = n }) (int_v ())
        | "flip" -> Result.map (fun f -> { p with flip_prob = f }) (float_v ())
        | _ -> Error (Printf.sprintf "chaos profile: unknown key %S" k)))
  in
  if String.trim s = "" then Error "chaos profile: empty"
  else
    match
      List.fold_left parse_field (Ok zero)
        (String.split_on_char ',' (String.trim s))
    with
    | Error _ as e -> e
    | Ok p -> (
      match validate p with
      | () -> Ok p
      | exception Invalid_argument msg -> Error msg)

type t = {
  profile : profile;
  rng : Rng.t;  (* never advanced: children are derived with split_key *)
  crashes : int Atomic.t;
  slowed : int Atomic.t;
  dropped : int Atomic.t;
  cuts : int Atomic.t;
  stalls : int Atomic.t;
  flips : int Atomic.t;
}

let create ~profile =
  validate profile;
  { profile; rng = Rng.create ~seed:profile.seed;
    crashes = Atomic.make 0; slowed = Atomic.make 0; dropped = Atomic.make 0;
    cuts = Atomic.make 0; stalls = Atomic.make 0; flips = Atomic.make 0 }

let profile t = t.profile

(* FNV-1a of a decision tag, reduced to a non-negative int: the
   split_key key. Every injection decision is a pure function of
   (profile.seed, tag) — independent of arrival order, worker domain
   and core count — so a fixed-seed chaos run is reproducible. *)
let fnv tag =
  (* Mask to 62 bits: [logand max_int] can still exceed OCaml's native
     int range, and a negative key would crash the modulo users. *)
  Int64.to_int
    (Int64.logand (Lepts_robust.Checkpoint.fnv1a tag) 0x3FFFFFFFFFFFFFFFL)

let draw t tag = Rng.float (Rng.split_key t.rng ~key:(fnv tag))

(* Drop injection: requests vanish before admission, as if the network
   ate them. Keyed by line index so the decision survives any change
   to the line's content. *)
let drop_line t ~index =
  t.profile.drop_prob > 0.
  && draw t (Printf.sprintf "drop:%d" index) < t.profile.drop_prob
  && begin
       Atomic.incr t.dropped;
       Log.info (fun f -> f "chaos: dropped request line %d" (index + 1));
       true
     end

(* Transport ingress injections. Decisions are keyed by the arrival
   sequence number — the same key the journal records — so a fixed-seed
   run injects the same transport faults whatever the socket timing
   was, and the offline journal replay (which carries the post-fault
   arrivals) never re-injects them. *)

(* Connection cut mid-line: [Some k] truncates the line to its first
   [k] bytes (at least one survives, so the partial-line path sees
   actual debris) and the transport must treat the connection as
   dropped by the peer. *)
let cut_line t ~seq ~len =
  if t.profile.cut_prob <= 0. || len < 2 then None
  else if draw t (Printf.sprintf "cut:%d" seq) >= t.profile.cut_prob then None
  else begin
    let at = 1 + (fnv (Printf.sprintf "cut-at:%d" seq) mod (len - 1)) in
    Atomic.incr t.cuts;
    Log.info (fun f ->
        f "chaos: cut connection mid-line at arrival %d, byte %d/%d" seq at len);
    Some at
  end

(* Slow client: the transport sleeps [stall_ms] before consuming the
   arrival, exercising the read-timeout bookkeeping without mocking
   the clock. *)
let stall t ~seq =
  if t.profile.stall_prob <= 0. then None
  else if draw t (Printf.sprintf "stall:%d" seq) >= t.profile.stall_prob then
    None
  else begin
    Atomic.incr t.stalls;
    Some t.profile.stall_ms
  end

(* Spool-file corruption: flip one bit of the file contents before the
   transport parses it, keyed by the file's basename. The damaged line
   must then fail request parsing (or framing) through the real
   rejection path. *)
let flip_spool t ~name contents =
  let len = String.length contents in
  if t.profile.flip_prob <= 0. || len = 0 then contents
  else if draw t ("flip:" ^ name) >= t.profile.flip_prob then contents
  else begin
    let pos = fnv ("flip-at:" ^ name) mod len in
    let bytes = Bytes.of_string contents in
    Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x01));
    Atomic.incr t.flips;
    Log.warn (fun f ->
        f "chaos: flipped a bit of spool file %s at offset %d" name pos);
    Bytes.to_string bytes
  end

(* Worker-side injection, composed into the service's [before_solve]
   hook: runs on the worker domain, so counters are atomic and draws
   use only the domain-safe [split_key]. A crash here exercises the
   supervision loop exactly like a real worker exception. *)
let before_solve t ~attempt (req : Request.t) =
  if t.profile.slow_prob > 0. then begin
    let tag = Printf.sprintf "slow:%s:%d" req.Request.id attempt in
    if draw t tag < t.profile.slow_prob then begin
      Atomic.incr t.slowed;
      Unix.sleepf (float_of_int t.profile.slow_ms /. 1000.)
    end
  end;
  if t.profile.crash_prob > 0. then begin
    let tag = Printf.sprintf "crash:%s:%d" req.Request.id attempt in
    if draw t tag < t.profile.crash_prob then begin
      Atomic.incr t.crashes;
      failwith
        (Printf.sprintf "chaos: injected worker crash (%s, attempt %d)"
           req.Request.id attempt)
    end
  end

(* Snapshot corruption: flip one bit of the file at a seed-keyed
   offset. The daemon then re-loads the snapshot and must refuse it —
   the checksum check is the thing under test. *)
let corrupt_file t ~path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    contents
  with
  | exception Sys_error msg -> Error msg
  | contents when String.length contents = 0 -> Error (path ^ ": empty file")
  | contents ->
    let len = String.length contents in
    let pos = fnv (Printf.sprintf "corrupt:%d" t.profile.seed) mod len in
    let bytes = Bytes.of_string contents in
    Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x01));
    let tmp = path ^ ".chaos" in
    let oc = open_out_bin tmp in
    output_bytes oc bytes;
    close_out oc;
    Sys.rename tmp path;
    Log.warn (fun f -> f "chaos: flipped a bit of %s at offset %d" path pos);
    Ok pos

let report_json t ~snapshot =
  Printf.sprintf
    "{\"chaos\":{\"seed\":%d,\"crashes\":%d,\"slowed\":%d,\"dropped\":%d,\
     \"cuts\":%d,\"stalls\":%d,\"flips\":%d,\"snapshot\":\"%s\"}}"
    t.profile.seed (Atomic.get t.crashes) (Atomic.get t.slowed)
    (Atomic.get t.dropped) (Atomic.get t.cuts) (Atomic.get t.stalls)
    (Atomic.get t.flips) snapshot
