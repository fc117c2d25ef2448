type t = {
  id : string;
  tasks : int;
  ratio : float;
  seed : int;
  rounds : int;
  budget_ms : int option;
  acs_max_outer : int option;
}

exception Bad of string

(* A byte as a diagnostic shows it: quoted when printable ASCII, else
   0xNN, so a reason echoed into the report stays valid UTF-8. *)
let show_byte c =
  if c >= ' ' && c <= '~' then Printf.sprintf "'%c'" c
  else Printf.sprintf "0x%02x" (Char.code c)

(* A strict parser for one flat JSON object — the only shape the wire
   format admits. Strictness is the point: a typoed key or an
   out-of-range value must reject the request at admission, not mutate
   the job it describes. *)
let of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let err fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some d when d = c -> incr pos
    | Some d -> err "expected '%c' at position %d, found %s" c !pos (show_byte d)
    | None -> err "expected '%c' at position %d, found end of line" c !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      match line.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then err "unterminated escape";
        (match line.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | c -> err "unsupported escape: backslash then %s" (show_byte c));
        incr pos;
        go ()
      | c when Char.code c < 0x20 ->
        err "raw control byte 0x%02x in string at position %d" (Char.code c) !pos
      | c when Char.code c >= 0x80 ->
        let d = String.get_utf_8_uchar line !pos in
        if not (Uchar.utf_decode_is_valid d) then
          err "malformed UTF-8 in string at position %d" !pos;
        let len = Uchar.utf_decode_length d in
        Buffer.add_string buf (String.sub line !pos len);
        pos := !pos + len;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number ~field =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && (match line.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then err "field %S: expected a number at position %d" field start;
    let s = String.sub line start (!pos - start) in
    match float_of_string_opt s with
    | Some f -> f
    | None -> err "field %S: malformed number %S" field s
  in
  let int_of ~field v =
    if Float.is_integer v && Float.abs v <= 1e9 then int_of_float v
    else err "field %S: expected an integer, got %s" field (string_of_float v)
  in
  let id = ref None and tasks = ref None and ratio = ref None in
  let seed = ref None and rounds = ref None in
  let budget_ms = ref None and acs_max_outer = ref None in
  let set slot ~field v =
    match !slot with
    | Some _ -> err "duplicate field %S" field
    | None -> slot := Some v
  in
  try
    expect '{';
    skip_ws ();
    (if peek () = Some '}' then incr pos
     else
       let rec members () =
         let key = parse_string () in
         expect ':';
         (match key with
         | "id" -> set id ~field:key (parse_string ())
         | "tasks" -> set tasks ~field:key (int_of ~field:key (parse_number ~field:key))
         | "ratio" -> set ratio ~field:key (parse_number ~field:key)
         | "seed" -> set seed ~field:key (int_of ~field:key (parse_number ~field:key))
         | "rounds" ->
           set rounds ~field:key (int_of ~field:key (parse_number ~field:key))
         | "budget_ms" ->
           set budget_ms ~field:key (int_of ~field:key (parse_number ~field:key))
         | "acs_max_outer" ->
           set acs_max_outer ~field:key
             (int_of ~field:key (parse_number ~field:key))
         | other -> err "unknown field %S" other);
         skip_ws ();
         match peek () with
         | Some ',' ->
           incr pos;
           skip_ws ();
           members ()
         | Some '}' -> incr pos
         | Some c ->
           err "expected ',' or '}' at position %d, found %s" !pos (show_byte c)
         | None -> err "unterminated object"
       in
       members ());
    skip_ws ();
    if !pos <> n then err "trailing input after object at position %d" !pos;
    let id =
      match !id with
      | None -> err "missing required field \"id\""
      | Some "" -> err "field \"id\": must be non-empty"
      | Some s -> s
    in
    let tasks = Option.value !tasks ~default:0 in
    if tasks < 0 || tasks > 64 then
      err "field \"tasks\": %d out of range [0, 64]" tasks;
    let ratio = Option.value !ratio ~default:0.1 in
    if not (Float.is_finite ratio) || ratio < 0. || ratio > 1. then
      err "field \"ratio\": %s out of range [0, 1]" (string_of_float ratio);
    let seed = Option.value !seed ~default:0 in
    let rounds = Option.value !rounds ~default:0 in
    if rounds < 0 then err "field \"rounds\": %d must be >= 0" rounds;
    Option.iter
      (fun b -> if b <= 0 then err "field \"budget_ms\": %d must be > 0" b)
      !budget_ms;
    Option.iter
      (fun m -> if m < 0 then err "field \"acs_max_outer\": %d must be >= 0" m)
      !acs_max_outer;
    Ok
      { id; tasks; ratio; seed; rounds; budget_ms = !budget_ms;
        acs_max_outer = !acs_max_outer }
  with Bad msg -> Error msg

(* Shortest decimal rendering that parses back to the exact same
   IEEE-754 value: [%g] alone loses bits (e.g. 0.1 +. 0.2), which
   would break the of_json∘to_json round-trip the cache key relies
   on. *)
let float_json x =
  let exact s = float_of_string s = x in
  let g = Printf.sprintf "%g" x in
  if exact g then g
  else
    let p15 = Printf.sprintf "%.15g" x in
    if exact p15 then p15 else Printf.sprintf "%.17g" x

let to_json r =
  let fields = ref [] in
  let add s = fields := s :: !fields in
  add (Printf.sprintf "\"id\":\"%s\"" (Lepts_obs.Export.json_escape r.id));
  if r.tasks <> 0 then add (Printf.sprintf "\"tasks\":%d" r.tasks);
  if r.ratio <> 0.1 then add (Printf.sprintf "\"ratio\":%s" (float_json r.ratio));
  if r.seed <> 0 then add (Printf.sprintf "\"seed\":%d" r.seed);
  if r.rounds <> 0 then add (Printf.sprintf "\"rounds\":%d" r.rounds);
  Option.iter (fun b -> add (Printf.sprintf "\"budget_ms\":%d" b)) r.budget_ms;
  Option.iter
    (fun m -> add (Printf.sprintf "\"acs_max_outer\":%d" m))
    r.acs_max_outer;
  "{" ^ String.concat "," (List.rev !fields) ^ "}"
