module Pool = Lepts_par.Pool
module Metrics = Lepts_obs.Metrics

let magic = "lepts-checkpoint"
let snapshot_version = 1

exception Drained

(* Resume/save accounting in the default registry: a resumed run is
   visible in the exported metrics (tentpole requirement — every
   recovery action is counted). *)
let m_saves =
  Metrics.counter ~help:"checkpoint snapshots written" Metrics.default
    "lepts_checkpoint_saves_total"

let m_resumed =
  Metrics.counter ~help:"work units reused from a checkpoint instead of recomputed"
    Metrics.default "lepts_checkpoint_entries_resumed_total"

(* --- FNV-1a 64-bit -------------------------------------------------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let fnv1a s =
  let h = ref fnv_offset in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let hex64 h = Printf.sprintf "%016Lx" h

let fingerprint ~parts = hex64 (fnv1a (String.concat "\n" parts))

(* --- snapshot framing ------------------------------------------------------ *)

module Snapshot = struct
  (* Shared on-disk framing for every snapshot family in the tree
     (checkpoints here, the serve-layer schedule cache): a magic/version
     header, a fingerprint of the parameters that wrote the file, free-
     form body lines, and a checksum trailer covering every preceding
     byte. Each validation failure names the check that tripped —
     magic, version, checksum or fingerprint — because "corrupt file"
     tells an operator nothing about whether they pointed a run at the
     wrong artifact or the disk tore a write. *)

  type check = Magic | Version | Checksum | Fingerprint

  let check_name = function
    | Magic -> "magic"
    | Version -> "version"
    | Checksum -> "checksum"
    | Fingerprint -> "fingerprint"

  let fail ~path check fmt =
    Printf.ksprintf
      (fun m ->
        Error (Printf.sprintf "%s: %s check failed: %s" path (check_name check) m))
      fmt

  let render ~magic ~version ~fingerprint ~body =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Printf.sprintf "%s/%d\n" magic version);
    Buffer.add_string buf ("fingerprint " ^ fingerprint ^ "\n");
    List.iter
      (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      body;
    let payload = Buffer.contents buf in
    payload ^ "checksum " ^ hex64 (fnv1a payload) ^ "\n"

  let write ~path contents =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path

  let parse ~path ~magic ~version contents =
    let fail check fmt = fail ~path check fmt in
    match String.split_on_char '\n' contents with
    | [] | [ "" ] -> fail Magic "empty file"
    | header :: rest -> (
      let expected = Printf.sprintf "%s/%d" magic version in
      match String.rindex_opt header '/' with
      | None -> fail Magic "missing %S header, found %S" expected header
      | Some slash ->
        let file_magic = String.sub header 0 slash in
        let file_version =
          String.sub header (slash + 1) (String.length header - slash - 1)
        in
        if file_magic <> magic then
          fail Magic "expected a %s snapshot, found %S" magic header
        else if file_version <> string_of_int version then
          fail Version "unsupported version %S (expected %d)" file_version version
        else (
          (* The checksum line covers every byte before it, including
             the trailing newline of the last body line. *)
          match List.rev rest with
          | "" :: checksum_line :: body_rev -> (
            match String.split_on_char ' ' checksum_line with
            | [ "checksum"; given ] -> (
              let payload =
                String.concat "\n" (header :: List.rev body_rev) ^ "\n"
              in
              let computed = hex64 (fnv1a payload) in
              if computed <> given then
                fail Checksum "stored %s, computed %s (file corrupt or truncated)"
                  given computed
              else
                match List.rev body_rev with
                | fp_line :: body -> (
                  match String.split_on_char ' ' fp_line with
                  | [ "fingerprint"; fp ] -> Ok (fp, body)
                  | _ -> fail Fingerprint "missing fingerprint line")
                | [] -> fail Fingerprint "missing fingerprint line")
            | _ -> fail Checksum "missing checksum trailer (file truncated?)")
          | _ -> fail Checksum "missing checksum trailer (file truncated?)"))

  let read ~path ~magic ~version =
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> parse ~path ~magic ~version contents
    | exception Sys_error msg ->
      (* A failed open names the path; a failed read (a directory, say)
         does not. *)
      if String.starts_with ~prefix:(path ^ ": ") msg then Error msg
      else Error (path ^ ": " ^ msg)

  let mismatch ~path ~file_fp ~run_fp =
    Printf.sprintf
      "%s: fingerprint check failed: snapshot fingerprint %s does not match \
       this run (%s) — the run parameters differ from the ones that wrote it"
      path file_fp run_fp
end

let hash_floats a =
  let h = ref fnv_offset in
  Array.iter
    (fun x ->
      let bits = Int64.bits_of_float x in
      for byte = 0 to 7 do
        h :=
          fnv_byte !h
            (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * byte)) 0xffL))
      done)
    a;
  hex64 !h

(* --- field codecs --------------------------------------------------------- *)

let float_field x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let float_of_field s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Int64.float_of_bits bits
  | None -> failwith (Printf.sprintf "Checkpoint: malformed float field %S" s)

(* --- store ---------------------------------------------------------------- *)

type session = {
  path : string;
  fp : string;
  entries : (string * int, string list) Hashtbl.t;
}

let entries t ~section =
  Hashtbl.fold (fun (s, _) _ acc -> if s = section then acc + 1 else acc) t.entries 0

let token_ok s =
  s <> ""
  && String.for_all (fun c -> c <> ' ' && c <> '\n' && c <> '\r' && c <> '\t') s

let render t =
  let sorted =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.entries [])
  in
  let body =
    List.map
      (fun ((section, key), fields) ->
        Printf.sprintf "entry %s %d %s" section key (String.concat " " fields))
      sorted
  in
  Snapshot.render ~magic ~version:snapshot_version ~fingerprint:t.fp ~body

let save t =
  Snapshot.write ~path:t.path (render t);
  Metrics.incr m_saves

let parse_entries ~path body =
  let entries = Hashtbl.create 256 in
  let bad = ref None in
  List.iter
    (fun line ->
      if !bad = None then
        match String.split_on_char ' ' line with
        | "entry" :: section :: key :: fields -> (
          match int_of_string_opt key with
          | Some k -> Hashtbl.replace entries (section, k) fields
          | None -> bad := Some line)
        | _ -> bad := Some line)
    body;
  match !bad with
  | Some line -> Error (Printf.sprintf "%s: malformed line %S" path line)
  | None -> Ok entries

let start ~path ~resume ~fingerprint:fp =
  if not (Sys.file_exists path) then
    if resume then Error (path ^ ": no checkpoint to resume")
    else Ok { path; fp; entries = Hashtbl.create 256 }
  else
    match Snapshot.read ~path ~magic ~version:snapshot_version with
    | Error _ as e -> e
    | Ok (file_fp, body) ->
      if file_fp <> fp then
        Error (Snapshot.mismatch ~path ~file_fp ~run_fp:fp)
      else
        Result.map (fun entries -> { path; fp; entries }) (parse_entries ~path body)

(* --- resumable index driver ----------------------------------------------- *)

let map_indices ?session ?(chunk = 50) ?(should_stop = fun () -> false) ?on_stats
    ~section ~encode ~decode ~jobs ~n ~f () =
  if chunk <= 0 then invalid_arg "Checkpoint.map_indices: chunk must be positive";
  if not (token_ok section) then
    invalid_arg "Checkpoint.map_indices: section must be a whitespace-free token";
  let out = Array.make n None in
  (match session with
  | None -> ()
  | Some t ->
    for i = 0 to n - 1 do
      match Hashtbl.find_opt t.entries (section, i) with
      | None -> ()
      | Some fields ->
        out.(i) <- Some (decode fields);
        Metrics.incr m_resumed
    done);
  let missing = ref [] in
  for i = n - 1 downto 0 do
    if out.(i) = None then missing := i :: !missing
  done;
  let missing = Array.of_list !missing in
  let total = Array.length missing in
  let record lo hi =
    (* Indices [lo, hi) of [missing] just computed: stash in the store
       and snapshot, so a crash loses at most one chunk. *)
    match session with
    | None -> ()
    | Some t ->
      for k = lo to hi - 1 do
        let i = missing.(k) in
        let fields = encode (Option.get out.(i)) in
        if not (List.for_all token_ok fields) then
          invalid_arg "Checkpoint.map_indices: encoded fields must be non-empty tokens";
        Hashtbl.replace t.entries (section, i) fields
      done;
      save t
  in
  let drain () =
    Option.iter save session;
    raise Drained
  in
  if should_stop () && total > 0 then drain ();
  let pos = ref 0 in
  while !pos < total do
    let hi = min total (!pos + if session = None then total else chunk) in
    let lo = !pos in
    let results, stats = Pool.run ~jobs ~n:(hi - lo) ~f:(fun k -> f missing.(lo + k)) in
    Array.iteri (fun k r -> out.(missing.(lo + k)) <- Some r) results;
    Option.iter (fun g -> g stats) on_stats;
    record lo hi;
    pos := hi;
    if should_stop () && !pos < total then drain ()
  done;
  Array.map Option.get out
