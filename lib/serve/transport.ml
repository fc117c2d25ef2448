module Checkpoint = Lepts_robust.Checkpoint

let log_src =
  Logs.Src.create "lepts.serve.transport" ~doc:"serve ingress transports"

module Log = (val Logs.src_log log_src : Logs.LOG)

type arrival = {
  a_seq : int;
  a_at_ms : int;
  a_payload : (string, string) result;
}

type batch = {
  b_now_ms : int;
  b_arrivals : arrival list;
  b_closed : bool;
  b_drain : bool;
}

(* --- the arrival journal --------------------------------------------------- *)

module Journal = struct
  let magic = "lepts-arrivals"
  let version = 1

  type t = { mutable batches_rev : batch list; mutable count : int }

  let create () = { batches_rev = []; count = 0 }

  let record t b =
    t.batches_rev <- b :: t.batches_rev;
    t.count <- t.count + 1

  let batches t = t.count

  (* Journals pin no run parameters — the engine's determinism is a
     function of the recorded arrivals alone — so the fingerprint is a
     constant and only guards against handing the loader a different
     kind of snapshot. *)
  let fingerprint = Checkpoint.fingerprint ~parts:[ "lepts-arrivals" ]

  let body t =
    List.concat_map
      (fun b ->
        Printf.sprintf "batch %d %d %d" b.b_now_ms
          (if b.b_closed then 1 else 0)
          (if b.b_drain then 1 else 0)
        :: List.map
             (fun a ->
               match a.a_payload with
               | Ok line -> Printf.sprintf "ok %d %d %s" a.a_seq a.a_at_ms line
               | Error diag ->
                 Printf.sprintf "err %d %d %s" a.a_seq a.a_at_ms diag)
             b.b_arrivals)
      (List.rev t.batches_rev)

  let save t ~path =
    Checkpoint.Snapshot.write ~path
      (Checkpoint.Snapshot.render ~magic ~version ~fingerprint ~body:(body t))

  (* Body parsing for {!replay}: a [batch] line opens a batch, [ok] and
     [err] lines append arrivals to the open one. Splitting on spaces
     and re-joining the tail is lossless, so raw request lines with any
     internal spacing round-trip exactly. *)
  let parse_body ~path lines =
    let fail fmt =
      Printf.ksprintf (fun m -> Error (Printf.sprintf "%s: %s" path m)) fmt
    in
    let flush cur acc =
      match cur with
      | None -> acc
      | Some (b, arr_rev) -> { b with b_arrivals = List.rev arr_rev } :: acc
    in
    let rec go cur acc = function
      | [] -> Ok (List.rev (flush cur acc))
      | line :: rest -> (
        match String.split_on_char ' ' line with
        | [ "batch"; now; closed; drain ] -> (
          match
            (int_of_string_opt now, int_of_string_opt closed,
             int_of_string_opt drain)
          with
          | Some now, Some closed, Some drain
            when (closed = 0 || closed = 1) && (drain = 0 || drain = 1) ->
            let b =
              { b_now_ms = now; b_arrivals = []; b_closed = closed = 1;
                b_drain = drain = 1 }
            in
            go (Some (b, [])) (flush cur acc) rest
          | _ -> fail "malformed batch line %S" line)
        | (("ok" | "err") as tag) :: seq :: at :: (_ :: _ as payload) -> (
          match (cur, int_of_string_opt seq, int_of_string_opt at) with
          | Some (b, arr_rev), Some seq, Some at ->
            let payload = String.concat " " payload in
            let a =
              { a_seq = seq; a_at_ms = at;
                a_payload =
                  (if tag = "ok" then Ok payload else Error payload) }
            in
            go (Some (b, a :: arr_rev)) acc rest
          | None, _, _ -> fail "arrival line before any batch line: %S" line
          | _ -> fail "malformed arrival line %S" line)
        | _ -> fail "malformed line %S" line)
    in
    go None [] lines

  let load ~path =
    match Checkpoint.Snapshot.read ~path ~magic ~version with
    | Error _ as e -> e
    | Ok (file_fp, body) ->
      if file_fp <> fingerprint then
        Error (Checkpoint.Snapshot.mismatch ~path ~file_fp ~run_fp:fingerprint)
      else parse_body ~path body
end

(* --- live sources ---------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  cn : int;  (* connection number, for log lines *)
  buf : Buffer.t;
  mutable last_rx_ms : int;
}

type sock_state = {
  listen : Unix.file_descr;
  sock_path : string;
  mutable conns : conn list;  (* in accept order *)
}

type live_kind = Socket of sock_state | Spool of { dir : string; poll_ms : int }

type live = {
  kind : live_kind;
  read_timeout_ms : int;
  max_line_bytes : int;
  idle_exit_ms : int;
  chaos : Chaos.t option;
  t0 : float;
  mutable next_seq : int;  (* next arrival sequence number *)
  mutable next_line : int;  (* ingress lines seen (drop-injection key) *)
  mutable next_cn : int;
  mutable last_activity_ms : int;
  mutable l_closed : bool;
}

type source =
  | Lines of { mutable sent : bool; lines : string list }
  | Replay of { mutable rest : batch list; mutable last_now : int }
  | Live of live

let of_lines ?chaos lines =
  let lines =
    match chaos with
    | None -> lines
    | Some ch -> List.filteri (fun index _ -> not (Chaos.drop_line ch ~index)) lines
  in
  Lines { sent = false; lines }

let now_ms l = int_of_float ((Unix.gettimeofday () -. l.t0) *. 1000.)

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let is_blank line = String.trim line = ""

(* One complete ingress line: drop injection (keyed by the ingress line
   counter, before a sequence number is spent), then stall and cut
   injections (keyed by the sequence number the arrival will carry),
   then size check. Returns the arrivals accumulator (newest first) and
   whether a chaos cut killed the connection. *)
let ingest_line l acc line =
  let line = strip_cr line in
  if is_blank line then (acc, false)
  else begin
    let index = l.next_line in
    l.next_line <- l.next_line + 1;
    match l.chaos with
    | Some ch when Chaos.drop_line ch ~index -> (acc, false)
    | chaos ->
      let seq = l.next_seq in
      l.next_seq <- seq + 1;
      Option.iter
        (fun ch ->
          Option.iter
            (fun ms -> Unix.sleepf (float_of_int ms /. 1000.))
            (Chaos.stall ch ~seq))
        chaos;
      let at = now_ms l in
      let cut =
        Option.bind chaos (fun ch ->
            Chaos.cut_line ch ~seq ~len:(String.length line))
      in
      (match cut with
      | Some k ->
        ( { a_seq = seq; a_at_ms = at;
            a_payload =
              Error
                (Printf.sprintf "connection closed mid-line after %d bytes" k) }
          :: acc,
          true )
      | None ->
        if String.length line > l.max_line_bytes then
          ( { a_seq = seq; a_at_ms = at;
              a_payload =
                Error
                  (Printf.sprintf "oversized line: %d bytes exceeds limit %d"
                     (String.length line) l.max_line_bytes) }
            :: acc,
            false )
        else
          ({ a_seq = seq; a_at_ms = at; a_payload = Ok line } :: acc, false))
  end

(* A transport-level rejection that still consumes a sequence number —
   partial line at disconnect, read timeout, unframable oversized
   buffer. Replayed as [err] journal lines. *)
let reject_arrival l acc diag =
  let seq = l.next_seq in
  l.next_seq <- seq + 1;
  { a_seq = seq; a_at_ms = now_ms l; a_payload = Error diag } :: acc

(* --- socket ---------------------------------------------------------------- *)

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Pull every complete line out of a connection's buffer. *)
let drain_conn_buffer l conn acc =
  let contents = Buffer.contents conn.buf in
  Buffer.clear conn.buf;
  let n = String.length contents in
  let acc = ref acc and start = ref 0 and cut = ref false in
  (try
     for i = 0 to n - 1 do
       if contents.[i] = '\n' then begin
         let line = String.sub contents !start (i - !start) in
         start := i + 1;
         let acc', killed = ingest_line l !acc line in
         acc := acc';
         if killed then begin
           cut := true;
           raise Exit
         end
       end
     done
   with Exit -> ());
  if not !cut && !start < n then
    Buffer.add_substring conn.buf contents !start (n - !start);
  (!acc, !cut)

let socket_poll l s ~slice =
  let acc = ref [] in
  let fds = s.listen :: List.map (fun c -> c.fd) s.conns in
  let readable =
    match Unix.select fds [] [] slice with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let now = now_ms l in
  (* Accept every queued connection. *)
  if List.mem s.listen readable then begin
    let rec accept_all () =
      match Unix.accept ~cloexec:true s.listen with
      | fd, _ ->
        Unix.set_nonblock fd;
        let cn = l.next_cn in
        l.next_cn <- cn + 1;
        l.last_activity_ms <- now;
        Log.info (fun f -> f "socket: accepted connection %d" cn);
        s.conns <-
          s.conns @ [ { fd; cn; buf = Buffer.create 256; last_rx_ms = now } ];
        accept_all ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (e, _, _) ->
        Log.warn (fun f -> f "socket: accept failed: %s" (Unix.error_message e))
    in
    accept_all ()
  end;
  (* Read the ready connections, in accept order. *)
  let chunk = Bytes.create 4096 in
  let keep =
    List.filter_map
      (fun conn ->
        let ready = List.mem conn.fd readable in
        let closed = ref false in
        if ready then begin
          let rec read_all () =
            match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
            | 0 -> closed := true
            | got ->
              Buffer.add_subbytes conn.buf chunk 0 got;
              conn.last_rx_ms <- now_ms l;
              l.last_activity_ms <- conn.last_rx_ms;
              read_all ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
              ()
            | exception Unix.Unix_error (_, _, _) -> closed := true
          in
          read_all ();
          let acc', cut = drain_conn_buffer l conn !acc in
          acc := acc';
          if cut then begin
            Log.info (fun f ->
                f "socket: connection %d dropped by chaos cut" conn.cn);
            Buffer.clear conn.buf;
            closed := true
          end
        end;
        if !closed then begin
          if Buffer.length conn.buf > 0 then
            acc :=
              reject_arrival l !acc
                (Printf.sprintf "connection closed mid-line after %d bytes"
                   (Buffer.length conn.buf));
          close_conn conn;
          Log.info (fun f -> f "socket: connection %d closed" conn.cn);
          None
        end
        else if
          Buffer.length conn.buf > l.max_line_bytes
        then begin
          (* Unframable: the line already exceeds the limit and no
             newline arrived — reject and drop the connection, there is
             no way to find the next frame boundary. *)
          acc :=
            reject_arrival l !acc
              (Printf.sprintf "oversized line: %d bytes exceeds limit %d"
                 (Buffer.length conn.buf) l.max_line_bytes);
          close_conn conn;
          Log.warn (fun f ->
              f "socket: connection %d rejected for an oversized line" conn.cn);
          None
        end
        else if
          Buffer.length conn.buf > 0
          && now_ms l - conn.last_rx_ms >= l.read_timeout_ms
        then begin
          acc :=
            reject_arrival l !acc
              (Printf.sprintf "read timed out with %d buffered bytes"
                 (Buffer.length conn.buf));
          close_conn conn;
          Log.warn (fun f ->
              f "socket: connection %d timed out mid-line" conn.cn);
          None
        end
        else Some conn)
      s.conns
  in
  s.conns <- keep;
  List.rev !acc

(* --- spool ----------------------------------------------------------------- *)

let spool_file name =
  String.length name > 0
  && name.[0] <> '.'
  && (not (Filename.check_suffix name ".tmp"))
  && not (Filename.check_suffix name ".part")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spool_poll l dir =
  let names =
    match Sys.readdir dir with
    | names ->
      let names = Array.to_list names in
      List.sort String.compare (List.filter spool_file names)
    | exception Sys_error msg ->
      Log.warn (fun f -> f "spool: cannot scan %s: %s" dir msg);
      []
  in
  let acc = ref [] in
  List.iter
    (fun name ->
      let path = Filename.concat dir name in
      match
        if Sys.is_directory path then None
        else begin
          let contents = read_file path in
          Sys.remove path;
          Some contents
        end
      with
      | None -> ()
      | exception Sys_error msg ->
        Log.warn (fun f -> f "spool: skipping %s: %s" name msg)
      | Some contents ->
        l.last_activity_ms <- now_ms l;
        let contents =
          match l.chaos with
          | None -> contents
          | Some ch -> Chaos.flip_spool ch ~name contents
        in
        Log.info (fun f ->
            f "spool: consumed %s (%d bytes)" name (String.length contents));
        List.iter
          (fun line ->
            let acc', _cut = ingest_line l !acc line in
            acc := acc')
          (String.split_on_char '\n' contents))
    names;
  List.rev !acc

(* --- source construction and polling --------------------------------------- *)

let make_live ~kind ~read_timeout_ms ~max_line_bytes ~idle_exit_ms ~chaos =
  { kind; read_timeout_ms; max_line_bytes; idle_exit_ms; chaos;
    t0 = Unix.gettimeofday (); next_seq = 1; next_line = 0; next_cn = 0;
    last_activity_ms = 0; l_closed = false }

let socket ?(accept_backlog = 16) ?(read_timeout_ms = 5000)
    ?(max_line_bytes = 65536) ?(idle_exit_ms = 0) ?chaos ~path () =
  if accept_backlog < 1 then Error "socket: accept backlog must be >= 1"
  else if read_timeout_ms < 1 then Error "socket: read timeout must be >= 1 ms"
  else if max_line_bytes < 2 then Error "socket: line limit must be >= 2 bytes"
  else begin
    (* A socket file may be left behind by a killed daemon. A stale one
       (nobody listening) is replaced; a live one is a genuine bind
       conflict and refused. *)
    if Sys.file_exists path then begin
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if not live then begin
        Log.warn (fun f -> f "socket: removing stale socket file %s" path);
        try Sys.remove path with Sys_error _ -> ()
      end
    end;
    let listen = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind listen (Unix.ADDR_UNIX path);
      Unix.listen listen accept_backlog;
      Unix.set_nonblock listen
    with
    | () ->
      Log.info (fun f ->
          f "socket: listening on %s (backlog %d)" path accept_backlog);
      Ok
        (Live
           (make_live
              ~kind:(Socket { listen; sock_path = path; conns = [] })
              ~read_timeout_ms ~max_line_bytes ~idle_exit_ms ~chaos))
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listen with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind socket %s: %s" path
           (Unix.error_message e))
  end

let spool ?(poll_ms = 50) ?(max_line_bytes = 65536) ?(idle_exit_ms = 0) ?chaos
    ~dir () =
  if poll_ms < 1 then Error "spool: poll interval must be >= 1 ms"
  else if max_line_bytes < 2 then Error "spool: line limit must be >= 2 bytes"
  else if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "spool directory %s does not exist" dir)
  else
    Ok
      (Live
         (make_live
            ~kind:(Spool { dir; poll_ms })
            ~read_timeout_ms:max_int ~max_line_bytes ~idle_exit_ms ~chaos))

let replay ~path =
  match Journal.load ~path with
  | Error _ as e -> e
  | Ok batches -> Ok (Replay { rest = batches; last_now = 0 })

let live_poll l ~pending =
  if l.l_closed then
    { b_now_ms = now_ms l; b_arrivals = []; b_closed = true; b_drain = false }
  else begin
    let arrivals =
      match l.kind with
      | Socket s ->
        let slice = if pending then 0. else 0.05 in
        socket_poll l s ~slice
      | Spool sp ->
        let got = spool_poll l sp.dir in
        if got = [] && not pending then
          Unix.sleepf (float_of_int (Int.min sp.poll_ms 100) /. 1000.);
        got
    in
    let now = now_ms l in
    let open_conns =
      match l.kind with Socket s -> s.conns <> [] | Spool _ -> false
    in
    if
      l.idle_exit_ms > 0 && arrivals = [] && (not open_conns)
      && now - l.last_activity_ms >= l.idle_exit_ms
    then begin
      Log.info (fun f ->
          f "idle for %d ms with no connections: closing ingress"
            (now - l.last_activity_ms));
      l.l_closed <- true
    end;
    { b_now_ms = now; b_arrivals = arrivals; b_closed = l.l_closed;
      b_drain = false }
  end

let poll source ~pending =
  match source with
  | Lines st ->
    if st.sent then
      { b_now_ms = 0; b_arrivals = []; b_closed = true; b_drain = false }
    else begin
      st.sent <- true;
      { b_now_ms = 0;
        b_arrivals =
          List.mapi
            (fun i line -> { a_seq = i + 1; a_at_ms = 0; a_payload = Ok line })
            st.lines;
        b_closed = true; b_drain = false }
    end
  | Replay st -> (
    match st.rest with
    | [] ->
      { b_now_ms = st.last_now; b_arrivals = []; b_closed = true;
        b_drain = false }
    | b :: tl ->
      st.rest <- tl;
      st.last_now <- b.b_now_ms;
      b)
  | Live l -> live_poll l ~pending

let close source =
  match source with
  | Lines _ | Replay _ -> ()
  | Live l ->
    (match l.kind with
    | Socket s ->
      List.iter close_conn s.conns;
      s.conns <- [];
      (try Unix.close s.listen with Unix.Unix_error _ -> ());
      (try Sys.remove s.sock_path with Sys_error _ -> ())
    | Spool _ -> ());
    l.l_closed <- true
