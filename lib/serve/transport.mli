(** Ingress transports for the serve daemon: where request lines come
    from, stamped and sequenced so any live run can be replayed offline
    byte-identically.

    A {!source} produces {!batch}es of {!arrival}s. The engine
    ({!Service.run_source}) polls the source once per wave boundary,
    admits whatever arrived, and processes one wave — so the transport
    never blocks the solve pipeline and the engine never busy-waits on
    a quiet socket (a poll with no pending backlog parks in [select]
    for a bounded slice).

    {2 Sources}

    - {!of_lines} — a fixed batch (the CLI's stdin or [--input] file):
      every line arrives at once, at time zero ({!Daemon.run} is a thin
      wrapper over it; long-running deployments should prefer
      [--spool] or [--socket]).
    - {!socket} — NDJSON over a Unix-domain stream socket, with a
      bounded accept backlog, per-connection read timeouts, and
      partial-line / oversized-line rejection with diagnostics.
    - {!spool} — a watched spool directory for environments without
      sockets: drop a file of NDJSON lines in, the daemon consumes and
      deletes it (write-then-rename on the producer side keeps partial
      files invisible).
    - {!replay} — re-produce the exact batch sequence an
      {!module-Journal} recorded, including arrival stamps and
      transport-level rejections. This is how CI pins determinism for
      a nondeterministic ingress: live run journals, offline replay
      must byte-diff clean.

    {2 Time and determinism}

    Wall time enters the engine only through [b_now_ms] and [a_at_ms] —
    both journaled — so deadline-expiry decisions are a pure function
    of the journal, not of the replaying host's clock. Transport chaos
    (connection cuts, stalls, spool flips — see {!Chaos}) fires at
    ingress, {e before} the journal records the surviving arrivals, so
    a replay observes the faults' effects without re-injecting them. *)

type arrival = {
  a_seq : int;  (** global arrival sequence number, counted from 1 *)
  a_at_ms : int;  (** arrival stamp, milliseconds since source start *)
  a_payload : (string, string) result;
      (** [Ok line] — a complete NDJSON line; [Error diag] — a
          transport-level rejection (partial line at disconnect, read
          timeout with buffered debris, oversized line), which the
          engine reports as a rejected outcome for ["line-<seq>"] *)
}

type batch = {
  b_now_ms : int;  (** the poll's time stamp — the wave's notion of now *)
  b_arrivals : arrival list;  (** in sequence order; may be empty *)
  b_closed : bool;  (** no further arrivals will ever come *)
  b_drain : bool;
      (** replay of a recorded drain: the engine must stop exactly
          here, as the live run did *)
}

type source

val of_lines : ?chaos:Chaos.t -> string list -> source
(** All lines arrive in one batch at time zero, already closed. With
    [chaos], each line may first be dropped ({!Chaos.drop_line}, keyed
    by its 0-based index in [lines]), as the live sources drop at
    ingress. Sequence numbers count the surviving lines from 1. *)

val socket :
  ?accept_backlog:int ->
  ?read_timeout_ms:int ->
  ?max_line_bytes:int ->
  ?idle_exit_ms:int ->
  ?chaos:Chaos.t ->
  path:string ->
  unit ->
  (source, string) result
(** Listen on a Unix-domain stream socket at [path]. [Error] names the
    bind failure (the CLI maps it to exit 2); a stale socket file with
    no listener behind it is silently replaced, a live one is refused
    as already in use.

    [accept_backlog] (default 16) bounds the kernel accept queue.
    [read_timeout_ms] (default 5000) rejects a connection's buffered
    partial line when no byte arrives for that long. [max_line_bytes]
    (default 65536) rejects oversized lines with a diagnostic (the
    connection is closed — the remainder cannot be framed).
    [idle_exit_ms] (default 0 = never) closes the source after that
    long with no connections and no traffic, which is how tests and
    soak jobs terminate a daemon without signals. *)

val spool :
  ?poll_ms:int ->
  ?max_line_bytes:int ->
  ?idle_exit_ms:int ->
  ?chaos:Chaos.t ->
  dir:string ->
  unit ->
  (source, string) result
(** Watch directory [dir] for spool files: each poll consumes (reads
    and deletes) every regular file whose name does not start with
    ['.'] or end in [".tmp"] or [".part"], in lexicographic name order,
    one arrival per non-blank line. Producers should write-then-rename
    so partial files are never picked up. [Error] when [dir] is not a
    writable directory. [poll_ms] (default 50) is the scan interval;
    [max_line_bytes] and [idle_exit_ms] as for {!socket}. *)

val replay : path:string -> (source, string) result
(** Re-produce the batches recorded in the arrival journal at [path]
    ([lepts-arrivals/1] snapshot framing). [Error] names the failed
    framing check or malformed body line, or says why the file could
    not be read. *)

val poll : source -> pending:bool -> batch
(** Produce the next batch. [pending] is whether the engine already
    holds unprocessed backlog: when [false] a live source may park in
    [select]/sleep for a bounded slice (~50 ms) waiting for traffic;
    when [true] it only sweeps what is immediately available. Once a
    source reports [b_closed = true] with no arrivals, every later
    poll does too. *)

val close : source -> unit
(** Release descriptors; for {!socket}, unlink the socket path.
    Idempotent. *)

(** The arrival journal: every batch the engine processed, with stamps
    and transport rejections, in {!Lepts_robust.Checkpoint.Snapshot}
    framing ([lepts-arrivals/1], atomic write-rename). Body lines:
    {v
    batch <now_ms> <closed:0|1> <drain:0|1>
    ok <seq> <at_ms> <raw request line>
    err <seq> <at_ms> <diagnostic>
    v} *)
module Journal : sig
  val magic : string
  (** ["lepts-arrivals"]. *)

  val version : int
  (** [1]. *)

  type t

  val create : unit -> t
  (** An empty journal. *)

  val record : t -> batch -> unit
  (** Append one batch (the engine records exactly the batches it acted
      on, so replay reproduces its wave boundaries). *)

  val batches : t -> int
  (** Batches recorded so far. *)

  val save : t -> path:string -> unit
  (** Atomic snapshot write; safe to call every wave. *)
end
