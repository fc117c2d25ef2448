(** Graceful-drain flag: the bridge between POSIX signals and the
    cooperative [should_stop] hooks of the long-running engines
    ({!Lepts_robust.Checkpoint.map_indices}, {!Service.run_source}).

    A signal handler may only do async-signal-safe work, so the handler
    installed here just sets an atomic flag; the engines poll it at
    their chunk/wave boundaries, save a checkpoint, and unwind with a
    distinct exit status. Pressing Ctrl-C therefore loses at most one
    chunk of work — and none of the work already on disk. *)

val install : unit -> unit
(** Route [SIGTERM] and [SIGINT] to the drain flag (idempotent). The
    second signal falls back to the default behaviour, so a stuck run
    can still be killed the ordinary way. *)

val requested : unit -> bool
(** [true] once a drain has been requested — by a signal or by
    {!request}. Safe from any domain. *)

val request : unit -> unit
(** Set the flag programmatically (tests, embedding). *)

val reset : unit -> unit
(** Clear the flag (tests). Does not uninstall handlers. *)
