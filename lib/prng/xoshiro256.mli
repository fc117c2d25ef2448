(** xoshiro256** pseudo-random generator (Blackman & Vigna 2018).

    All simulation randomness in this library flows through this module
    so that every experiment is reproducible from a single integer
    seed. *)

type t

val create : seed:int -> t
(** [create ~seed] expands [seed] through SplitMix64 into the 256-bit
    state, as recommended by the authors. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream,
    advancing [t]. Useful for giving each task-set replication its own
    stream. *)

val split_key : t -> key:int -> t
(** [split_key t ~key] derives the [key]-th child stream of [t]'s
    {e current} state without advancing [t]: the child is a pure
    function of (state, key), so children may be derived in any order —
    or concurrently from several domains — and are identical to the
    ones a sequential traversal would produce. Distinct keys give
    decorrelated streams (state and key are mixed through a SplitMix64
    chain). This is the primitive behind the per-round and per-instance
    stream discipline of {!Lepts_sim.Runner} and
    {!Lepts_sim.Sampler}. *)

val copy : t -> t
(** Snapshot of the current state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform in [[0, 1)] with 53 bits of precision. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> bound:int -> int
(** Uniform integer in [[0, bound)]. Requires [bound > 0]. Uses
    rejection sampling, so the distribution is exactly uniform. *)

