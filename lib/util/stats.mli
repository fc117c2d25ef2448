(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (divides by [n - 1]). Raises
    [Invalid_argument] for arrays of length < 2, where the sample
    variance is undefined — the historical behaviour returned 0,
    making a single observation look perfectly stable. *)

val stddev : float array -> float
(** Square root of {!variance}; same domain requirement. *)

val min_max : float array -> float * float
(** [(min, max)] of the array. Raises [Invalid_argument] when empty. *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] is the [p]-th percentile ([0. <= p <= 100.]) using
    linear interpolation between closest ranks. Does not mutate [xs].
    Raises [Invalid_argument] when empty or [p] out of range. *)
