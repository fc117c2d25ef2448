(** Small numeric helpers shared across the library. *)

val gcd : int -> int -> int
(** [gcd a b] is the greatest common divisor of [abs a] and [abs b].
    [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** [lcm a b] is the least common multiple of [abs a] and [abs b].
    [lcm 0 _ = 0]. Raises [Invalid_argument] on overflow. *)

val lcm_list : int list -> int
(** [lcm_list xs] folds {!lcm} over [xs]; the lcm of the empty list is 1. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] is [x] restricted to the interval [[lo, hi]].
    Requires [lo <= hi]. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** [approx_equal ?eps a b] compares floats with absolute-or-relative
    tolerance [eps] (default [1e-9]):
    [|a - b| <= eps * max 1. (max |a| |b|)]. *)

val sum : float array -> float
(** Left-to-right (Kahan-compensated) sum of an array. *)
