(** Euclidean projection onto the per-instance workload simplexes of
    the scheduling NLPs. *)

val simplex_fast_ip :
  total:float -> scratch:Lepts_linalg.Vec.t -> n:int -> Lepts_linalg.Vec.t -> unit
(** [simplex_fast_ip ~total ~scratch ~n x] projects the prefix
    [x.[0, n)] in place onto the scaled simplex
    [{x : x >= 0, sum x = total}] (Held, Wolfe & Crowder: threshold by
    descending sort, O(n log n)). The sort uses raw float comparisons
    (insertion sort for [n <= 256], in-place heapsort above), which
    preserves the descending value sequence of a [Float.compare] sort
    for any NaN-free input, and [n = 1] short-circuits to the
    algebraically unfolded single-element result — so the output is
    bit-identical to the dense sort-based reference kept in the test
    suite. [x] and [scratch] may be longer than [n]; only the prefix is
    touched. Requires [total >= 0.], [n >= 1], and NaN-free input. *)
