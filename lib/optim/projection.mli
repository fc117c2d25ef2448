(** Euclidean projection onto the per-instance workload simplexes of
    the scheduling NLPs. *)

val simplex_blocks_ip :
  off:int array ->
  idx:int array ->
  totals:float array ->
  base:int ->
  scratch:float array ->
  float array ->
  unit
(** [simplex_blocks_ip ~off ~idx ~totals ~base ~scratch x] projects,
    in place, every block of a flat block index onto its scaled simplex
    [{y : y >= 0, sum y = totals.(b)}]. Block [b] is the set of
    coordinates [x.(base + idx.(p))] for [off.(b) <= p < off.(b+1)];
    there are [Array.length off - 1] blocks
    (the [blk_off]/[blk_idx] of [Lepts_core.Workspace] is such an index,
    with [base] locating the quota half of the caller's vector).

    Each block is projected by threshold on a descending sort (Held,
    Wolfe & Crowder, O(n log n)) in [scratch], which must hold the
    longest block. The sort uses raw float comparisons (insertion sort
    for [n <= 256], in-place heapsort above), which preserves the
    descending value sequence of a [Float.compare] sort for any
    NaN-free input, and one-element blocks short-circuit to the
    algebraically unfolded single-element result — so every block is
    bit-identical to the dense sort-based reference kept in the test
    suite. Allocates nothing.

    Raises [Invalid_argument] on a negative total, an empty block, a
    [scratch] shorter than a block, or an index reaching past [idx] or
    [x]. Requires NaN-free input. *)
