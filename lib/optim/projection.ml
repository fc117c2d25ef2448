(* Restore the min-heap property of [a.[0, size)] below [root]. A
   top-level function, so the heapsort allocates no closure. *)
let sift (a : float array) root size =
  let r = ref root and live = ref true in
  while !live do
    let l = (2 * !r) + 1 in
    if l >= size then live := false
    else begin
      let c = if l + 1 < size && a.(l + 1) < a.(l) then l + 1 else l in
      if a.(c) < a.(!r) then begin
        let tmp = a.(c) in
        a.(c) <- a.(!r);
        a.(!r) <- tmp;
        r := c
      end
      else live := false
    end
  done

(* Descending sort: insertion with raw (unboxed) comparisons for short
   slices, in-place min-heapsort above. Both produce the descending
   value sequence of a [Float.compare] sort, so the cumulative sums of
   the threshold search — and hence tau and the projected vector — are
   bit-identical to the dense reference in the test suite. The only
   ordering difference from [Float.compare]'s total order is the
   placement of [-0.] among zeros, which cannot change any cumulative
   sum that starts from [+0.]. Inputs must be NaN-free — true for every
   solver iterate ({!Lepts_optim.Guard} aborts on non-finite values)
   and required of callers. *)
let sort_desc_fast_ip (a : float array) n =
  if n <= 256 then
    for i = 1 to n - 1 do
      let key = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) < key do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- key
    done
  else begin
    (* Min-heap at the front; extracting the minimum to the shrinking
       tail leaves the array in descending order. *)
    for i = (n / 2) - 1 downto 0 do
      sift a i n
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- tmp;
      sift a 0 last
    done
  end

(* Same-module float copy of the max, so the clipping loop does not box
   its floats through a cross-module call. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

(* One pass over the whole vector: every block of the flat index is
   projected in place, singletons as the one-element threshold
   unfolded, longer blocks through [scratch] (gather, sort, threshold,
   then shift and clip straight back into [x]). No call crosses a
   module boundary and no float is boxed. *)
let simplex_blocks_ip ~off ~idx ~totals ~base ~scratch (x : float array) =
  let n_blocks = Array.length off - 1 in
  if n_blocks < 0 then invalid_arg "Projection.simplex_blocks_ip: empty offset array";
  if Array.length totals < n_blocks then
    invalid_arg "Projection.simplex_blocks_ip: fewer totals than blocks";
  if base < 0 || Array.length idx < off.(n_blocks)
     || Array.length x < base + off.(n_blocks)
  then invalid_arg "Projection.simplex_blocks_ip: index exceeds buffer";
  for b = 0 to n_blocks - 1 do
    let lo = off.(b) in
    let n = off.(b + 1) - lo in
    let total = totals.(b) in
    if total < 0. then invalid_arg "Projection.simplex_blocks_ip: negative total";
    if n <= 0 then invalid_arg "Projection.simplex_blocks_ip: empty block";
    if n = 1 then begin
      (* The sorted path's tau degenerates to [x0 - total] (the
         candidate and the initialiser coincide), so the result is this
         exact expression — not [total], which differs when the
         subtraction rounds. *)
      let k = base + idx.(lo) in
      let v = x.(k) in
      x.(k) <- fmax 0. (v -. (v -. total))
    end
    else begin
      if Array.length scratch < n then
        invalid_arg "Projection.simplex_blocks_ip: scratch shorter than a block";
      for pos = 0 to n - 1 do
        scratch.(pos) <- x.(base + idx.(lo + pos))
      done;
      sort_desc_fast_ip scratch n;
      (* The threshold tau with sum max(0, x_i - tau) = total, over
         the descending prefix sums. *)
      let cumulative = ref 0. and tau = ref (scratch.(0) -. total) in
      for i = 0 to n - 1 do
        cumulative := !cumulative +. scratch.(i);
        let candidate = (!cumulative -. total) /. float_of_int (i + 1) in
        if scratch.(i) > candidate then tau := candidate
      done;
      let tau = !tau in
      for pos = lo to lo + n - 1 do
        let k = base + idx.(pos) in
        x.(k) <- fmax 0. (x.(k) -. tau)
      done
    end
  done
