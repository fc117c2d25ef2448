(* Sort-based simplex projection: sort the values in descending order,
   find the threshold tau such that sum max(0, x_i - tau) = total, then
   shift and clip. The threshold runs over an explicit prefix length,
   so callers with a shared max-length buffer (the solver's flat block
   index) reuse one allocation for every block. *)
let tau_of_sorted_n ~total (sorted : float array) n =
  let cumulative = ref 0. and tau = ref (sorted.(0) -. total) in
  for i = 0 to n - 1 do
    cumulative := !cumulative +. sorted.(i);
    let candidate = (!cumulative -. total) /. float_of_int (i + 1) in
    if sorted.(i) > candidate then tau := candidate
  done;
  !tau

(* Descending sort: insertion with raw (unboxed) comparisons for short
   slices, in-place min-heapsort above. Both produce the descending
   value sequence of a [Float.compare] sort, so the cumulative sums in
   [tau_of_sorted_n] — and hence tau and the projected vector — are
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
    let sift root size =
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
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- tmp;
      sift 0 last
    done
  end

(* Same-module float copy of the max, so the clipping loop does not box
   its floats through a cross-module call. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || (x <> x && not (y <> y)) then y else x

let simplex_fast_ip ~total ~scratch ~n (x : float array) =
  if total < 0. then invalid_arg "Projection.simplex_fast_ip: negative total";
  if n <= 0 then invalid_arg "Projection.simplex_fast_ip: empty prefix";
  if Array.length x < n || Array.length scratch < n then
    invalid_arg "Projection.simplex_fast_ip: buffer shorter than n";
  if n = 1 then
    (* The sorted path's tau degenerates to [x0 - total] (the candidate
       and the initialiser coincide), so the result is this exact
       expression — not [total], which differs when the subtraction
       rounds. *)
    x.(0) <- fmax 0. (x.(0) -. (x.(0) -. total))
  else begin
    Array.blit x 0 scratch 0 n;
    sort_desc_fast_ip scratch n;
    let tau = tau_of_sorted_n ~total scratch n in
    for i = 0 to n - 1 do
      x.(i) <- fmax 0. (x.(i) -. tau)
    done
  end
