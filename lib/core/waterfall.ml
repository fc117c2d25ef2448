(* Same-module float copy of [Float.min] (same formula as the stdlib,
   so same results): the cross-module call boxes floats on every
   element without flambda. *)
let[@inline] fmin (x : float) (y : float) =
  if y < x || (x <> x && not (y <> y)) then y else x

(* Block [b] of the flat index is the [b]-th instance of [totals] in
   row-major (task, instance) order, so the kernels walk [totals] and
   the offsets in step. Returns the coordinate count [off.(n_blocks)]. *)
let check_blocks ~off ~idx ~totals =
  let n_blocks = ref 0 in
  for i = 0 to Array.length totals - 1 do
    n_blocks := !n_blocks + Array.length totals.(i)
  done;
  if Array.length off <> !n_blocks + 1 then
    invalid_arg "Waterfall: block index does not match the totals";
  let m = off.(!n_blocks) in
  if Array.length idx < m then invalid_arg "Waterfall: block index exceeds buffer";
  m

let distribute_blocks ~off ~idx ~totals ~quotas ~into =
  let m = check_blocks ~off ~idx ~totals in
  if Array.length quotas < m || Array.length into < m then
    invalid_arg "Waterfall: block index exceeds buffer";
  let b = ref 0 in
  for i = 0 to Array.length totals - 1 do
    let row = totals.(i) in
    for j = 0 to Array.length row - 1 do
      let total = row.(j) in
      if total < 0. then invalid_arg "Waterfall: negative total";
      let remaining = ref total in
      for p = off.(!b) to off.(!b + 1) - 1 do
        let k = idx.(p) in
        let q = quotas.(k) in
        if q < 0. then invalid_arg "Waterfall: negative quota";
        let w = fmin q !remaining in
        remaining := !remaining -. w;
        into.(k) <- w
      done;
      incr b
    done
  done

(* Derivative structure: sub-instances before the partial one satisfy
   w_k = q_k (dw_k/dq_k = 1); the partial one satisfies
   w_p = total - sum_{l<p} q_l (dw_p/dq_l = -1 for l < p); later ones
   are 0 with zero derivative. At kinks we take the fully-filled
   branch. Per block, the fill walk finds the first sub-instance that
   is not fully filled ([stop]) and whether it is partial; then each
   coordinate's product is formed as the per-instance oracle forms it
   ([0. +. adjoint] when filled, minus the partial one's adjoint when
   it precedes that one) and added to [into]. *)
let backward_add_blocks ~off ~idx ~totals ~quotas ~adjoint ~into =
  let m = check_blocks ~off ~idx ~totals in
  if Array.length quotas < m || Array.length adjoint < m || Array.length into < m then
    invalid_arg "Waterfall: block index exceeds buffer";
  let b = ref 0 in
  for i = 0 to Array.length totals - 1 do
    let row = totals.(i) in
    for j = 0 to Array.length row - 1 do
      let total = row.(j) in
      if total < 0. then invalid_arg "Waterfall: negative total";
      let lo = off.(!b) and hi = off.(!b + 1) in
      let remaining = ref total and stop = ref lo in
      while !stop < hi && !remaining >= quotas.(idx.(!stop)) do
        remaining := !remaining -. quotas.(idx.(!stop));
        incr stop
      done;
      let stop = !stop in
      let partial = stop < hi && !remaining > 0. in
      let a_stop = if partial then adjoint.(idx.(stop)) else 0. in
      for p = lo to hi - 1 do
        let k = idx.(p) in
        if quotas.(k) < 0. then invalid_arg "Waterfall: negative quota";
        let out =
          if p >= stop then 0.
          else if partial then 0. +. adjoint.(k) -. a_stop
          else 0. +. adjoint.(k)
        in
        into.(k) <- into.(k) +. out
      done;
      incr b
    done
  done
