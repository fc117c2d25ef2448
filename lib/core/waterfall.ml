let check quotas total =
  if total < 0. then invalid_arg "Waterfall: negative total";
  Array.iter (fun q -> if q < 0. then invalid_arg "Waterfall: negative quota") quotas

let distribute ~quotas ~total =
  check quotas total;
  let remaining = ref total in
  Array.map
    (fun q ->
      let w = Float.min q !remaining in
      remaining := !remaining -. w;
      w)
    quotas

(* Same-module float copy of [Float.min] (same formula as the stdlib,
   so same results): the cross-module call boxes floats on every
   element without flambda. *)
let[@inline] fmin (x : float) (y : float) =
  if y < x || (x <> x && not (y <> y)) then y else x

(* Prefix variant over preallocated buffers: identical arithmetic to
   [distribute] on the first [n] elements, no allocation. The total is
   passed as [totals.(j)] rather than as a float argument because a
   float crossing a non-inlined call gets boxed — these two functions
   are the solver's innermost allocation-free kernels. *)
let distribute_into ~quotas ~n ~totals ~j ~into =
  let total = totals.(j) in
  if total < 0. then invalid_arg "Waterfall: negative total";
  if n > Array.length quotas || n > Array.length into then
    invalid_arg "Waterfall.distribute_into: prefix exceeds buffer";
  let remaining = ref total in
  for k = 0 to n - 1 do
    let q = quotas.(k) in
    if q < 0. then invalid_arg "Waterfall: negative quota";
    let w = fmin q !remaining in
    remaining := !remaining -. w;
    into.(k) <- w
  done

(* Derivative structure: sub-instances before the partial one satisfy
   w_k = q_k (dw_k/dq_k = 1); the partial one satisfies
   w_p = total - sum_{l<p} q_l (dw_p/dq_l = -1 for l < p); later ones
   are 0 with zero derivative. At kinks we take the fully-filled
   branch. *)
let backward_into ~quotas ~adjoint ~n ~totals ~j ~into =
  let total = totals.(j) in
  if total < 0. then invalid_arg "Waterfall: negative total";
  if n > Array.length quotas || n > Array.length adjoint || n > Array.length into
  then invalid_arg "Waterfall.backward_into: prefix exceeds buffer";
  for k = 0 to n - 1 do
    if quotas.(k) < 0. then invalid_arg "Waterfall: negative quota";
    into.(k) <- 0.
  done;
  let remaining = ref total in
  (try
     for k = 0 to n - 1 do
       let q = quotas.(k) in
       if !remaining >= q then begin
         (* fully filled: w_k = q_k *)
         into.(k) <- into.(k) +. adjoint.(k);
         remaining := !remaining -. q
       end
       else begin
         if !remaining > 0. then
           (* partial: w_k = total - sum of earlier quotas *)
           for l = 0 to k - 1 do
             into.(l) <- into.(l) -. adjoint.(k)
           done;
         raise Exit
       end
     done
   with Exit -> ())

let backward ~quotas ~total ~adjoint =
  check quotas total;
  if Array.length adjoint <> Array.length quotas then
    invalid_arg "Waterfall.backward: adjoint length mismatch";
  let out = Array.make (Array.length quotas) 0. in
  backward_into ~quotas ~adjoint ~n:(Array.length quotas) ~totals:[| total |]
    ~j:0 ~into:out;
  out
