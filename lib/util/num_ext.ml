let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let lcm a b =
  let a = abs a and b = abs b in
  if a = 0 || b = 0 then 0
  else
    let g = gcd a b in
    let q = a / g in
    if q > max_int / b then invalid_arg "Num_ext.lcm: overflow" else q * b

let lcm_list = List.fold_left lcm 1

(* Annotated [float]: an unannotated body compiles to polymorphic
   compare calls on boxed floats. *)
let clamp ~(lo : float) ~(hi : float) (x : float) =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let approx_equal ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= (eps *. scale)

(* Kahan summation: the compensation term recovers the low-order bits
   lost when adding a small element to a large running total. *)
let sum xs =
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let y = xs.(i) -. !comp in
    let t = !total +. y in
    comp := (t -. !total) -. y;
    total := t
  done;
  !total
