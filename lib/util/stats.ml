let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty array" name)

let mean xs =
  check_nonempty "mean" xs;
  Num_ext.sum xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  (* A silent 0. here made 1-round campaigns report stddev = 0 as if
     perfectly stable; the sample variance is simply undefined. *)
  if n < 2 then invalid_arg "Stats.variance: need at least two samples"
  else
    let m = mean xs in
    let devs = Array.map (fun x -> (x -. m) ** 2.) xs in
    Num_ext.sum devs /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let min_max xs =
  check_nonempty "min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let percentile xs ~p =
  check_nonempty "percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
