type t = float array

let zeros n = Array.make n 0.
let copy = Array.copy
let dim = Array.length

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_dims "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let scale s a = Array.map (fun x -> s *. x) a

let axpy a x y =
  check_dims "axpy" x y;
  Array.mapi (fun i xi -> (a *. xi) +. y.(i)) x

let axpy_into a x y ~into =
  check_dims "axpy_into" x y;
  check_dims "axpy_into" x into;
  for i = 0 to Array.length x - 1 do
    into.(i) <- (a *. x.(i)) +. y.(i)
  done

let sub_into a b ~into =
  check_dims "sub_into" a b;
  check_dims "sub_into" a into;
  for i = 0 to Array.length a - 1 do
    into.(i) <- a.(i) -. b.(i)
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a

let dist2 a b =
  check_dims "dist2" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let map = Array.map

let map2 f a b =
  check_dims "map2" a b;
  Array.mapi (fun i x -> f x b.(i)) a

let for_all2 f a b =
  check_dims "for_all2" a b;
  let rec go i = i >= Array.length a || (f a.(i) b.(i) && go (i + 1)) in
  go 0

let concat parts = Array.concat parts

let pp ppf a =
  Format.fprintf ppf "[@[";
  Array.iteri (fun i x -> Format.fprintf ppf "%s%g" (if i = 0 then "" else ";@ ") x) a;
  Format.fprintf ppf "@]]"
