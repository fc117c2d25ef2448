module Vec = Lepts_linalg.Vec

type constraint_ = {
  name : string;
  value : Vec.t -> float;
  add_gradient : x:Vec.t -> scale:float -> into:Vec.t -> unit;
}

type t = {
  dim : int;
  objective : Vec.t -> float;
  gradient : Vec.t -> Vec.t;
  inequalities : constraint_ list;
  project : Vec.t -> Vec.t;
}

let linear_constraint ~name ~coeffs ~bound =
  let value x =
    List.fold_left (fun acc (i, c) -> acc +. (c *. x.(i))) (-.bound) coeffs
  in
  let add_gradient ~x:_ ~scale ~into =
    List.iter (fun (i, c) -> into.(i) <- into.(i) +. (scale *. c)) coeffs
  in
  { name; value; add_gradient }

let max_violation t x =
  List.fold_left (fun acc c -> Float.max acc (c.value x)) 0. t.inequalities
