let gradient ?(h = 1e-6) ~f x =
  let x = Array.copy x in
  let n = Array.length x in
  Array.init n (fun i ->
      let step = h *. Float.max 1. (Float.abs x.(i)) in
      let xi = x.(i) in
      x.(i) <- xi +. step;
      let fp = Guard.finite ~where:(Printf.sprintf "f(x + h e_%d)" i) (f x) in
      x.(i) <- xi -. step;
      let fm = Guard.finite ~where:(Printf.sprintf "f(x - h e_%d)" i) (f x) in
      x.(i) <- xi;
      (fp -. fm) /. (2. *. step))
