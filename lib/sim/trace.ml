type span = {
  task : int;
  instance : int;
  from_time : float;
  to_time : float;
  voltage : float;
}

type t = { spans : span list; horizon : float }

let pp_gantt ?(width = 72) ~n_tasks ppf t =
  if t.horizon <= 0. then Format.fprintf ppf "(empty trace)@."
  else begin
    let v_max =
      List.fold_left (fun m s -> Float.max m s.voltage) 1e-9 t.spans
    in
    let rows = Array.init n_tasks (fun _ -> Bytes.make width '.') in
    List.iter
      (fun s ->
        if s.task >= 0 && s.task < n_tasks then begin
          let c0 = int_of_float (s.from_time /. t.horizon *. float_of_int width) in
          let c1 = int_of_float (Float.ceil (s.to_time /. t.horizon *. float_of_int width)) in
          let level = 1 + int_of_float (8. *. s.voltage /. v_max) in
          let ch = Char.chr (Char.code '0' + min 9 level) in
          for c = max 0 c0 to min (width - 1) (c1 - 1) do
            Bytes.set rows.(s.task) c ch
          done
        end)
      t.spans;
    Array.iteri
      (fun i row -> Format.fprintf ppf "T%-2d |%s|@." (i + 1) (Bytes.to_string row))
      rows;
    Format.fprintf ppf "     0%s%g@."
      (String.make (max 1 (width - 6)) ' ')
      t.horizon
  end
