type t = {
  energy : float;
  deadline_misses : int;
  shed_instances : int;
  finish_times : float array array;
  consumed : float array;
}

let pp ppf t =
  if t.shed_instances = 0 then
    Format.fprintf ppf "energy=%g misses=%d" t.energy t.deadline_misses
  else
    Format.fprintf ppf "energy=%g misses=%d shed=%d" t.energy t.deadline_misses
      t.shed_instances
