type t = { tasks : Task.t array }

let check_names tasks =
  let module S = Set.Make (String) in
  let _ =
    Array.fold_left
      (fun seen (task : Task.t) ->
        if S.mem task.name seen then
          invalid_arg
            (Printf.sprintf "Task_set.create: duplicate task name %S" task.name)
        else S.add task.name seen)
      S.empty tasks
  in
  ()

let of_array arr =
  if Array.length arr = 0 then invalid_arg "Task_set.create: empty task set";
  check_names arr;
  (* Stable sort keeps the input order for equal periods. *)
  let sorted = Array.copy arr in
  let keyed = Array.mapi (fun i task -> (i, task)) sorted in
  Array.sort
    (fun (i, (a : Task.t)) (j, (b : Task.t)) ->
      match compare a.period b.period with 0 -> compare i j | c -> c)
    keyed;
  { tasks = Array.map snd keyed }

let create list = of_array (Array.of_list list)
let size t = Array.length t.tasks
let task t i = t.tasks.(i)
let tasks t = Array.copy t.tasks

let hyper_period t =
  Lepts_util.Num_ext.lcm_list
    (Array.to_list (Array.map (fun (task : Task.t) -> task.period) t.tasks))

let utilization t ~power =
  Array.fold_left
    (fun acc (task : Task.t) ->
      acc
      +. Lepts_power.Model.max_frequency_utilization power ~cycles:task.wcec
           ~period:(float_of_int task.period))
    0. t.tasks

let scale_wcec_to_utilization t ~power ~target =
  if target <= 0. then invalid_arg "Task_set.scale_wcec_to_utilization: target";
  let current = utilization t ~power in
  let factor = target /. current in
  let scaled =
    Array.map
      (fun (task : Task.t) ->
        Task.create ~name:task.name ~period:task.period ~wcec:(task.wcec *. factor)
          ~acec:(task.acec *. factor) ~bcec:(task.bcec *. factor))
      t.tasks
  in
  { tasks = scaled }

let pp ppf t =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_array ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Task.pp)
    t.tasks
