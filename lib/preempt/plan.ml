module Task = Lepts_task.Task
module Task_set = Lepts_task.Task_set

type t = {
  task_set : Task_set.t;
  order : Sub_instance.t array;
  instance_subs : int array array array;
  next_in_instance : int array;
}

(* Successor order-index of each sub-instance within its instance
   (-1 for the last segment), derived once so runtime consumers (e.g.
   the solver's feasibility repair) avoid an O(segments) rescan per
   lookup. *)
let successor_index ~size instance_subs =
  let next = Array.make size (-1) in
  Array.iter
    (Array.iter (fun idxs ->
         for pos = 0 to Array.length idxs - 2 do
           next.(idxs.(pos)) <- idxs.(pos + 1)
         done))
    instance_subs;
  next

(* Split points of instance [j] of task [i]: releases of every
   higher-priority task strictly inside the window, in ticks. *)
let split_points ts ~task ~window_start ~window_end =
  let module ISet = Set.Make (Int) in
  let points = ref ISet.empty in
  for h = 0 to task - 1 do
    let period = (Task_set.task ts h).Task.period in
    (* First multiple of [period] strictly greater than window_start. *)
    let first = ((window_start / period) + 1) * period in
    let r = ref first in
    while !r < window_end do
      points := ISet.add !r !points;
      r := !r + period
    done
  done;
  ISet.elements !points

let segments_of_instance ts ~task ~instance =
  let period = (Task_set.task ts task).Task.period in
  let window_start = instance * period in
  let window_end = window_start + period in
  let cuts = split_points ts ~task ~window_start ~window_end in
  let bounds = (window_start :: cuts) @ [ window_end ] in
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b) :: pair rest
    | [ _ ] | [] -> []
  in
  pair bounds

let raw_sub_instances ts =
  let n = Task_set.size ts in
  let hyper = Task_set.hyper_period ts in
  let subs = ref [] in
  for i = 0 to n - 1 do
    let period = (Task_set.task ts i).Task.period in
    let instances = hyper / period in
    for j = 0 to instances - 1 do
      let deadline = float_of_int ((j + 1) * period) in
      List.iteri
        (fun k (a, b) ->
          subs :=
            Sub_instance.
              { index = -1; task = i; instance = j; segment = k;
                release = float_of_int a; boundary = float_of_int b; deadline }
            :: !subs)
        (segments_of_instance ts ~task:i ~instance:j)
    done
  done;
  !subs

let sub_instance_count ts =
  let n = Task_set.size ts in
  let hyper = Task_set.hyper_period ts in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let period = (Task_set.task ts i).Task.period in
    for j = 0 to (hyper / period) - 1 do
      count := !count + List.length (segments_of_instance ts ~task:i ~instance:j)
    done
  done;
  !count

let expand ts =
  let subs = raw_sub_instances ts in
  let arr = Array.of_list subs in
  (* Total order: by release, then priority (0 = highest first).
     Segments of one instance have strictly increasing releases, so
     they automatically appear in segment order. *)
  Array.sort
    (fun (a : Sub_instance.t) (b : Sub_instance.t) ->
      match Float.compare a.release b.release with
      | 0 -> (
        match compare a.task b.task with 0 -> compare a.segment b.segment | c -> c)
      | c -> c)
    arr;
  let order = Array.mapi (fun k (s : Sub_instance.t) -> { s with index = k }) arr in
  let n = Task_set.size ts in
  let hyper = Task_set.hyper_period ts in
  let instance_subs =
    Array.init n (fun i ->
        let period = (Task_set.task ts i).Task.period in
        Array.make (hyper / period) [||])
  in
  (* Collect order indices per instance, preserving segment order. *)
  let buckets = Array.init n (fun i ->
      let period = (Task_set.task ts i).Task.period in
      Array.make (hyper / period) []) in
  Array.iter
    (fun (s : Sub_instance.t) ->
      buckets.(s.task).(s.instance) <- s.index :: buckets.(s.task).(s.instance))
    order;
  Array.iteri
    (fun i per_instance ->
      Array.iteri
        (fun j idxs -> instance_subs.(i).(j) <- Array.of_list (List.rev idxs))
        per_instance)
    buckets;
  { task_set = ts; order; instance_subs;
    next_in_instance = successor_index ~size:(Array.length order) instance_subs }

let expand_nonpreemptive ts =
  let n = Task_set.size ts in
  let hyper = Task_set.hyper_period ts in
  let subs = ref [] in
  for i = 0 to n - 1 do
    let period = (Task_set.task ts i).Task.period in
    for j = 0 to (hyper / period) - 1 do
      let release = float_of_int (j * period) in
      let deadline = float_of_int ((j + 1) * period) in
      subs :=
        Sub_instance.
          { index = -1; task = i; instance = j; segment = 0; release;
            boundary = deadline; deadline }
        :: !subs
    done
  done;
  let arr = Array.of_list !subs in
  (* Execution order of the jobs: release, then earliest deadline, then
     priority — the natural non-preemptive dispatch order. *)
  Array.sort
    (fun (a : Sub_instance.t) (b : Sub_instance.t) ->
      match Float.compare a.release b.release with
      | 0 -> (
        match Float.compare a.deadline b.deadline with
        | 0 -> compare a.task b.task
        | c -> c)
      | c -> c)
    arr;
  let order = Array.mapi (fun k (s : Sub_instance.t) -> { s with index = k }) arr in
  let instance_subs =
    Array.init n (fun i ->
        let period = (Task_set.task ts i).Task.period in
        Array.make (hyper / period) [||])
  in
  Array.iter
    (fun (s : Sub_instance.t) ->
      instance_subs.(s.task).(s.instance) <- [| s.index |])
    order;
  { task_set = ts; order; instance_subs;
    next_in_instance = successor_index ~size:(Array.length order) instance_subs }

let hyper_period t = float_of_int (Task_set.hyper_period t.task_set)
let size t = Array.length t.order

let pp_timeline ppf t =
  Format.fprintf ppf "hyper-period %g, %d sub-instances@." (hyper_period t) (size t);
  Array.iter
    (fun s -> Format.fprintf ppf "  %2d: %a@." s.Sub_instance.index Sub_instance.pp s)
    t.order
