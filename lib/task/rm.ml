let wcet ts ~power i =
  let task = Task_set.task ts i in
  Lepts_power.Model.min_duration power ~cycles:task.Task.wcec

let response_time ts ~power i =
  let deadline = float_of_int (Task_set.task ts i).Task.period in
  let own = wcet ts ~power i in
  (* Fixed-point iteration; response times only grow, so exceeding the
     deadline is a definitive "no". *)
  let interference r =
    let acc = ref 0. in
    for j = 0 to i - 1 do
      let period = float_of_int (Task_set.task ts j).Task.period in
      acc := !acc +. (Float.of_int (int_of_float (Float.ceil (r /. period))) *. wcet ts ~power j)
    done;
    !acc
  in
  let rec iterate r guard =
    if guard = 0 then None
    else
      let r' = own +. interference r in
      if r' > deadline then None
      else if Lepts_util.Num_ext.approx_equal ~eps:1e-12 r r' then Some r'
      else iterate r' (guard - 1)
  in
  iterate own 10_000

let schedulable ts ~power =
  let n = Task_set.size ts in
  let rec go i = i >= n || (Option.is_some (response_time ts ~power i) && go (i + 1)) in
  go 0
