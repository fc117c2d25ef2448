module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance

let csv_header =
  "index,label,task,instance,segment,release,boundary,deadline,end_time,quota,worst_voltage"

let float_cell x = Printf.sprintf "%.17g" x

let schedule_to_rows (s : Static_schedule.t) =
  let v = Static_schedule.worst_case_voltages s in
  Array.to_list
    (Array.map
       (fun (sub : Sub.t) ->
         let k = sub.Sub.index in
         [ string_of_int k; Sub.label sub; string_of_int (sub.Sub.task + 1);
           string_of_int (sub.Sub.instance + 1); string_of_int (sub.Sub.segment + 1);
           float_cell sub.Sub.release; float_cell sub.Sub.boundary;
           float_cell sub.Sub.deadline;
           float_cell s.Static_schedule.end_times.(k);
           float_cell s.Static_schedule.quotas.(k); float_cell v.(k) ])
       s.Static_schedule.plan.Plan.order)

let schedule_to_csv s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," row);
      Buffer.add_char buf '\n')
    (schedule_to_rows s);
  Buffer.contents buf
