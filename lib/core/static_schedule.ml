module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance
module Model = Lepts_power.Model

type t = {
  plan : Plan.t;
  power : Model.t;
  end_times : float array;
  quotas : float array;
}

let create ~plan ~power ~end_times ~quotas =
  let m = Array.length plan.Plan.order in
  if Array.length end_times <> m || Array.length quotas <> m then
    invalid_arg "Static_schedule.create: vector length mismatch";
  Array.iter
    (fun q -> if q < 0. then invalid_arg "Static_schedule.create: negative quota")
    quotas;
  { plan; power; end_times = Array.copy end_times; quotas = Array.copy quotas }

let size t = Array.length t.end_times

let predicted_energy t ~mode =
  let totals = Objective.instance_totals mode t.plan in
  Objective.eval_ws (Workspace.create t.plan) ~power:t.power ~totals ~e:t.end_times
    ~w_hat:t.quotas

let worst_case_voltages t =
  let power = t.power in
  let m = Array.length t.end_times in
  let v = Array.make m 0. in
  let cursor = ref 0. in
  for k = 0 to m - 1 do
    let sub = t.plan.Plan.order.(k) in
    if t.quotas.(k) > 0. then begin
      let start = Float.max sub.Sub.release !cursor in
      let window = t.end_times.(k) -. start in
      v.(k) <-
        (if window <= 0. then power.Model.v_max
         else
           Model.voltage_for_clamped power ~cycles:t.quotas.(k)
             ~duration:window);
      cursor := t.end_times.(k)
    end
  done;
  v

let pp ppf t =
  Format.fprintf ppf "static schedule (%d sub-instances)@." (size t);
  Array.iteri
    (fun k (sub : Sub.t) ->
      Format.fprintf ppf "  %-9s r=%-6g b=%-6g e=%-8.4g q=%-8.4g@." (Sub.label sub)
        sub.Sub.release sub.Sub.boundary t.end_times.(k) t.quotas.(k))
    t.plan.Plan.order
