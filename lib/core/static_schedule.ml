module Plan = Lepts_preempt.Plan
module Sub = Lepts_preempt.Sub_instance

type t = {
  plan : Plan.t;
  power : Lepts_power.Model.t;
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
  Objective.eval ~plan:t.plan ~power:t.power ~totals ~e:t.end_times ~w_hat:t.quotas

let pp ppf t =
  Format.fprintf ppf "static schedule (%d sub-instances)@." (size t);
  Array.iteri
    (fun k (sub : Sub.t) ->
      Format.fprintf ppf "  %-9s r=%-6g b=%-6g e=%-8.4g q=%-8.4g@." (Sub.label sub)
        sub.Sub.release sub.Sub.boundary t.end_times.(k) t.quotas.(k))
    t.plan.Plan.order
