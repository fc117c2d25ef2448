module Model = Lepts_power.Model
module Static_schedule = Lepts_core.Static_schedule

type t =
  | Greedy
  | Static_voltage
  | Max_speed
  | Greedy_quantized of Lepts_power.Levels.t

let all = [ Greedy; Static_voltage; Max_speed ]

let pp ppf = function
  | Greedy -> Format.fprintf ppf "greedy"
  | Static_voltage -> Format.fprintf ppf "static"
  | Max_speed -> Format.fprintf ppf "max-speed"
  | Greedy_quantized levels ->
    Format.fprintf ppf "greedy-quantized(%d levels)"
      (Array.length (Lepts_power.Levels.levels levels))

let dispatch_voltage t ~schedule ~static_v ~sub ~now ~quota_remaining =
  let power = schedule.Static_schedule.power in
  if quota_remaining <= 0. then invalid_arg "Policy.dispatch_voltage: empty quota";
  match t with
  | Max_speed -> power.Model.v_max
  | Static_voltage -> if static_v.(sub) > 0. then static_v.(sub) else power.Model.v_max
  | Greedy ->
    let window = schedule.Static_schedule.end_times.(sub) -. now in
    if window <= 0. then power.Model.v_max
    else Model.voltage_for_clamped power ~cycles:quota_remaining ~duration:window
  | Greedy_quantized levels ->
    let window = schedule.Static_schedule.end_times.(sub) -. now in
    let continuous =
      if window <= 0. then power.Model.v_max
      else Model.voltage_for_clamped power ~cycles:quota_remaining ~duration:window
    in
    Lepts_power.Levels.quantize_for_deadline levels continuous
