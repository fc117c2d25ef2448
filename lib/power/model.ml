type t = { c0 : float; c_eff : float; v_min : float; v_max : float }

let ideal ?(c_eff = 1.) ?(v_min = 1.) ?(v_max = 4.) ?(c0 = 1.) () =
  if c_eff <= 0. then invalid_arg "Power.Model.ideal: c_eff must be positive";
  if v_min <= 0. || v_min > v_max then
    invalid_arg "Power.Model.ideal: need 0 < v_min <= v_max";
  if c0 <= 0. then invalid_arg "Power.Model.ideal: c0 must be positive";
  { c0; c_eff; v_min; v_max }

let[@inline] cycle_time t ~v =
  if v <= 0. then invalid_arg "Power.Model.cycle_time: voltage must be positive";
  t.c0 /. v

let exec_time t ~v ~cycles = cycles *. cycle_time t ~v
let energy t ~v ~cycles = t.c_eff *. v *. v *. cycles

let[@inline] voltage_for t ~cycles ~duration =
  if cycles <= 0. then invalid_arg "Power.Model.voltage_for: cycles must be positive";
  if duration <= 0. then invalid_arg "Power.Model.voltage_for: duration must be positive";
  t.c0 *. cycles /. duration

(* [t] is a flat float record: a field passed to a function that is
   not inlined, or returned from one, is boxed afresh. These two
   therefore spell out [exec_time] and the clamp (the same operations),
   and the two above are inlined, so each call boxes only its
   result. *)
let min_duration t ~cycles = cycles *. (t.c0 /. t.v_max)

let voltage_for_clamped t ~cycles ~duration =
  let v = voltage_for t ~cycles ~duration in
  if v < t.v_min then t.v_min else if v > t.v_max then t.v_max else v

let max_frequency_utilization t ~cycles ~period =
  if period <= 0. then invalid_arg "Power.Model.max_frequency_utilization: period";
  min_duration t ~cycles /. period
