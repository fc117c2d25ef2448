type delay =
  | Ideal of { c0 : float }
  | Alpha of { k : float; v_th : float; alpha : float }

type t = { delay : delay; c_eff : float; v_min : float; v_max : float }

let create ?(c_eff = 1.) ?(v_min = 1.) ?(v_max = 4.) delay =
  if c_eff <= 0. then invalid_arg "Power.Model.create: c_eff must be positive";
  if v_min <= 0. || v_min > v_max then
    invalid_arg "Power.Model.create: need 0 < v_min <= v_max";
  (match delay with
  | Ideal { c0 } -> if c0 <= 0. then invalid_arg "Power.Model.create: c0 must be positive"
  | Alpha { k; v_th; alpha } ->
    if k <= 0. then invalid_arg "Power.Model.create: k must be positive";
    if v_th < 0. then invalid_arg "Power.Model.create: v_th must be non-negative";
    if alpha < 1. then invalid_arg "Power.Model.create: alpha must be >= 1";
    if v_min <= v_th then invalid_arg "Power.Model.create: v_min must exceed v_th");
  { delay; c_eff; v_min; v_max }

let ideal ?c_eff ?v_min ?v_max ?(c0 = 1.) () = create ?c_eff ?v_min ?v_max (Ideal { c0 })

let cycle_time t ~v =
  match t.delay with
  | Ideal { c0 } ->
    if v <= 0. then invalid_arg "Power.Model.cycle_time: voltage must be positive";
    c0 /. v
  | Alpha { k; v_th; alpha } ->
    if v <= v_th then invalid_arg "Power.Model.cycle_time: voltage must exceed v_th";
    k *. v /. ((v -. v_th) ** alpha)

let exec_time t ~v ~cycles = cycles *. cycle_time t ~v
let energy t ~v ~cycles = t.c_eff *. v *. v *. cycles

let voltage_for t ~cycles ~duration =
  if cycles <= 0. then invalid_arg "Power.Model.voltage_for: cycles must be positive";
  if duration <= 0. then invalid_arg "Power.Model.voltage_for: duration must be positive";
  match t.delay with
  | Ideal { c0 } -> c0 *. cycles /. duration
  | Alpha { v_th; _ } ->
    (* exec_time is strictly decreasing in v on (v_th, inf): bisect. *)
    let target = duration in
    let lo = ref (v_th +. 1e-12) and hi = ref (Float.max t.v_max 1.) in
    while exec_time t ~v:!hi ~cycles > target do
      hi := !hi *. 2.;
      if !hi > 1e9 then invalid_arg "Power.Model.voltage_for: duration unreachable"
    done;
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if exec_time t ~v:mid ~cycles > target then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)

let min_duration t ~cycles = exec_time t ~v:t.v_max ~cycles

let voltage_for_clamped t ~cycles ~duration =
  match t.delay with
  | Alpha _ when cycles > 0. && duration > 0. && min_duration t ~cycles > duration ->
    (* The exact voltage lies above [v_max], where the clamp lands
       anyway; the bisection's bracket would grow towards it and may
       pass its 1e9 V limit. *)
    t.v_max
  | Ideal _ | Alpha _ ->
    Lepts_util.Num_ext.clamp ~lo:t.v_min ~hi:t.v_max (voltage_for t ~cycles ~duration)

let max_frequency_utilization t ~cycles ~period =
  if period <= 0. then invalid_arg "Power.Model.max_frequency_utilization: period";
  min_duration t ~cycles /. period
