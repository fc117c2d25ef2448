(* Fixed-point scale for histogram sums: integer nano-units make the
   observation path a plain [Atomic.fetch_and_add] (allocation-free and
   commutative across domains) at the cost of 1e-9 resolution. *)
let units_per = 1e9

type counter = { c_cell : int Atomic.t }
type gauge = { g_cell : float Atomic.t }

type histogram = {
  h_upper : float array;
  h_counts : int Atomic.t array;  (* length = length h_upper + 1 (+inf) *)
  h_total : int Atomic.t;
  h_sum_units : int Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registered = {
  r_name : string;
  r_labels : (string * string) list;
  r_help : string;
  r_metric : metric;
}

type t = { lock : Mutex.t; tbl : (string, registered) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 32 }
let default = create ()

let identity name labels =
  name
  ^ String.concat ""
      (List.map (fun (k, v) -> "\x00" ^ k ^ "\x01" ^ v) labels)

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Get-or-create under the registry lock. [make] builds the metric,
   [check] validates an existing binding and extracts the right kind. *)
let register t ~name ~labels ~help ~make ~check =
  let labels = sort_labels labels in
  let id = identity name labels in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | Some r -> check r.r_metric
      | None ->
        let m, v = make () in
        Hashtbl.add t.tbl id { r_name = name; r_labels = labels; r_help = help; r_metric = m };
        v)

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " already registered with another kind")

let counter ?(help = "") ?(labels = []) t name =
  register t ~name ~labels ~help
    ~make:(fun () ->
      let c = { c_cell = Atomic.make 0 } in
      (Counter c, c))
    ~check:(function Counter c -> c | _ -> kind_error name)

let gauge ?(help = "") ?(labels = []) t name =
  register t ~name ~labels ~help
    ~make:(fun () ->
      let g = { g_cell = Atomic.make 0. } in
      (Gauge g, g))
    ~check:(function Gauge g -> g | _ -> kind_error name)

let histogram ?(help = "") ?(labels = []) ~buckets t name =
  let n = Array.length buckets in
  for i = 0 to n - 1 do
    if not (Float.is_finite buckets.(i)) then
      invalid_arg "Metrics.histogram: bucket bounds must be finite";
    if i > 0 && buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
  done;
  register t ~name ~labels ~help
    ~make:(fun () ->
      let h =
        { h_upper = Array.copy buckets;
          h_counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
          h_total = Atomic.make 0;
          h_sum_units = Atomic.make 0 }
      in
      (Histogram h, h))
    ~check:(function
      | Histogram h ->
        if h.h_upper <> buckets then
          invalid_arg ("Metrics: histogram " ^ name ^ " already registered with other buckets");
        h
      | _ -> kind_error name)

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters only go up";
  ignore (Atomic.fetch_and_add c.c_cell by)

let counter_value c = Atomic.get c.c_cell
let set g v = Atomic.set g.g_cell v

let observe h v =
  let n = Array.length h.h_upper in
  (* Linear scan: bucket arrays are short (<= ~16) and the scan is
     branch-predictable; no allocation either way. *)
  let i = ref 0 in
  while !i < n && h.h_upper.(!i) < v do
    i := !i + 1
  done;
  ignore (Atomic.fetch_and_add h.h_counts.(!i) 1);
  ignore (Atomic.fetch_and_add h.h_total 1);
  ignore (Atomic.fetch_and_add h.h_sum_units (int_of_float (v *. units_per)))

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { upper : float array; counts : int array; sum : float; count : int }

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

let sample_of r =
  let value =
    match r.r_metric with
    | Counter c -> Counter_v (Atomic.get c.c_cell)
    | Gauge g -> Gauge_v (Atomic.get g.g_cell)
    | Histogram h ->
      Histogram_v
        { upper = Array.copy h.h_upper;
          counts = Array.map Atomic.get h.h_counts;
          sum = float_of_int (Atomic.get h.h_sum_units) /. units_per;
          count = Atomic.get h.h_total }
  in
  { name = r.r_name; labels = r.r_labels; help = r.r_help; value }

let snapshot t =
  let all =
    with_lock t (fun () -> Hashtbl.fold (fun _ r acc -> r :: acc) t.tbl [])
  in
  List.map sample_of
    (List.sort
       (fun a b ->
         match String.compare a.r_name b.r_name with
         | 0 -> compare a.r_labels b.r_labels
         | c -> c)
       all)

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ r ->
          match r.r_metric with
          | Counter c -> Atomic.set c.c_cell 0
          | Gauge g -> Atomic.set g.g_cell 0.
          | Histogram h ->
            Array.iter (fun cell -> Atomic.set cell 0) h.h_counts;
            Atomic.set h.h_total 0;
            Atomic.set h.h_sum_units 0)
        t.tbl)
