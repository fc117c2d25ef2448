type agg = { path : string; count : int; total_s : float; max_s : float }

type cell = { mutable n : int; mutable total : float; mutable max : float }

(* One table per domain, created lazily through domain-local storage:
   recording never takes a lock. The global list (mutex-protected, only
   touched on table creation / report / reset) keeps every table
   reachable after its domain dies, so a pool's spans survive the
   join. *)
type table = { mutable stack : string list; cells : (string, cell) Hashtbl.t }

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b

let registry_lock = Mutex.create ()
let registry : table list ref = ref []

let dls_key =
  Domain.DLS.new_key (fun () ->
      let t = { stack = []; cells = Hashtbl.create 16 } in
      Mutex.lock registry_lock;
      registry := t :: !registry;
      Mutex.unlock registry_lock;
      t)

let current () =
  match (Domain.DLS.get dls_key).stack with [] -> None | p :: _ -> Some p

let record t path dt =
  match Hashtbl.find_opt t.cells path with
  | Some c ->
    c.n <- c.n + 1;
    c.total <- c.total +. dt;
    if dt > c.max then c.max <- dt
  | None -> Hashtbl.add t.cells path { n = 1; total = dt; max = dt }

let with_ ?parent ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t = Domain.DLS.get dls_key in
    let prefix =
      match parent with
      | Some "" -> ""
      | Some p -> p ^ "/"
      | None -> ( match t.stack with [] -> "" | p :: _ -> p ^ "/")
    in
    let path = prefix ^ name in
    t.stack <- path :: t.stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let dt = Unix.gettimeofday () -. t0 in
        (match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
        record t path dt)
  end

let report () =
  Mutex.lock registry_lock;
  let tables = !registry in
  Mutex.unlock registry_lock;
  let merged : (string, cell) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun path c ->
          match Hashtbl.find_opt merged path with
          | Some m ->
            m.n <- m.n + c.n;
            m.total <- m.total +. c.total;
            if c.max > m.max then m.max <- c.max
          | None -> Hashtbl.add merged path { n = c.n; total = c.total; max = c.max })
        t.cells)
    tables;
  List.sort
    (fun a b -> String.compare a.path b.path)
    (Hashtbl.fold
       (fun path c acc ->
         { path; count = c.n; total_s = c.total; max_s = c.max } :: acc)
       merged [])

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun t ->
      Hashtbl.reset t.cells;
      t.stack <- [])
    !registry;
  Mutex.unlock registry_lock

let pp_report ppf aggs =
  List.iter
    (fun a ->
      Format.fprintf ppf "%-48s %8d x %10.2f ms total %10.3f ms mean@." a.path
        a.count (1e3 *. a.total_s)
        (1e3 *. a.total_s /. float_of_int (max 1 a.count)))
    aggs
