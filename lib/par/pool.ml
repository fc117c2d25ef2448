type stats = {
  jobs : int;
  items : int;
  elapsed_s : float;
  per_domain_items : int array;
  per_domain_busy_s : float array;
}

let default_jobs () = Domain.recommended_domain_count ()

let throughput s = if s.elapsed_s > 0. then float_of_int s.items /. s.elapsed_s else 0.

let pp_stats ppf s =
  Format.fprintf ppf "%d items in %.2fs (%.0f/s) on %d domain(s)" s.items s.elapsed_s
    (throughput s) s.jobs;
  if s.jobs > 1 then begin
    Format.fprintf ppf " [";
    Array.iteri
      (fun d n ->
        let util =
          if s.elapsed_s > 0. then 100. *. s.per_domain_busy_s.(d) /. s.elapsed_s
          else 0.
        in
        Format.fprintf ppf "%sd%d: %d @@ %.0f%%" (if d = 0 then "" else "; ") d n util)
      s.per_domain_items;
    Format.fprintf ppf "]"
  end

let now () = Unix.gettimeofday ()

let run_sequential ~n ~f =
  let t0 = now () in
  let results = Array.init n f in
  let elapsed = now () -. t0 in
  ( results,
    { jobs = 1; items = n; elapsed_s = elapsed; per_domain_items = [| n |];
      per_domain_busy_s = [| elapsed |] } )

(* A batch: the chunked atomic index queue, type-erased into a closure
   that computes one index and stores the result at that index on the
   caller's side. *)
type job = {
  j_n : int;
  j_chunk : int;
  j_next : int Atomic.t;
  j_run : int -> unit;
  j_error : exn option Atomic.t;
}

type t = {
  size : int;  (** worker count including the submitting domain *)
  lock : Mutex.t;  (** guards [epoch], [job], [finished], [stop] *)
  work : Condition.t;  (** workers park here between batches *)
  idle : Condition.t;  (** the submitter waits here for batch completion *)
  submit_lock : Mutex.t;  (** serialises whole submits (and shutdown) *)
  mutable epoch : int;
  mutable job : job option;
  mutable finished : int;
  mutable stop : bool;
  mutable closed : bool;
  items : int array;
  busy : float array;
  mutable domains : unit Domain.t array;
}

(* Set on pool worker domains (and on the submitting domain while it
   drains its own batch): a nested [run]/[submit] from inside [f] would
   otherwise deadlock waiting for workers that are busy running [f]
   itself, so it degrades to the sequential path — same results by the
   indexed-reduction invariant, just no extra parallelism. *)
let in_pool_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_pool_worker

(* Drain the batch from worker [d]: claim chunks off the atomic queue
   until the index space is exhausted or some worker failed. Busy time
   accumulates per chunk — the time actually spent inside [f] — so
   [per_domain_busy_s / elapsed_s] is a real utilisation, not the
   whole-worker wall time (which includes queue-wait and, on a
   persistent pool, would always read ~100%). *)
let drain (t : t) d (j : job) =
  let rec loop () =
    let lo = Atomic.fetch_and_add j.j_next j.j_chunk in
    if lo < j.j_n && Atomic.get j.j_error = None then begin
      let hi = min j.j_n (lo + j.j_chunk) in
      let c0 = now () in
      (try
         for i = lo to hi - 1 do
           j.j_run i
         done;
         t.items.(d) <- t.items.(d) + (hi - lo)
       with e -> ignore (Atomic.compare_and_set j.j_error None (Some e)));
      t.busy.(d) <- t.busy.(d) +. (now () -. c0);
      loop ()
    end
  in
  loop ()

let worker t d () =
  Domain.DLS.set in_pool_worker true;
  let seen = ref 0 in
  Mutex.lock t.lock;
  let rec loop () =
    if t.stop then Mutex.unlock t.lock
    else if t.epoch = !seen then begin
      Condition.wait t.work t.lock;
      loop ()
    end
    else begin
      seen := t.epoch;
      let j = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.lock;
      drain t d j;
      Mutex.lock t.lock;
      t.finished <- t.finished + 1;
      if t.finished = t.size - 1 then Condition.broadcast t.idle;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be positive";
  let t =
    { size = jobs; lock = Mutex.create (); work = Condition.create ();
      idle = Condition.create (); submit_lock = Mutex.create (); epoch = 0;
      job = None; finished = 0; stop = false; closed = false;
      items = Array.make jobs 0; busy = Array.make jobs 0.; domains = [||] }
  in
  t.domains <- Array.init (jobs - 1) (fun d -> Domain.spawn (worker t (d + 1)));
  t

let size t = t.size

let submit t ~n ~f =
  if n < 0 then invalid_arg "Pool.submit: n must be non-negative";
  if t.size = 1 || n = 0 || in_worker () then begin
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    run_sequential ~n ~f
  end
  else begin
    let results = Array.make n None in
    let chunk = max 1 (n / (t.size * 8)) in
    let j =
      { j_n = n; j_chunk = chunk; j_next = Atomic.make 0;
        j_run = (fun i -> results.(i) <- Some (f i));
        j_error = Atomic.make None }
    in
    Mutex.lock t.submit_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.submit_lock) @@ fun () ->
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    Array.fill t.items 0 t.size 0;
    Array.fill t.busy 0 t.size 0.;
    let t0 = now () in
    Mutex.lock t.lock;
    t.job <- Some j;
    t.epoch <- t.epoch + 1;
    t.finished <- 0;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* The submitting domain participates as worker 0. [drain] never
       raises ([f] failures land in [j_error]), so the flag restore is
       unconditional. *)
    let saved = Domain.DLS.get in_pool_worker in
    Domain.DLS.set in_pool_worker true;
    drain t 0 j;
    Domain.DLS.set in_pool_worker saved;
    Mutex.lock t.lock;
    while t.finished < t.size - 1 do
      Condition.wait t.idle t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock;
    let elapsed = now () -. t0 in
    (match Atomic.get j.j_error with Some e -> raise e | None -> ());
    let out =
      Array.map (function Some v -> v | None -> assert false (* every index claimed *))
        results
    in
    ( out,
      { jobs = t.size; items = n; elapsed_s = elapsed;
        per_domain_items = Array.copy t.items;
        per_domain_busy_s = Array.copy t.busy } )
  end

let shutdown t =
  Mutex.lock t.submit_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.submit_lock) @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

(* --- Shared pools behind the [run] wrapper ----------------------------- *)

(* One process-wide pool per worker count, created on first use and
   joined at exit. [run] clamps [jobs] to [n] exactly as the historical
   per-call API did, so the handful of distinct clamped counts a
   process uses each get one pool — workers spawn once, not per call. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 8

let registry_lock = Mutex.create ()

let at_exit_installed = ref false

let shutdown_shared () =
  Mutex.lock registry_lock;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
  Hashtbl.reset registry;
  Mutex.unlock registry_lock;
  List.iter shutdown pools

let shared ~jobs =
  if jobs < 1 then invalid_arg "Pool.shared: jobs must be positive";
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) @@ fun () ->
  match Hashtbl.find_opt registry jobs with
  | Some p when not p.closed -> p
  | _ ->
    let p = create ~jobs in
    Hashtbl.replace registry jobs p;
    if not !at_exit_installed then begin
      at_exit_installed := true;
      at_exit shutdown_shared
    end;
    p

let run ~jobs ~n ~f =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be positive";
  if n < 0 then invalid_arg "Pool.run: n must be non-negative";
  let jobs = min jobs (max 1 n) in
  if jobs = 1 || in_worker () then run_sequential ~n ~f else submit (shared ~jobs) ~n ~f
