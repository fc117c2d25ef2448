(* Shared pieces of the benchmark: the clock, order statistics, the
   in-memory span recorder of the traced run, and the metric record a
   workload hands back to bench.ml. *)

let now = Unix.gettimeofday

let power = Lepts_power.Model.ideal ~v_min:0.5 ~v_max:4.0 ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Exact float identity, NaN included: the output checks compare bits,
   never values. *)
let bits = Int64.bits_of_float

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> invalid_arg "median of no samples"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile of [xs] that still has at least ten samples
   above it: (percentile, value, samples beyond). Nearest-rank, over a
   fixed ladder so names stay comparable between runs. [None] when even
   the median has fewer than ten samples beyond it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let at p =
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    (p, a.(rank - 1), n - rank)
  in
  List.find_map
    (fun p ->
      let ((_, _, beyond) as r) = at p in
      if beyond >= 10 then Some r else None)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Compacting before the timed work starts every run's first unit from
   the same live heap. It does not lower the top heap size: that is a
   high-water mark over the whole process, set-up included. *)
let settle () = Gc.compact ()

(* The top major-heap size so far, a high-water mark over the whole
   process. Workloads read it before and after their first unit of work
   (a pass or a batch) and print both, so a reader can tell whether the
   unit, rather than its inputs' preparation, set the mark. Later units
   repeat the same work and how many fit in a run depends on timing, so
   the metric is read after the first. *)
let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let heap_note ~before ~after =
  Printf.sprintf "heap_mb: top heap %.3f MB before the first unit, %.3f MB after it%s" before
    after
    (if after > before then "" else " (the first unit did not raise the mark)")

(* Whether one more unit of work, lasting about [last] seconds, still
   ends within [seconds] of [start]. Runs stop short of their budget
   rather than overrun it, so the number of units a run makes depends
   on timing only near the boundary. *)
let another ~start ~seconds ~last = now () -. start +. last <= seconds

(* Set-up samples. Each is taken in a fresh process, so that it starts
   from a small heap with no other domain alive, as a user's process
   does; in the measuring process, on a 2-vCPU VM, a parked pool domain
   alone doubled a sample's time and its spread. The machine's speed moves by tens of
   percent within seconds, so samples taken back to back see one moment
   of it: workloads take one at each unit boundary over the run (after
   each Fig6a point, plan solve or batch of serve waves) and keep the
   time one costs out of any timed interval it falls inside. *)
module Setup = struct
  type t = { argv : string array; mutable reps : int list; mutable samples : float list }

  (* Samples run [bench.exe --setup-sample WORKLOAD --out DIR]. *)
  let create ~workload ~out =
    { argv = [| Sys.executable_name; "--setup-sample"; workload; "--out"; out |];
      reps = []; samples = [] }

  (* The child's side: repeat the set-up, doubling the count, until one
     batch spans 20 ms, and print that batch's time per set-up and its
     count. *)
  let sample once =
    let rec go reps =
      let (), s =
        time (fun () ->
            for _ = 1 to reps do
              once ()
            done)
      in
      if s >= 0.02 || reps >= 1 lsl 16 then Printf.printf "%.17g %d\n" (s /. float_of_int reps) reps
      else go (2 * reps)
    in
    go 1

  (* Take one sample; the result is the wall time it cost. *)
  let take t =
    let t0 = now () in
    let ic = Unix.open_process_args_in t.argv.(0) t.argv in
    let line = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "a set-up sample process failed");
    Scanf.sscanf line " %f %d" (fun s r ->
        t.samples <- s :: t.samples;
        t.reps <- r :: t.reps);
    now () -. t0

  (* Runs too short for nine boundaries finish their samples at the end. *)
  let median t =
    while List.length t.samples < 9 do
      ignore (take t)
    done;
    median t.samples

  let note t =
    Printf.sprintf
      "setup_s: median of %d samples, each in a fresh process, of %d to %d set-up(s)"
      (List.length t.samples) (List.fold_left min max_int t.reps) (List.fold_left max 0 t.reps)
end

(* Validate.check's relative tolerance is 1e-6. A schedule it rejects is
   checked again on a quarter-decade ladder of looser tolerances, and the
   first that passes is its violation margin. Past [gross_margin] the
   ladder stops at infinity: a schedule that breaks a bound by more than
   1 % is no longer a rounding defect but a wrong answer, and fails the
   run. *)
let gross_margin = 1e-2

let violation_margin schedule =
  let rec up k =
    if k > 16 then infinity
    else
      let tol = 1e-6 *. (10. ** (float_of_int k /. 4.)) in
      if Lepts_core.Validate.is_feasible ~tol schedule then tol else up (k + 1)
  in
  up 1

(* A workload's outcome: whether every output check held,
   the units it attempted and failed, named metrics with their units,
   and free-form lines (context, sample counts, diagnostics) printed
   before the result. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;
}

(* A polymorphic wrapper around library calls: the traced run records a
   span, the untraced run calls straight through. *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }

let check_failed fmt = Printf.ksprintf (fun m -> failwith ("output check: " ^ m)) fmt

(* --- spans ----------------------------------------------------------------- *)

(* The traced run's spans, recorded by the benchmark around its calls
   into the library and kept in memory until the run ends. A recorder
   belongs to one domain at a time: pool work gets one recorder per
   unit, grafted under the span that submitted it with [adopt]. *)
module Spans = struct
  type span = {
    name : string;
    id : string;  (** task set or request the span worked for *)
    parent : int;  (** index in the same recorder; -1 for a root *)
    t0 : float;
    mutable t1 : float;
  }

  type t = { mutable spans : span array; mutable len : int; mutable open_ : int list }

  let create () = { spans = [||]; len = 0; open_ = [] }

  let push r s =
    if r.len = Array.length r.spans then begin
      let grown = Array.make (max 64 (2 * r.len)) s in
      Array.blit r.spans 0 grown 0 r.len;
      r.spans <- grown
    end;
    r.spans.(r.len) <- s;
    r.len <- r.len + 1;
    r.len - 1

  let current r = match r.open_ with i :: _ -> i | [] -> -1

  let open_span r ~name ~id =
    let i = push r { name; id; parent = current r; t0 = now (); t1 = nan } in
    r.open_ <- i :: r.open_;
    i

  let close_span r i =
    r.spans.(i).t1 <- now ();
    match r.open_ with
    | j :: rest when j = i -> r.open_ <- rest
    | _ -> invalid_arg "Spans.close_span: spans must close innermost first"

  let with_ r ~name ?(id = "") f =
    let i = open_span r ~name ~id in
    Fun.protect ~finally:(fun () -> close_span r i) f

  (* A span whose bounds were observed rather than wrapped (engine
     hooks): recorded as a closed child of the innermost open span. *)
  let interval r ~name ?(id = "") ~t0 ~t1 () =
    ignore (push r { name; id; parent = current r; t0; t1 })

  (* Copy [child]'s spans into [r], its roots becoming children of the
     innermost open span of [r]. *)
  let adopt r child =
    let base = r.len and root = current r in
    for k = 0 to child.len - 1 do
      let s = child.spans.(k) in
      ignore
        (push r { s with parent = (if s.parent < 0 then root else s.parent + base) })
    done

  let duration s = s.t1 -. s.t0

  (* Self time per span name: each span's duration minus what its
     direct children cover. Children of one span run on one domain,
     one after another, so they never overlap. *)
  let self_times r =
    let self = Array.init r.len (fun k -> duration r.spans.(k)) in
    for k = 0 to r.len - 1 do
      let p = r.spans.(k).parent in
      if p >= 0 then self.(p) <- self.(p) -. duration r.spans.(k)
    done;
    let tbl = Hashtbl.create 16 in
    for k = 0 to r.len - 1 do
      let name = r.spans.(k).name in
      let prev = Option.value (Hashtbl.find_opt tbl name) ~default:0. in
      Hashtbl.replace tbl name (prev +. self.(k))
    done;
    tbl

  let self r name =
    Option.value (Hashtbl.find_opt (self_times r) name) ~default:0.

  let total r name =
    let acc = ref 0. in
    for k = 0 to r.len - 1 do
      if r.spans.(k).name = name then acc := !acc +. duration r.spans.(k)
    done;
    !acc

  let durations r name =
    let acc = ref [] in
    for k = r.len - 1 downto 0 do
      if r.spans.(k).name = name then acc := duration r.spans.(k) :: !acc
    done;
    !acc

  (* One tab-separated line per span: index, parent, name, id, start
     and end in seconds since the first span opened. *)
  let write r ~path =
    let origin = if r.len = 0 then 0. else r.spans.(0).t0 in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "index\tparent\tname\tid\tstart_s\tend_s\n";
        for k = 0 to r.len - 1 do
          let s = r.spans.(k) in
          Printf.fprintf oc "%d\t%d\t%s\t%s\t%.9f\t%.9f\n" k s.parent s.name s.id
            (s.t0 -. origin) (s.t1 -. origin)
        done)
end
