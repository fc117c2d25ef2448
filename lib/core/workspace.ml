module Plan = Lepts_preempt.Plan

type t = {
  plan : Plan.t;
  m : int;
  (* objective kernels *)
  w_hat : float array;
  w : float array;
  dw : float array;
  (* adjoint step records, struct-of-arrays *)
  st_k : int array;
  st_d : float array;
  st_v : float array;
  st_w : float array;
  st_wq : float array;
  st_clamped : bool array;
  st_guarded : bool array;
  st_sff : bool array;
  mutable st_len : int;
  (* solver frontier recursion and gradient accumulators *)
  q : float array;
  e : float array;
  start : float array;
  start_ff : bool array;
  room : float array;
  g : float array;
  de : float array;
  de_i : float array;
  dq_i : float array;
  dg : float array;
  dq : float array;
  ds : float array;
  (* structure-exploiting solver kernels (DESIGN.md §12) *)
  n_blocks : int;
  blk_off : int array;
  blk_idx : int array;
  blk_task : int array;
  blk_scratch : float array;
  y_prev : float array;
  pen_prefix : float array;
  mutable fwd_valid : bool;
  mutable pen_valid : bool;
}

let max_segments (plan : Plan.t) =
  Array.fold_left
    (fun acc per ->
      Array.fold_left (fun acc idxs -> max acc (Array.length idxs)) acc per)
    1 plan.Plan.instance_subs

(* Flatten the instance -> quota-range map into one index: block [b]
   covers the quota coordinates [blk_idx.[blk_off.(b), blk_off.(b+1))],
   all belonging to one instance of task [blk_task.(b)]. Blocks are
   enumerated in the same (task, instance) order the nested projection
   walks, so a flat loop over blocks visits coordinates in the same
   sequence. *)
let build_block_index (plan : Plan.t) m =
  let subs = plan.Plan.instance_subs in
  let n_blocks = Array.fold_left (fun acc per -> acc + Array.length per) 0 subs in
  let blk_off = Array.make (n_blocks + 1) 0 in
  let blk_idx = Array.make (max m 1) 0 in
  let blk_task = Array.make (max n_blocks 1) 0 in
  let b = ref 0 and pos = ref 0 in
  Array.iteri
    (fun i per ->
      Array.iter
        (fun idxs ->
          blk_task.(!b) <- i;
          blk_off.(!b) <- !pos;
          Array.iter
            (fun k ->
              blk_idx.(!pos) <- k;
              incr pos)
            idxs;
          incr b)
        per)
    subs;
  blk_off.(n_blocks) <- !pos;
  (n_blocks, blk_off, blk_idx, blk_task)

let create (plan : Plan.t) =
  let m = Array.length plan.Plan.order in
  let seg = max_segments plan in
  let n_blocks, blk_off, blk_idx, blk_task = build_block_index plan m in
  { plan; m;
    w_hat = Array.make m 0.;
    w = Array.make m 0.;
    dw = Array.make m 0.;
    st_k = Array.make m 0;
    st_d = Array.make m 0.;
    st_v = Array.make m 0.;
    st_w = Array.make m 0.;
    st_wq = Array.make m 0.;
    st_clamped = Array.make m false;
    st_guarded = Array.make m false;
    st_sff = Array.make m false;
    st_len = 0;
    q = Array.make m 0.;
    e = Array.make m 0.;
    start = Array.make m 0.;
    start_ff = Array.make m false;
    room = Array.make m 0.;
    g = Array.make m 0.;
    de = Array.make m 0.;
    de_i = Array.make m 0.;
    dq_i = Array.make m 0.;
    dg = Array.make m 0.;
    dq = Array.make m 0.;
    ds = Array.make m 0.;
    n_blocks; blk_off; blk_idx; blk_task;
    blk_scratch = Array.make seg 0.;
    y_prev = Array.make (2 * m) nan;
    pen_prefix = Array.make (m + 1) 0.;
    fwd_valid = false;
    pen_valid = false }

let plan t = t.plan
