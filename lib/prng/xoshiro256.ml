type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let create ~seed =
  let sm = Splitmix64.create (Int64.of_int seed) in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  (* Seed a fresh SplitMix64 from this stream, then expand as in
     [create]; keeps the parent and child streams decorrelated. *)
  let sm = Splitmix64.create (next_int64 t) in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  { s0; s1; s2; s3 }

let split_key t ~key =
  (* Absorb the full 256-bit state and the counter through a SplitMix64
     chain, then expand as in [create]. [t] is never advanced, so the
     child is a pure function of (state, key): deriving children in any
     traversal order — or from concurrent domains — yields identical
     streams. *)
  let absorb h x = Splitmix64.next (Splitmix64.create (Int64.logxor h x)) in
  let h = Int64.of_int key in
  let h = absorb h t.s0 in
  let h = absorb h t.s1 in
  let h = absorb h t.s2 in
  let h = absorb h t.s3 in
  let sm = Splitmix64.create h in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  { s0; s1; s2; s3 }

let float t =
  (* Top 53 bits scaled by 2^-53: uniform on [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Xoshiro256.int: bound must be positive";
  (* Rejection sampling over the smallest covering power-of-two mask. *)
  let rec mask_for m = if m >= bound - 1 then m else mask_for ((m * 2) + 1) in
  let mask = mask_for 1 in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (next_int64 t) (Int64.of_int mask)) in
    if v < bound then v else draw ()
  in
  draw ()
