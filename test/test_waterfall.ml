open Lepts_core

let check_arr name expected actual =
  Alcotest.(check (array (float 1e-9))) name expected actual

(* One instance through the plan-wide kernels: the one-block index over
   its quotas in order. *)
let one_block quotas =
  let n = Array.length quotas in
  ([| 0; n |], Array.init n Fun.id)

let split ~quotas ~total =
  let off, idx = one_block quotas in
  let into = Array.make (Array.length quotas) nan in
  Waterfall.distribute_blocks ~off ~idx ~totals:[| [| total |] |] ~quotas ~into;
  into

let backward ~quotas ~total ~adjoint =
  let off, idx = one_block quotas in
  let into = Array.make (Array.length quotas) 0. in
  Waterfall.backward_add_blocks ~off ~idx ~totals:[| [| total |] |] ~quotas ~adjoint
    ~into;
  into

(* The paper's Fig 5 example: ACEC 15, WCEC 30 split over three
   sub-instances of quota 10 each -> executed 10 / 5 / 0. *)
let test_paper_fig5 () =
  check_arr "fig5" [| 10.; 5.; 0. |]
    (split ~quotas:[| 10.; 10.; 10. |] ~total:15.)

let test_total_zero () =
  check_arr "all zero" [| 0.; 0. |] (split ~quotas:[| 3.; 4. |] ~total:0.)

let test_total_equals_sum () =
  check_arr "all full" [| 3.; 4. |] (split ~quotas:[| 3.; 4. |] ~total:7.)

let test_total_exceeds_sum () =
  (* Overflow beyond the quota sum is dropped (callers bound totals by
     the WCEC). *)
  check_arr "capped" [| 3.; 4. |] (split ~quotas:[| 3.; 4. |] ~total:100.)

let test_zero_quotas_passthrough () =
  check_arr "zeros skipped" [| 0.; 5.; 0.; 2. |]
    (split ~quotas:[| 0.; 5.; 0.; 3. |] ~total:7.)

let test_empty () =
  check_arr "empty" [||] (split ~quotas:[||] ~total:0.)

let test_invalid () =
  Alcotest.check_raises "negative total" (Invalid_argument "Waterfall: negative total")
    (fun () -> ignore (split ~quotas:[| 1. |] ~total:(-1.)));
  Alcotest.check_raises "negative quota" (Invalid_argument "Waterfall: negative quota")
    (fun () -> ignore (split ~quotas:[| -1. |] ~total:1.))

(* The plan-wide kernels against the per-instance reference oracles, bit
   for bit, on random block layouts over a shuffled index: partial,
   exactly filled and overflowing totals, zero totals and zero quotas, ties.
   The adjoint kernel adds into a prefilled buffer (signed zeros
   included), so the expectation is that buffer plus [backward]. *)
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_blocks_match_per_instance () =
  let rng = Lepts_prng.Xoshiro256.create ~seed:77 in
  let uniform lo hi = Lepts_prng.Xoshiro256.uniform rng ~lo ~hi in
  let int bound = Lepts_prng.Xoshiro256.int rng ~bound in
  for _ = 1 to 200 do
    (* [totals.(i)] is task i's row of instances; one block each. *)
    let rows =
      Array.init (1 + int 4) (fun _ -> Array.init (1 + int 3) (fun _ -> 1 + int 5))
    in
    let lengths = Array.concat (Array.to_list rows) in
    let n_blocks = Array.length lengths in
    let m = Array.fold_left ( + ) 0 lengths in
    let off = Array.make (n_blocks + 1) 0 in
    Array.iteri (fun b n -> off.(b + 1) <- off.(b) + n) lengths;
    let idx = Array.init m Fun.id in
    for i = m - 1 downto 1 do
      let j = int (i + 1) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    let quotas =
      Array.init m (fun _ ->
          match int 4 with 0 -> 0. | 1 -> float_of_int (int 3) | _ -> uniform 0. 5.)
    in
    let block_quotas b = Array.init lengths.(b) (fun p -> quotas.(idx.(off.(b) + p))) in
    let b = ref 0 in
    let totals =
      Array.map
        (fun row ->
          Array.map
            (fun _ ->
              let sum = Array.fold_left ( +. ) 0. (block_quotas !b) in
              incr b;
              match int 5 with
              | 0 -> 0.
              | 1 -> sum
              | 2 -> sum +. 1.
              | _ -> uniform 0. sum)
            row)
        rows
    in
    let total_of b =
      let r = ref b and i = ref 0 in
      while !r >= Array.length totals.(!i) do
        r := !r - Array.length totals.(!i);
        incr i
      done;
      totals.(!i).(!r)
    in
    let adjoint = Array.init m (fun _ -> uniform (-3.) 3.) in
    let split = Array.make m nan in
    Waterfall.distribute_blocks ~off ~idx ~totals ~quotas ~into:split;
    let prefill =
      Array.init m (fun k ->
          match k mod 3 with 0 -> -0. | 1 -> 0. | _ -> uniform (-1.) 1.)
    in
    let back = Array.copy prefill in
    Waterfall.backward_add_blocks ~off ~idx ~totals ~quotas ~adjoint ~into:back;
    for b = 0 to n_blocks - 1 do
      let q = block_quotas b and total = total_of b in
      let a = Array.init lengths.(b) (fun p -> adjoint.(idx.(off.(b) + p))) in
      let expect_split = Reference.Waterfall.distribute ~quotas:q ~total in
      let expect_back = Reference.Waterfall.backward ~quotas:q ~total ~adjoint:a in
      Array.iteri
        (fun p w ->
          let k = idx.(off.(b) + p) in
          if not (bits_equal w split.(k)) then
            Alcotest.failf "block %d split.(%d): %h <> %h" b p w split.(k);
          let expect = prefill.(k) +. expect_back.(p) in
          if not (bits_equal expect back.(k)) then
            Alcotest.failf "block %d adjoint.(%d): %h <> %h" b p expect back.(k))
        expect_split
    done
  done

let test_blocks_invalid () =
  let off = [| 0; 2 |] and idx = [| 1; 0 |] and into = Array.make 2 0. in
  let raises name f = Alcotest.check_raises name (Invalid_argument name) f in
  raises "Waterfall: negative total" (fun () ->
      Waterfall.distribute_blocks ~off ~idx ~totals:[| [| -1. |] |] ~quotas:[| 1.; 1. |]
        ~into);
  raises "Waterfall: negative quota" (fun () ->
      Waterfall.distribute_blocks ~off ~idx ~totals:[| [| 1. |] |] ~quotas:[| 1.; -1. |]
        ~into);
  raises "Waterfall: negative total" (fun () ->
      Waterfall.backward_add_blocks ~off ~idx ~totals:[| [| -1. |] |]
        ~quotas:[| 1.; 1. |] ~adjoint:[| 1.; 1. |] ~into);
  raises "Waterfall: negative quota" (fun () ->
      Waterfall.backward_add_blocks ~off ~idx ~totals:[| [| 1. |] |]
        ~quotas:[| 1.; -1. |] ~adjoint:[| 1.; 1. |] ~into);
  raises "Waterfall: block index does not match the totals" (fun () ->
      Waterfall.distribute_blocks ~off ~idx ~totals:[| [| 1.; 1. |] |]
        ~quotas:[| 1.; 1. |] ~into);
  raises "Waterfall: block index exceeds buffer" (fun () ->
      Waterfall.backward_add_blocks ~off ~idx ~totals:[| [| 1. |] |] ~quotas:[| 1. |]
        ~adjoint:[| 1.; 1. |] ~into)

(* Invariants under random inputs. *)
let qcheck_tests =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 8) (float_range 0. 20.))
        (float_range 0. 200.))
  in
  [ QCheck2.Test.make ~count:500 ~name:"waterfall conservation and order" gen
      (fun (quotas_list, total) ->
        let quotas = Array.of_list quotas_list in
        let quota_sum = Array.fold_left ( +. ) 0. quotas in
        let total = Float.min total quota_sum in
        let dist = split ~quotas ~total in
        let dist_sum = Array.fold_left ( +. ) 0. dist in
        (* conservation *)
        Float.abs (dist_sum -. total) < 1e-9
        (* bounded by quotas *)
        && Array.for_all2 (fun w q -> w >= -1e-12 && w <= q +. 1e-12) dist quotas
        (* prefix-greedy: a sub-instance executes less than its quota
           only if everything after it executes nothing *)
        &&
        let rec check k seen_partial =
          if k >= Array.length dist then true
          else if seen_partial then dist.(k) = 0. && check (k + 1) true
          else check (k + 1) (dist.(k) < quotas.(k) -. 1e-12)
        in
        check 0 false);
    QCheck2.Test.make ~count:300 ~name:"waterfall backward matches finite differences"
      gen
      (fun (quotas_list, total) ->
        let quotas = Array.of_list quotas_list in
        let quota_sum = Array.fold_left ( +. ) 0. quotas in
        let total = Float.min total (0.9 *. quota_sum) in
        let n = Array.length quotas in
        let adjoint = Array.init n (fun i -> 1. +. float_of_int i) in
        let back = backward ~quotas ~total ~adjoint in
        (* Compare against numerical J^T adjoint away from kinks. *)
        let h = 1e-6 in
        let ok = ref true in
        for l = 0 to n - 1 do
          let bump delta =
            let q' = Array.copy quotas in
            q'.(l) <- Float.max 0. (q'.(l) +. delta);
            let d = split ~quotas:q' ~total in
            Array.to_list d
          in
          let plus = bump h and minus = bump (-.h) in
          let fd =
            List.fold_left2
              (fun acc (p, m) a -> acc +. (a *. (p -. m) /. (2. *. h)))
              0.
              (List.combine plus minus)
              (Array.to_list adjoint)
          in
          (* Skip kink neighbourhoods where the two-sided difference
             straddles a boundary. *)
          let near_kink =
            let cum = ref 0. in
            let flag = ref false in
            Array.iteri
              (fun k q ->
                if k < l then cum := !cum +. q
                else if k = l then begin
                  if Float.abs (total -. !cum -. q) < 10. *. h
                     || Float.abs (total -. !cum) < 10. *. h || q < 10. *. h
                  then flag := true
                end)
              quotas;
            (* later kinks: partial boundary after l *)
            let cum2 = ref 0. in
            Array.iteri
              (fun _ q ->
                cum2 := !cum2 +. q;
                if Float.abs (total -. !cum2) < 10. *. h then flag := true)
              quotas;
            !flag
          in
          if (not near_kink) && Float.abs (fd -. back.(l)) > 1e-4 then ok := false
        done;
        !ok) ]

let suite =
  [ ("paper Fig 5", `Quick, test_paper_fig5);
    ("zero total", `Quick, test_total_zero);
    ("exact total", `Quick, test_total_equals_sum);
    ("overflow capped", `Quick, test_total_exceeds_sum);
    ("zero quotas skipped", `Quick, test_zero_quotas_passthrough);
    ("empty quotas", `Quick, test_empty);
    ("invalid inputs", `Quick, test_invalid);
    ("plan-wide kernels match per-instance", `Quick, test_blocks_match_per_instance);
    ("plan-wide kernels reject invalid inputs", `Quick, test_blocks_invalid) ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
