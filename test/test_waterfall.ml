open Lepts_core

let check_arr name expected actual =
  Alcotest.(check (array (float 1e-9))) name expected actual

(* The paper's Fig 5 example: ACEC 15, WCEC 30 split over three
   sub-instances of quota 10 each -> executed 10 / 5 / 0. *)
let test_paper_fig5 () =
  check_arr "fig5" [| 10.; 5.; 0. |]
    (Waterfall.distribute ~quotas:[| 10.; 10.; 10. |] ~total:15.)

let test_total_zero () =
  check_arr "all zero" [| 0.; 0. |] (Waterfall.distribute ~quotas:[| 3.; 4. |] ~total:0.)

let test_total_equals_sum () =
  check_arr "all full" [| 3.; 4. |] (Waterfall.distribute ~quotas:[| 3.; 4. |] ~total:7.)

let test_total_exceeds_sum () =
  (* Overflow beyond the quota sum is dropped (callers bound totals by
     the WCEC). *)
  check_arr "capped" [| 3.; 4. |] (Waterfall.distribute ~quotas:[| 3.; 4. |] ~total:100.)

let test_zero_quotas_passthrough () =
  check_arr "zeros skipped" [| 0.; 5.; 0.; 2. |]
    (Waterfall.distribute ~quotas:[| 0.; 5.; 0.; 3. |] ~total:7.)

let test_empty () =
  check_arr "empty" [||] (Waterfall.distribute ~quotas:[||] ~total:0.)

let test_invalid () =
  Alcotest.check_raises "negative total" (Invalid_argument "Waterfall: negative total")
    (fun () -> ignore (Waterfall.distribute ~quotas:[| 1. |] ~total:(-1.)));
  Alcotest.check_raises "negative quota" (Invalid_argument "Waterfall: negative quota")
    (fun () -> ignore (Waterfall.distribute ~quotas:[| -1. |] ~total:1.))

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
        let dist = Waterfall.distribute ~quotas ~total in
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
        let back = Waterfall.backward ~quotas ~total ~adjoint in
        (* Compare against numerical J^T adjoint away from kinks. *)
        let h = 1e-6 in
        let ok = ref true in
        for l = 0 to n - 1 do
          let bump delta =
            let q' = Array.copy quotas in
            q'.(l) <- Float.max 0. (q'.(l) +. delta);
            let d = Waterfall.distribute ~quotas:q' ~total in
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
    ("invalid inputs", `Quick, test_invalid) ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
