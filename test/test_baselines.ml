(* Structure of the baseline schemes (their equivalence is covered in
   test_endtoend). *)

open Pluto.Types

let test_inner_parallel_marks_one_level () =
  let p = Kernels.program Kernels.jacobi_1d in
  let r = Baselines.inner_parallel p in
  let pars =
    Array.to_list r.Driver.target.tpar |> List.filter (fun x -> x = Par)
  in
  Alcotest.(check int) "one Par level" 1 (List.length pars);
  (* it is the space loop, below the sequential time loop *)
  let rec first_par l =
    if r.Driver.target.tpar.(l) = Par then l else first_par (l + 1)
  in
  Alcotest.(check bool) "below the outermost loop" true (first_par 0 > 1)

let test_original_no_parallel () =
  let p = Kernels.program Kernels.seidel in
  let r = Baselines.original p in
  Alcotest.(check bool) "all Seq" true
    (Array.for_all (fun x -> x = Seq) r.Driver.target.tpar)

let test_affine_partition_rows () =
  let p = Kernels.program Kernels.jacobi_1d in
  let r = Baselines.jacobi_affine_partition p in
  let t = r.Driver.transform in
  Alcotest.(check (list (list int))) "S1 = (2t-i, 3t-i)"
    [ [ 2; -1; 0 ]; [ 3; -1; 0 ]; [ 0; 0; 0 ] ]
    (Fixtures.rows_of t 0);
  Alcotest.(check (list (list int))) "S2 shifted by 1"
    [ [ 2; -1; 1 ]; [ 3; -1; 1 ]; [ 0; 0; 1 ] ]
    (Fixtures.rows_of t 1)

let test_scheduling_rows_are_nonunimodular () =
  let p = Kernels.program Kernels.jacobi_1d in
  let r = Baselines.jacobi_scheduling_fco p in
  let t = r.Driver.transform in
  (* θ = 2t: determinant of the 2x2 linear part is 2, not ±1 *)
  let rows = Fixtures.rows_of t 0 in
  let m =
    Mat.of_int_rows
      [| Array.of_list (List.map (fun r -> List.nth r 0) (Putil.take 2 rows));
         Array.of_list (List.map (fun r -> List.nth r 1) (Putil.take 2 rows)) |]
  in
  Alcotest.(check bool) "non-unimodular" false (Mat.is_unimodular m)

let test_annotate_satisfaction () =
  (* the identity transform satisfies every legality dependence *)
  let k = Kernels.jacobi_1d in
  let p, ds = Fixtures.program_and_deps k in
  let t = Pluto.Auto.identity_transform p ds in
  List.iter
    (fun d ->
      if Deps.is_legality d then
        Alcotest.(check bool)
          (Printf.sprintf "dep %d satisfied" d.Deps.id)
          true
          (Hashtbl.mem t.satisfied_at d.Deps.id))
    ds

let test_annotate_parallel_flags () =
  (* matmul identity: levels are [scalar; i; scalar; j; scalar; k; scalar];
     i and j parallel, k sequential *)
  let k = Kernels.matmul in
  let p, ds = Fixtures.program_and_deps k in
  let t = Pluto.Auto.identity_transform p ds in
  let loops =
    Array.to_list t.kinds
    |> List.filter_map (function
         | Loop { parallel; _ } -> Some parallel
         | Scalar -> None)
  in
  Alcotest.(check (list bool)) "i,j parallel; k not" [ true; true; false ] loops

let test_mvt_baselines_differ () =
  let p = Kernels.program Kernels.mvt in
  let a = Baselines.mvt_fuse_ij_ij p in
  let b = Baselines.mvt_unfused_parallel p in
  (* ij-ij keeps both statements in the same loops at level 0; unfused puts a
     scalar split first *)
  Alcotest.(check bool) "ij-ij level 0 is a loop" true
    (match a.Driver.transform.kinds.(0) with Loop _ -> true | Scalar -> false);
  Alcotest.(check bool) "unfused level 0 is scalar" true
    (b.Driver.transform.kinds.(0) = Scalar)

let test_check_shape_guard () =
  (* feeding the wrong kernel raises instead of producing wrong code *)
  let p = Kernels.program Kernels.matmul in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Baselines.jacobi_affine_partition p);
       false
     with Invalid_argument _ -> true)

(* ------ the automatic Feautrier + FCO scheduler (Pluto.Feautrier) ------- *)

let test_feautrier_jacobi_schedule () =
  (* the paper quotes Griebl's baseline for 1-d Jacobi: schedule 2t for S1,
     2t+1 for S2, FCO allocation 2t+i — the automatic scheduler finds it *)
  let p = Kernels.program Kernels.jacobi_1d in
  let r = Driver.compile_feautrier p in
  let t = r.Driver.transform in
  Alcotest.(check (list (list int))) "S1 = (2t, 2t+i)"
    [ [ 2; 0; 0 ]; [ 2; 1; 0 ] ]
    (Fixtures.rows_of t 0);
  Alcotest.(check (list (list int))) "S2 = (2t+1, 2t+j+1)"
    [ [ 2; 0; 1 ]; [ 2; 1; 1 ] ]
    (Fixtures.rows_of t 1)

let test_feautrier_equivalence () =
  List.iter
    (fun k ->
      let p = Kernels.program k in
      let r = Driver.compile_feautrier p in
      let params = Kernels.params_vector p k.Kernels.check_params in
      Alcotest.(check bool)
        (k.Kernels.name ^ " equivalent")
        true
        (Machine.equivalent p r.Driver.code ~params);
      Alcotest.(check bool)
        (k.Kernels.name ^ " reverse")
        true
        (Machine.equivalent ~par_reverse:true p r.Driver.code ~params))
    [ Kernels.jacobi_1d; Kernels.lu; Kernels.seidel; Kernels.matmul; Kernels.mvt ]

let test_feautrier_strong_satisfaction () =
  (* every legality dependence is strongly satisfied by some schedule level *)
  let p = Kernels.program Kernels.seidel in
  let deps = Deps.compute ~input_deps:false p in
  let tr, fco = Pluto.Feautrier.scheduling_transform p deps in
  Alcotest.(check bool) "FCO completion" true fco;
  List.iter
    (fun d ->
      if Deps.is_legality d then
        Alcotest.(check bool)
          (Printf.sprintf "dep %d satisfied" d.Deps.id)
          true
          (Hashtbl.mem tr.Pluto.Types.satisfied_at d.Deps.id))
    deps

let feautrier_suite =
  [
    Alcotest.test_case "feautrier jacobi = paper quote" `Quick
      test_feautrier_jacobi_schedule;
    Alcotest.test_case "feautrier equivalence" `Quick test_feautrier_equivalence;
    Alcotest.test_case "feautrier strong satisfaction" `Quick
      test_feautrier_strong_satisfaction;
  ]

let suite =
  ( "baselines",
    [
      Alcotest.test_case "inner-parallel marks one level" `Quick
        test_inner_parallel_marks_one_level;
      Alcotest.test_case "original sequential" `Quick test_original_no_parallel;
      Alcotest.test_case "affine partition rows (paper)" `Quick
        test_affine_partition_rows;
      Alcotest.test_case "scheduling non-unimodular" `Quick
        test_scheduling_rows_are_nonunimodular;
      Alcotest.test_case "identity satisfies deps" `Quick test_annotate_satisfaction;
      Alcotest.test_case "identity parallel flags" `Quick test_annotate_parallel_flags;
      Alcotest.test_case "mvt baseline structure" `Quick test_mvt_baselines_differ;
      Alcotest.test_case "kernel shape guard" `Quick test_check_shape_guard;
    ]
    @ feautrier_suite )

