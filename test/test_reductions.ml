(* Reduction-aware compilation (--reductions): detection of associative
   self-updates, marking of their self-dependences, relaxed scheduling,
   OpenMP clause lowering, the reduction-aware validator, and
   tolerance-based equivalence.  With the flag off nothing may change. *)

let red_options =
  { Driver.default_options with Driver.reductions = true }

let stmt_of src =
  let p = Frontend.parse_program ~name:"<red>" src in
  List.hd p.Ir.stmts

(* ------------------------------- detection ------------------------------- *)

let test_detection () =
  let check name src expected =
    let got =
      match Ir.reduction_of_stmt (stmt_of src) with
      | Some r -> Some (r.Ir.red_op, r.Ir.red_acc.Ir.arr)
      | None -> None
    in
    Alcotest.(check (option (pair (of_pp Fmt.nop) string))) name expected got
  in
  check "sum into a cell"
    "double a[N], s[2];\nfor (i = 0; i < N; i++)\n  s[0] = s[0] + a[i];\n"
    (Some (Ir.Add, "s"));
  check "product, accumulator on the right"
    "double a[N], s[2];\nfor (i = 0; i < N; i++)\n  s[0] = a[i] * s[0];\n"
    (Some (Ir.Mul, "s"));
  check "repeated subtraction (acc on the left)"
    "double a[N], x[N];\nfor (i = 0; i < N; i++)\n  x[0] = x[0] - a[i];\n"
    (Some (Ir.Sub, "x"));
  check "subtraction from the right is not commutative"
    "double a[N], x[N];\nfor (i = 0; i < N; i++)\n  x[0] = a[i] - x[0];\n"
    None;
  check "division has no OpenMP reduction"
    "double a[N], x[N];\nfor (i = 0; i < N; i++)\n  x[0] = x[0] / a[i];\n"
    None;
  check "accumulator also read inside the combined term"
    "double a[N], s[2];\nfor (i = 0; i < N; i++)\n  s[0] = s[0] + a[i] * s[0];\n"
    None;
  check "plain copy is no reduction"
    "double a[N], b[N];\nfor (i = 0; i < N; i++)\n  a[i] = b[i];\n"
    None;
  (* the paper kernels: matmul's C[i][j] update is a reduction over k *)
  let m = List.hd (Kernels.program Kernels.matmul).Ir.stmts in
  (match Ir.reduction_of_stmt m with
  | Some r ->
      Alcotest.(check string) "matmul accumulator" "C" r.Ir.red_acc.Ir.arr
  | None -> Alcotest.fail "matmul update not detected")

(* -------------------------------- marking -------------------------------- *)

let test_marking () =
  let _, ds = Fixtures.program_and_deps_reductions Kernels.dot in
  let legality = List.filter Deps.is_legality ds in
  Alcotest.(check bool) "dot has legality self-dependences" true
    (legality <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "every dot legality edge is marked" true
        d.Deps.reduction;
      Alcotest.(check bool) "marked edges are not hard" false (Deps.is_hard d))
    legality;
  (* input (read-read) edges never get marked *)
  List.iter
    (fun d ->
      if d.Deps.kind = Deps.Input then
        Alcotest.(check bool) "input edges unmarked" false d.Deps.reduction)
    ds;
  (* without the flag, nothing is marked and is_hard = is_legality *)
  let _, ds0 = Fixtures.program_and_deps Kernels.dot in
  List.iter
    (fun d ->
      Alcotest.(check bool) "flag off: unmarked" false d.Deps.reduction;
      Alcotest.(check bool) "flag off: is_hard = is_legality"
        (Deps.is_legality d) (Deps.is_hard d))
    ds0

let test_marking_lu_alias_analysis () =
  (* lu's a[i][j] -= a[i][k] * a[k][j]: the accumulator self-edges are
     markable only because the polyhedral alias check proves the other reads
     of [a] never touch the accumulator cell (the domain has j > k, i > k) *)
  let _, ds = Fixtures.program_and_deps_reductions Kernels.lu in
  let marked = List.filter (fun d -> d.Deps.reduction) ds in
  Alcotest.(check bool) "lu has marked reduction edges" true (marked <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "marked edges are self edges" true
        (d.Deps.src.Ir.id = d.Deps.dst.Ir.id);
      Alcotest.(check string) "marked edges are on the accumulator" "a"
        d.Deps.src_acc.Ir.arr;
      Alcotest.(check bool) "both endpoints are the accumulator access" true
        (Ir.same_access d.Deps.src_acc d.Deps.dst_acc))
    marked;
  (* cross-access and cross-statement edges on [a] stay hard *)
  Alcotest.(check bool) "cross-statement edges stay hard" true
    (List.exists
       (fun d ->
         d.Deps.src.Ir.id <> d.Deps.dst.Ir.id && Deps.is_hard d
         && String.equal d.Deps.src_acc.Ir.arr "a")
       ds)

let test_scan_is_not_marked () =
  (* x[0] += x[i] with i from 0: the combined term may read the accumulator
     cell itself (at i = 0), so the relaxation would be unsound — the
     polyhedral alias check must refuse to mark any edge.  (With i from 1
     the same program is a genuine reduction and does get marked: the reads
     provably never touch x[0].) *)
  let p =
    Frontend.parse_program ~name:"<scan>"
      "double x[N];\nfor (i = 0; i < N; i++)\n  x[0] = x[0] + x[i];\n"
  in
  let ds = Deps.compute ~reductions:true p in
  List.iter
    (fun d ->
      Alcotest.(check bool) "no edge of the aliased scan is marked" false
        d.Deps.reduction)
    ds

(* --------------------------- scheduling + lowering ------------------------ *)

let rec parallel_levels = function
  | Codegen.For { level; parallel; body; _ } ->
      (if parallel then [ level ] else [])
      @ List.concat_map parallel_levels body
  | Codegen.Leaf _ -> []

let parallel_levels_of (cg : Codegen.t) =
  List.sort_uniq compare (List.concat_map parallel_levels cg.Codegen.body)

let clauses_of (cg : Codegen.t) =
  List.sort_uniq compare
    (List.concat (Array.to_list cg.Codegen.reductions))

let test_dot_parallelizes () =
  let p = Kernels.program Kernels.dot in
  let off = Driver.compile ~options:Driver.default_options p in
  Alcotest.(check (list int)) "flag off: dot fully serial" []
    (parallel_levels_of off.Driver.code);
  let on = Driver.compile ~options:red_options p in
  Alcotest.(check bool) "flag on: dot has a parallel loop" true
    (parallel_levels_of on.Driver.code <> []);
  Alcotest.(check (list (pair string string)))
    "the parallel loop carries reduction(+:s)"
    [ ("+", "s") ]
    (clauses_of on.Driver.code)

let test_histogram_outer_parallel () =
  (* the relaxed ILP schedule keeps the bins dimension outermost and
     parallel; each parallel iteration then owns disjoint accumulator cells
     h[j], so the carrying test proves no clause is needed — attaching one
     anyway would privatize h for nothing.  (The fast scheduling path keeps
     the scan outermost instead and must emit reduction(+:h); the CI smoke
     job pins that behaviour on the CLI default path.) *)
  let p = Kernels.program Kernels.histogram in
  let on = Driver.compile ~options:red_options p in
  Alcotest.(check bool) "outermost loop is parallel" true
    (List.mem 0 (parallel_levels_of on.Driver.code));
  Alcotest.(check (list (pair string string)))
    "parallel bins need no reduction clause" []
    (clauses_of on.Driver.code)

let test_mvt_clause_precision () =
  (* mvt with reductions: the outer parallel loop carries S2's accumulation
     (x2) but iterates S1's accumulator cells (x1) — exactly one clause *)
  let p = Kernels.program Kernels.mvt in
  let on = Driver.compile ~options:red_options p in
  Alcotest.(check bool) "outermost loop is parallel" true
    (List.mem 0 (parallel_levels_of on.Driver.code));
  Alcotest.(check (list (pair string string)))
    "only the carried accumulator gets a clause"
    [ ("+", "x2") ]
    (clauses_of on.Driver.code)

let test_flag_off_bit_identical () =
  (* a kernel with no reductions compiles to the same code either way, and
     even for reduction kernels the flag-off pipeline is untouched *)
  List.iter
    (fun k ->
      let p = Kernels.program k in
      let off = Driver.compile ~options:Driver.default_options p in
      let off2 = Driver.compile ~options:Driver.default_options p in
      Alcotest.(check string)
        (k.Kernels.name ^ ": flag-off output deterministic")
        (Putil.string_of_format Codegen.print_loop_nest off.Driver.code)
        (Putil.string_of_format Codegen.print_loop_nest off2.Driver.code);
      let on =
        Driver.compile
          ~options:{ Driver.default_options with Driver.reductions = true }
          p
      in
      if k.Kernels.name = "jacobi-1d-imper" then
        (* no reduction statements: the flag must be a no-op *)
        Alcotest.(check string) "jacobi: flag is a no-op"
          (Putil.string_of_format Codegen.print_loop_nest off.Driver.code)
          (Putil.string_of_format Codegen.print_loop_nest on.Driver.code))
    [ Kernels.jacobi_1d; Kernels.dot ]

(* ------------------------------- validation ------------------------------ *)

let test_validator_accepts_relaxed_schedules () =
  List.iter
    (fun k ->
      let p = Kernels.program k in
      let r = Driver.compile ~options:red_options p in
      let report = Driver.verify r in
      Alcotest.(check bool)
        (k.Kernels.name ^ ": reduction-aware validation passes")
        true (Verify.ok report))
    [ Kernels.dot; Kernels.histogram; Kernels.mvt; Kernels.lu ]

let test_validator_rejects_forged_marks () =
  (* forge a reduction mark on a dependence that is not a reduction: the
     independent mark check must fail with code "reduction" *)
  let p, ds = Fixtures.program_and_deps Kernels.jacobi_1d in
  let forged =
    List.map
      (fun d ->
        if d.Deps.kind = Deps.Flow && d.Deps.src.Ir.id <> d.Deps.dst.Ir.id
        then { d with Deps.reduction = true }
        else d)
      ds
  in
  let t = Fixtures.transform Kernels.jacobi_1d in
  let report = Verify.validate_transform p forged t in
  Alcotest.(check bool) "forged mark rejected" false (Verify.ok report);
  Alcotest.(check bool) "failure carries the reduction code" true
    (List.exists
       (fun f -> String.equal f.Verify.f_code "reduction")
       report.Verify.failures)

(* ---------------------------- execution semantics ------------------------- *)

let test_tolerance_equivalence () =
  List.iter
    (fun k ->
      let p = Kernels.program k in
      let r = Driver.compile ~options:red_options p in
      let params = Kernels.params_vector p k.Kernels.check_params in
      (* adversarial order: reversing the parallel loops reassociates the
         accumulation, so bit-exactness is not owed — tolerance is *)
      Alcotest.(check bool)
        (k.Kernels.name ^ ": equivalent modulo reassociation")
        true
        (Machine.equivalent ~par_reverse:true
           ~tolerance:Machine.reduction_tolerance p r.Driver.code ~params);
      (* in-order execution of the same code stays bit-exact *)
      Alcotest.(check bool)
        (k.Kernels.name ^ ": in-order execution bit-exact")
        true
        (Machine.equivalent p r.Driver.code ~params))
    [ Kernels.dot; Kernels.histogram; Kernels.mvt ]

let suite =
  ( "reductions",
    [
      Alcotest.test_case "self-update detection" `Quick test_detection;
      Alcotest.test_case "dependence marking" `Quick test_marking;
      Alcotest.test_case "lu alias analysis" `Quick
        test_marking_lu_alias_analysis;
      Alcotest.test_case "aliased scan is never marked" `Quick
        test_scan_is_not_marked;
      Alcotest.test_case "dot parallelizes with a clause" `Quick
        test_dot_parallelizes;
      Alcotest.test_case "histogram outer parallel" `Quick
        test_histogram_outer_parallel;
      Alcotest.test_case "mvt clause precision" `Quick
        test_mvt_clause_precision;
      Alcotest.test_case "flag off is bit-identical" `Quick
        test_flag_off_bit_identical;
      Alcotest.test_case "validator accepts relaxed schedules" `Quick
        test_validator_accepts_relaxed_schedules;
      Alcotest.test_case "validator rejects forged marks" `Quick
        test_validator_rejects_forged_marks;
      Alcotest.test_case "tolerance equivalence" `Quick
        test_tolerance_equivalence;
    ] )
