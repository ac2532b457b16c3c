(* Never-crash compilation: structured diagnostics, resource budgets and the
   graceful-degradation ladder.

   - the frontend reports every error (with positions) instead of dying on
     the first;
   - the solvers raise [Diag.Budget_exceeded] instead of running forever;
   - [Driver.compile_robust] walks auto -> Feautrier -> identity, recording
     each degradation as a warning, and never raises;
   - whatever rung emitted code is semantically equivalent to the original
     execution order. *)

let multi_error_source =
  "double a[N];\n\
   for (i = 0; i < N; i++) a[i*i] = 1.0;\n\
   for (k = 0; k < N; j++) {\n\
  \  c[k] = a[k] + q[2];\n\
   }\n"

let test_frontend_reports_all_errors () =
  match Frontend.parse_program_diag ~name:"bad.c" multi_error_source with
  | Ok _ -> Alcotest.fail "expected parse errors"
  | Error ds ->
      Alcotest.(check bool) "several errors reported" true (List.length ds >= 3);
      Alcotest.(check bool) "all are errors" true (List.for_all Diag.is_error ds);
      Alcotest.(check bool) "non-affine subscript reported" true
        (Diag.has_code ds "non-affine");
      Alcotest.(check bool) "bad increment reported" true
        (Diag.has_code ds "parse");
      Alcotest.(check bool) "undeclared array reported" true
        (Diag.has_code ds "unknown-array");
      (* positions: sorted by source position, first error on line 2 *)
      let first = List.hd ds in
      match first.Diag.span with
      | None -> Alcotest.fail "first error has no span"
      | Some sp ->
          Alcotest.(check string) "file" "bad.c" sp.Diag.file;
          Alcotest.(check int) "line" 2 sp.Diag.line

let test_frontend_unclosed_brace () =
  let src = "double a[N];\nfor (i = 0; i < N; i++) {\n  a[i] = 1.0;\n" in
  match Frontend.parse_program_diag src with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error ds ->
      Alcotest.(check bool) "unclosed brace reported" true
        (List.exists
           (fun d ->
             Astring.String.is_infix ~affix:"unclosed '{'" d.Diag.message)
           ds)

let test_frontend_never_raises_parse_diag () =
  (* parse_program_diag must return, never raise, on arbitrary junk *)
  let junk =
    [
      "";
      "}{";
      "for";
      "for (i = 0; i <";
      "double;";
      "double a[);\nfor (i = 0; i < N; i++) a[i] = 1.0;";
      "@ # $ %\x00\xff";
      "for (i = 0; i < N; i++) a[i] = 99999999999999999999999999;";
      "/* never closed";
      "double a[N];\nfor (i = 0; i < N; i++) for (i = 0; i < N; i++) a[i] = 1.0;";
    ]
  in
  List.iter
    (fun src ->
      match Frontend.parse_program_diag src with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "parse_program_diag raised %s on %S"
            (Printexc.to_string e) src)
    junk

(* ------------------------------ budgets ---------------------------------- *)

(* 2 * sum xi = 7 over a box: integer-infeasible, needs branching. *)
let branching_system n =
  let cs =
    Polyhedra.eq_ints (List.init (n + 1) (fun j -> if j = n then -7 else 2))
    :: List.concat_map
         (fun j ->
           [
             Polyhedra.ge_ints (List.init (n + 1) (fun q -> if q = j then 1 else 0));
             Polyhedra.ge_ints
               (List.init (n + 1) (fun q ->
                    if q = j then -1 else if q = n then 5 else 0));
           ])
         (Putil.range n)
  in
  Polyhedra.of_constrs n cs

let test_milp_node_budget () =
  let n = 6 in
  let sys = branching_system n in
  match Milp.ilp ~budget:{ Milp.max_nodes = 0 } sys (Vec.zero n) with
  | exception Diag.Budget_exceeded msg ->
      Alcotest.(check bool) "message names the node budget" true
        (Astring.String.is_infix ~affix:"0-node budget" msg)
  | _ -> Alcotest.fail "expected Budget_exceeded from the zero-node budget"

let test_fm_row_explosion_guard () =
  (* 8 lower and 8 upper bounds on x in terms of y: eliminating x would
     build 64 product rows, over the budget of 10. *)
  let cs =
    List.concat_map
      (fun k ->
        [
          Polyhedra.ge_ints [ 1; k; k ] (* x >= -k*y - k *);
          Polyhedra.ge_ints [ -1; k; 10 + k ] (* x <= k*y + 10 + k *);
        ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let p = Polyhedra.of_constrs 2 cs in
  (match Polyhedra.eliminate ~max_constrs:10 p 0 with
  | exception Diag.Budget_exceeded msg ->
      Alcotest.(check bool) "message names Fourier-Motzkin" true
        (Astring.String.is_infix ~affix:"Fourier-Motzkin" msg)
  | _ -> Alcotest.fail "expected Budget_exceeded from the FM guard");
  (* an ample budget eliminates fine *)
  match Polyhedra.eliminate p 0 with
  | Some _ -> ()
  | None -> Alcotest.fail "elimination of a satisfiable system"
  | exception Diag.Budget_exceeded _ ->
      Alcotest.fail "default budget should be ample here"

(* ------------------------- degradation ladder ---------------------------- *)

let check_equiv (r : Driver.result) =
  let params =
    Array.make (List.length r.Driver.program.Ir.params) 6
  in
  Alcotest.(check bool) "degraded output equivalent to original" true
    (Machine.equivalent r.Driver.program r.Driver.code ~params)

let test_ladder_no_degradation_on_success () =
  let p = Kernels.program Kernels.jacobi_1d in
  match Driver.compile_robust p with
  | Ok (_, ds) ->
      (* the fast scheduling rung always leaves a note (accepted) or a
         warning (rejected, fell through to the exact ILP) — neither is a
         degradation; anything else on a clean compile is *)
      Alcotest.(check bool) "no errors" false (Diag.has_errors ds);
      Alcotest.(check bool) "not degraded" false (Driver.degraded ds);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            ("only fastpath diagnostics on a clean compile: " ^ d.Diag.code)
            true
            (Astring.String.is_prefix ~affix:"fastpath-" d.Diag.code))
        ds
  | Error _ -> Alcotest.fail "jacobi-1d must compile"

(* coeff_bound = 0 leaves no nonzero hyperplane: the Pluto search fails but
   the Feautrier rung (its own coefficient bounds) still succeeds. *)
let crippled_search_options =
  {
    Driver.default_options with
    Driver.auto = { Pluto.Auto.default_config with Pluto.Auto.coeff_bound = 0 };
  }

let test_ladder_degrades_to_feautrier () =
  let p = Kernels.program Kernels.jacobi_1d in
  match Driver.compile_robust ~options:crippled_search_options p with
  | Error ds ->
      Alcotest.failf "ladder must emit code: %s"
        (Format.asprintf "%a" (Diag.pp_all ?src:None) ds)
  | Ok (r, ds) ->
      Alcotest.(check bool) "degraded" true (Driver.degraded ds);
      Alcotest.(check bool) "fell back to Feautrier" true
        (Diag.has_code ds "degraded-feautrier");
      Alcotest.(check bool) "did not fall through to identity" false
        (Diag.has_code ds "degraded-identity");
      Alcotest.(check bool) "degradations are warnings, not errors" false
        (Diag.has_errors ds);
      check_equiv r

(* A zero-node budget starves every scheduling ILP — the node check fires
   on branch-and-bound entry — in both the Pluto search and the Feautrier
   scheduler (the budget is threaded to both rungs): only the solver-free
   identity rung is left. *)
let starved_options =
  {
    Driver.default_options with
    Driver.auto =
      { Pluto.Auto.default_config with Pluto.Auto.budget = { Milp.max_nodes = 0 } };
  }

let test_ladder_degrades_to_identity () =
  let p = Kernels.program Kernels.jacobi_1d in
  match Driver.compile_robust ~options:starved_options p with
  | Error ds ->
      Alcotest.failf "identity rung needs no solver, must succeed: %s"
        (Format.asprintf "%a" (Diag.pp_all ?src:None) ds)
  | Ok (r, ds) ->
      Alcotest.(check bool) "degraded to identity" true
        (Diag.has_code ds "degraded-identity");
      check_equiv r

let test_strict_disables_ladder () =
  let p = Kernels.program Kernels.jacobi_1d in
  match Driver.compile_robust ~options:crippled_search_options ~strict:true p with
  | Ok _ -> Alcotest.fail "--strict must not fall back"
  | Error ds ->
      Alcotest.(check bool) "hard error" true (Diag.has_errors ds)

(* --------------------------- crash freedom ------------------------------- *)

(* Mutate a valid kernel source and require that the robust pipeline either
   rejects the input with diagnostics or emits code — never raises — and
   that emitted code stays semantically equivalent to whatever program the
   mutant parsed to. *)
let test_crash_freedom_fuzz () =
  let rng = Random.State.make [| 0x9e3779b9; 42 |] in
  let base = Kernels.jacobi_1d.Kernels.source in
  let charset = "(){}[];=+-*/<> \nforNTijk0123456789abq." in
  let mutate src =
    let b = Buffer.create (String.length src) in
    Buffer.add_string b src;
    let s = Buffer.contents b in
    let n = String.length s in
    match Random.State.int rng 4 with
    | 0 when n > 1 ->
        (* delete a random slice *)
        let i = Random.State.int rng n in
        let len = 1 + Random.State.int rng (min 5 (n - i)) in
        String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
    | 1 ->
        (* insert a random character *)
        let i = Random.State.int rng (n + 1) in
        let c = charset.[Random.State.int rng (String.length charset)] in
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | 2 when n > 1 ->
        (* truncate *)
        String.sub s 0 (Random.State.int rng n)
    | _ when n > 8 ->
        (* duplicate a chunk *)
        let i = Random.State.int rng (n - 4) in
        let len = 1 + Random.State.int rng (min 8 (n - i - 1)) in
        let chunk = String.sub s i len in
        String.sub s 0 i ^ chunk ^ chunk ^ String.sub s i (n - i)
    | _ -> s
  in
  for trial = 1 to 60 do
    let src = ref base in
    let nmut = 1 + Random.State.int rng 6 in
    for _ = 1 to nmut do
      src := mutate !src
    done;
    match Driver.compile_source_robust ~name:"fuzz.c" !src with
    | Error ds ->
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: rejection carries errors" trial)
          true (Diag.has_errors ds)
    | Ok (r, _) -> check_equiv r
    | exception e ->
        Alcotest.failf "trial %d: compile_source_robust raised %s on %S" trial
          (Printexc.to_string e) !src
  done

let test_lexmin_unbounded_is_structured () =
  (* an unbounded lexmin coordinate used to escape as a raw [Failure],
     blowing through the never-crash contract; it must now surface as a
     structured [Diag.Diagnostic] so [Driver]'s attempt wrapper can absorb
     it into the degradation ladder *)
  let sys = Polyhedra.of_constrs 1 [ Polyhedra.ge_ints [ -1; 0 ] ] in
  List.iter
    (fun warm ->
      match Milp.lexmin ~warm sys with
      | exception Diag.Diagnostic d ->
          Alcotest.(check string) "code" "unbounded" d.Diag.code;
          Alcotest.(check bool) "is an error" true (Diag.is_error d)
      | exception Failure msg ->
          Alcotest.failf "raw Failure escaped (warm=%b): %s" warm msg
      | exception e ->
          Alcotest.failf "unexpected exception (warm=%b): %s" warm
            (Printexc.to_string e)
      | _ -> Alcotest.fail "expected the unbounded diagnostic")
    [ true; false ];
  (* and the driver's exception wall converts it into a per-rung diagnostic
     rather than letting it propagate *)
  match
    Driver.attempt ~what:"probe" (fun () -> ignore (Milp.lexmin sys))
  with
  | Ok () -> Alcotest.fail "expected an error result"
  | Error d -> Alcotest.(check string) "driver code" "unbounded" d.Diag.code

let suite =
  ( "robustness",
    [
      Alcotest.test_case "frontend reports all errors" `Quick
        test_frontend_reports_all_errors;
      Alcotest.test_case "frontend unclosed brace" `Quick
        test_frontend_unclosed_brace;
      Alcotest.test_case "frontend never raises (diag API)" `Quick
        test_frontend_never_raises_parse_diag;
      Alcotest.test_case "milp node budget" `Quick test_milp_node_budget;
      Alcotest.test_case "fourier-motzkin row guard" `Quick
        test_fm_row_explosion_guard;
      Alcotest.test_case "ladder: clean compile, no degradation" `Quick
        test_ladder_no_degradation_on_success;
      Alcotest.test_case "ladder: degrade to feautrier" `Quick
        test_ladder_degrades_to_feautrier;
      Alcotest.test_case "ladder: degrade to identity" `Quick
        test_ladder_degrades_to_identity;
      Alcotest.test_case "ladder: --strict" `Quick test_strict_disables_ladder;
      Alcotest.test_case "lexmin unbounded is structured" `Quick
        test_lexmin_unbounded_is_structured;
      Alcotest.test_case "crash-freedom fuzz" `Slow test_crash_freedom_fuzz;
    ] )
