(* Exact simplex, branch-and-bound and lexicographic minimization. *)

let qi = Q.of_int

let test_lp_known () =
  (* min -x-y s.t. x+2y<=4, 3x+y<=6, x,y>=0: vertex (8/5,6/5), value -14/5 *)
  let sys =
    Polyhedra.of_constrs 2
      [ Polyhedra.ge_ints [ -1; -2; 4 ]; Polyhedra.ge_ints [ -3; -1; 6 ] ]
  in
  match Milp.lp ~nonneg:true sys [| qi (-1); qi (-1) |] with
  | Milp.Lp_optimal (v, x) ->
      Alcotest.(check bool) "value" true (Q.equal v (Q.of_ints (-14) 5));
      Alcotest.(check bool) "x" true (Q.equal x.(0) (Q.of_ints 8 5));
      Alcotest.(check bool) "y" true (Q.equal x.(1) (Q.of_ints 6 5))
  | _ -> Alcotest.fail "expected optimum"

let test_lp_infeasible () =
  let sys =
    Polyhedra.of_constrs 1
      [ Polyhedra.ge_ints [ 1; -5 ]; Polyhedra.ge_ints [ -1; 3 ] ]
  in
  match Milp.lp sys [| Q.one |] with
  | Milp.Lp_infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_lp_unbounded () =
  let sys = Polyhedra.of_constrs 1 [ Polyhedra.ge_ints [ -1; 10 ] ] in
  match Milp.lp sys [| Q.one |] with
  | Milp.Lp_unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_lp_free_vars () =
  (* min x s.t. x >= -7 over free variables *)
  match Milp.lp (Polyhedra.of_constrs 1 [ Polyhedra.ge_ints [ 1; 7 ] ]) [| Q.one |] with
  | Milp.Lp_optimal (v, _) ->
      Alcotest.(check bool) "min = -7" true (Q.equal v (qi (-7)))
  | _ -> Alcotest.fail "expected optimum"

let test_lp_equalities () =
  (* min x+y s.t. x+y = 3, x,y >= 0 *)
  let sys = Polyhedra.of_constrs 2 [ Polyhedra.eq_ints [ 1; 1; -3 ] ] in
  match Milp.lp ~nonneg:true sys [| Q.one; Q.one |] with
  | Milp.Lp_optimal (v, _) -> Alcotest.(check bool) "3" true (Q.equal v (qi 3))
  | _ -> Alcotest.fail "expected optimum"

let test_ilp_gap () =
  (* LP relax optimum fractional: max x+y st 2x+2y <= 5 (min -x-y) -> LP -5/2,
     ILP -2 *)
  let sys = Polyhedra.of_constrs 2 [ Polyhedra.ge_ints [ -2; -2; 5 ] ] in
  match Milp.ilp ~nonneg:true sys (Vec.of_int_list [ -1; -1 ]) with
  | Milp.Ilp_optimal (v, x) ->
      Alcotest.(check int) "ilp value" (-2) (Bigint.to_int v);
      Alcotest.(check bool) "witness feasible" true (Polyhedra.sat_point sys x)
  | _ -> Alcotest.fail "expected integer optimum"

let test_ilp_integer_empty_rational_nonempty () =
  (* 2x = 1: rationally feasible, integrally empty *)
  let sys = Polyhedra.of_constrs 1 [ Polyhedra.eq_ints [ 2; -1 ] ] in
  Alcotest.(check bool) "rational nonempty" false (Polyhedra.is_empty_rational sys);
  match Milp.feasible sys with
  | None -> ()
  | Some _ -> Alcotest.fail "expected integer-infeasible"

let test_lexmin () =
  (* x+y>=3, x<=2, 0<=x,y<=10: lexmin = (0,3) *)
  let sys =
    Polyhedra.of_constrs 2
      [
        Polyhedra.ge_ints [ 1; 1; -3 ];
        Polyhedra.ge_ints [ -1; 0; 2 ];
        Polyhedra.ge_ints [ 1; 0; 0 ];
        Polyhedra.ge_ints [ 0; 1; 0 ];
        Polyhedra.ge_ints [ 0; -1; 10 ];
      ]
  in
  (match Milp.lexmin sys with
  | Some x ->
      Alcotest.(check (list int)) "lexmin" [ 0; 3 ]
        (Array.to_list (Array.map Bigint.to_int x))
  | None -> Alcotest.fail "expected a point");
  (* priority order reversed: minimize y first: x <= 2 forces y >= 1, so the
     y-first minimum is (2,1) *)
  match Milp.lexmin_order sys [ 1; 0 ] with
  | Some x ->
      Alcotest.(check (list int)) "lexmin yx" [ 2; 1 ]
        (Array.to_list (Array.map Bigint.to_int x))
  | None -> Alcotest.fail "expected a point"

let test_lexmin_unbounded () =
  (* both the warm and cold paths must raise the structured diagnostic, not a
     raw Failure — the driver ladder only knows how to absorb Diag errors *)
  let sys = Polyhedra.of_constrs 1 [ Polyhedra.ge_ints [ -1; 0 ] ] in
  List.iter
    (fun warm ->
      match Milp.lexmin ~warm sys with
      | exception Diag.Diagnostic d ->
          Alcotest.(check string)
            (Printf.sprintf "diagnostic code (warm=%b)" warm)
            "unbounded" d.Diag.code
      | exception e ->
          Alcotest.failf "expected Diag.Diagnostic, got %s"
            (Printexc.to_string e)
      | _ -> Alcotest.fail "expected an unbounded diagnostic")
    [ true; false ]

(* ---- property: ILP agrees with brute force on random bounded systems ---- *)

let arb_ilp =
  QCheck.make
    ~print:(fun (sys, obj) ->
      Putil.string_of_format (Polyhedra.pp ?names:None) sys
      ^ " obj=" ^ Putil.string_of_format Vec.pp obj)
    QCheck.Gen.(
      let n = 3 in
      let* ncons = int_range 1 5 in
      let* rows =
        list_repeat ncons
          (let* coefs = list_repeat (n + 1) (int_range (-4) 4) in
           let* iseq = int_range 0 7 in
           return (coefs, iseq = 0))
      in
      let* obj = list_repeat n (int_range (-3) 3) in
      let box =
        List.concat_map
          (fun j ->
            [
              Polyhedra.ge_ints
                (List.init (n + 1) (fun q -> if q = j then 1 else if q = n then 5 else 0));
              Polyhedra.ge_ints
                (List.init (n + 1) (fun q -> if q = j then -1 else if q = n then 5 else 0));
            ])
          (Putil.range n)
      in
      let cs =
        List.map
          (fun (c, e) -> if e then Polyhedra.eq_ints c else Polyhedra.ge_ints c)
          rows
      in
      return (Polyhedra.of_constrs n (box @ cs), Vec.of_int_list obj))

let brute_force sys obj =
  let best = ref None in
  for x = -5 to 5 do
    for y = -5 to 5 do
      for z = -5 to 5 do
        let p = Array.map Bigint.of_int [| x; y; z |] in
        if Polyhedra.sat_point sys p then begin
          let v = Vec.dot obj p in
          match !best with
          | Some b when Bigint.compare b v <= 0 -> ()
          | _ -> best := Some v
        end
      done
    done
  done;
  !best

let prop_ilp_vs_brute =
  QCheck.Test.make ~name:"ILP matches brute force" ~count:150 arb_ilp
    (fun (sys, obj) ->
      match (Milp.ilp sys obj, brute_force sys obj) with
      | Milp.Ilp_optimal (v, x), Some b ->
          Bigint.equal v b && Polyhedra.sat_point sys x
      | Milp.Ilp_infeasible, None -> true
      | Milp.Ilp_unbounded, _ -> false
      | Milp.Ilp_optimal _, None | Milp.Ilp_infeasible, Some _ -> false)

let prop_lexmin_is_lex_minimal =
  QCheck.Test.make ~name:"lexmin is lexicographically minimal" ~count:100
    arb_ilp (fun (sys, _) ->
      match Milp.lexmin sys with
      | None -> brute_force sys (Vec.zero 3) = None
      | Some x ->
          let xv = Array.map Bigint.to_int x in
          Polyhedra.sat_point sys x
          &&
          let ok = ref true in
          for a = -5 to 5 do
            for b = -5 to 5 do
              for c = -5 to 5 do
                let p = Array.map Bigint.of_int [| a; b; c |] in
                if Polyhedra.sat_point sys p && [ a; b; c ] < Array.to_list xv
                then ok := false
              done
            done
          done;
          !ok)

(* Lexmin tie-breaking: many points share the minimal first component; the
   later objective components must break the tie, in order. *)
let test_lexmin_tie_breaking () =
  (* x + y + z = 6, 0 <= x,y,z <= 6.  Plain lexmin: (0,0,6). *)
  let sys =
    Polyhedra.of_constrs 3
      [
        Polyhedra.eq_ints [ 1; 1; 1; -6 ];
        Polyhedra.ge_ints [ 1; 0; 0; 0 ];
        Polyhedra.ge_ints [ 0; 1; 0; 0 ];
        Polyhedra.ge_ints [ 0; 0; 1; 0 ];
        Polyhedra.ge_ints [ -1; 0; 0; 6 ];
        Polyhedra.ge_ints [ 0; -1; 0; 6 ];
        Polyhedra.ge_ints [ 0; 0; -1; 6 ];
      ]
  in
  (match Milp.lexmin sys with
  | Some x ->
      Alcotest.(check (list int))
        "lexmin breaks the x-tie on y, then z" [ 0; 0; 6 ]
        (Array.to_list (Array.map Bigint.to_int x))
  | None -> Alcotest.fail "expected a point");
  (* same optimum for the first component under order [z; y; x]: all points
     with z = 6 force x = y = 0, so the tie never propagates *)
  (match Milp.lexmin_order sys [ 2; 1; 0 ] with
  | Some x ->
      Alcotest.(check (list int))
        "explicit order minimizes z first" [ 6; 0; 0 ]
        (Array.to_list (Array.map Bigint.to_int x))
  | None -> Alcotest.fail "expected a point");
  (* order [y; x] leaves z free to take the slack *)
  match Milp.lexmin_order sys [ 1; 0 ] with
  | Some x ->
      Alcotest.(check (list int))
        "partial order still yields a feasible completion" [ 0; 0; 6 ]
        (Array.to_list (Array.map Bigint.to_int x))
  | None -> Alcotest.fail "expected a point"

(* An exhausted budget must surface as Diag.Budget_exceeded — never as a
   silently wrong "optimum" and never as infeasibility. *)
let test_budget_exhaustion_raises () =
  (* integer-empty strip (odd = even is impossible): branch-and-bound has to
     branch at least once, so a one-node budget cannot finish *)
  let sys =
    Polyhedra.of_constrs 2
      [
        Polyhedra.eq_ints [ 2; -2; -1 ];
        Polyhedra.ge_ints [ 1; 0; 0 ];
        Polyhedra.ge_ints [ -1; 0; 1000 ];
        Polyhedra.ge_ints [ 0; 1; 0 ];
        Polyhedra.ge_ints [ 0; -1; 1000 ];
      ]
  in
  let tiny = { Milp.max_nodes = 1 } in
  (match Milp.ilp ~budget:tiny sys (Vec.of_int_list [ 1; 1 ]) with
  | exception Diag.Budget_exceeded _ -> ()
  | Milp.Ilp_optimal _ -> Alcotest.fail "budget ignored: reported an optimum"
  | Milp.Ilp_infeasible ->
      Alcotest.fail "budget ignored: reported infeasible"
  | Milp.Ilp_unbounded -> Alcotest.fail "budget ignored: reported unbounded");
  (match Milp.feasible ~budget:tiny sys with
  | exception Diag.Budget_exceeded _ -> ()
  | Some _ -> Alcotest.fail "feasible under exhausted budget"
  | None -> Alcotest.fail "infeasible under exhausted budget");
  (match Milp.lexmin ~budget:tiny sys with
  | exception Diag.Budget_exceeded _ -> ()
  | Some _ | None -> Alcotest.fail "lexmin answered under exhausted budget");
  (* a zero-node budget trips immediately, even on an easy system *)
  let starved = { Milp.max_nodes = 0 } in
  let easy =
    Polyhedra.of_constrs 1
      [ Polyhedra.ge_ints [ 1; -3 ]; Polyhedra.ge_ints [ -1; 9 ] ]
  in
  match Milp.lexmin ~budget:starved easy with
  | exception Diag.Budget_exceeded _ -> ()
  | Some _ | None -> Alcotest.fail "zero-node budget ignored"

let suite =
  ( "milp",
    [
      Alcotest.test_case "LP known optimum" `Quick test_lp_known;
      Alcotest.test_case "LP infeasible" `Quick test_lp_infeasible;
      Alcotest.test_case "LP unbounded" `Quick test_lp_unbounded;
      Alcotest.test_case "LP free variables" `Quick test_lp_free_vars;
      Alcotest.test_case "LP equalities" `Quick test_lp_equalities;
      Alcotest.test_case "ILP integrality gap" `Quick test_ilp_gap;
      Alcotest.test_case "ILP integer-empty" `Quick test_ilp_integer_empty_rational_nonempty;
      Alcotest.test_case "lexmin" `Quick test_lexmin;
      Alcotest.test_case "lexmin unbounded" `Quick test_lexmin_unbounded;
      Alcotest.test_case "lexmin tie-breaking" `Quick test_lexmin_tie_breaking;
      Alcotest.test_case "budget exhaustion raises" `Quick
        test_budget_exhaustion_raises;
      QCheck_alcotest.to_alcotest prop_ilp_vs_brute;
      QCheck_alcotest.to_alcotest prop_lexmin_is_lex_minimal;
    ] )
