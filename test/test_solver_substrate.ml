(* Solver-substrate properties: the incremental (warm-started) solver paths
   and the canonical emptiness cache must agree with the cold reference.

   Random systems are drawn from the shared fuzz seed ([Gen.seed_of_env], so
   PLUTO_FUZZ_SEED reproduces a failure), each over 3 variables inside a
   [-5,5] box with a handful of random rows — the same shape the dependence
   tester produces, small enough to brute-force mentally but rich enough to
   hit degenerate optima, parity-infeasible equalities and empty systems. *)

let nvars = 3

let rand_system rng =
  let ri lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let box =
    List.concat_map
      (fun j ->
        [
          Polyhedra.ge_ints
            (List.init (nvars + 1) (fun q ->
                 if q = j then 1 else if q = nvars then 5 else 0));
          Polyhedra.ge_ints
            (List.init (nvars + 1) (fun q ->
                 if q = j then -1 else if q = nvars then 5 else 0));
        ])
      (Putil.range nvars)
  in
  let ncons = ri 1 5 in
  let rows =
    List.init ncons (fun _ ->
        let coefs = Vec.init (nvars + 1) (fun _ -> Bigint.of_int (ri (-4) 4)) in
        if ri 0 7 = 0 then Polyhedra.eq coefs else Polyhedra.ge coefs)
  in
  Polyhedra.of_constrs nvars (box @ rows)

let rand_objective rng =
  let ri lo hi = lo + Random.State.int rng (hi - lo + 1) in
  Vec.init nvars (fun _ -> Bigint.of_int (ri (-3) 3))

let iterations = 200

let with_rng f =
  let rng = Gen.state_of_seed (Gen.seed_of_env ()) in
  for i = 1 to iterations do
    f i rng
  done

(* rational emptiness must agree with ILP-based emptiness in the only
   directions that are sound: rationally empty => no integer point, and an
   integer witness => rationally non-empty (and actually inside) *)
let test_emptiness_agreement () =
  with_rng (fun i rng ->
      let sys = rand_system rng in
      let rat_empty = Polyhedra.is_empty_rational sys in
      let cached_empty = Polyhedra.is_empty_cached sys in
      Alcotest.(check bool)
        (Printf.sprintf "cached = cold rational emptiness (#%d)" i)
        rat_empty cached_empty;
      match Milp.feasible ~warm:false sys with
      | None -> ()
      | Some w ->
          Alcotest.(check bool)
            (Printf.sprintf "witness inside (#%d)" i)
            true (Polyhedra.sat_point sys w);
          Alcotest.(check bool)
            (Printf.sprintf "integer witness refutes rational emptiness (#%d)" i)
            false rat_empty)

(* the integer-tightened cached test may prove MORE systems empty than the
   rational one, but never a system holding an integer point; and whenever it
   says non-empty the ILP must agree with the plain path *)
let test_integer_emptiness_sound () =
  with_rng (fun i rng ->
      let sys = rand_system rng in
      let int_empty = Polyhedra.is_empty_cached ~integer:true sys in
      let witness = Milp.feasible ~warm:false sys in
      if int_empty then
        Alcotest.(check bool)
          (Printf.sprintf "integer-tightened emptiness is sound (#%d)" i)
          true (witness = None);
      match Milp.feasible_cached sys with
      | None ->
          Alcotest.(check bool)
            (Printf.sprintf "feasible_cached agrees on emptiness (#%d)" i)
            true (witness = None)
      | Some w ->
          Alcotest.(check bool)
            (Printf.sprintf "feasible_cached witness inside (#%d)" i)
            true (Polyhedra.sat_point sys w);
          Alcotest.(check bool)
            (Printf.sprintf "feasible_cached agrees on non-emptiness (#%d)" i)
            true (witness <> None))

(* warm-started branch-and-bound returns the same optimum as the cold path,
   and its witness lies in the same optimal class (inside the system,
   achieving the same value) *)
let test_warm_ilp_matches_cold () =
  with_rng (fun i rng ->
      let sys = rand_system rng in
      let obj = rand_objective rng in
      let cold = Milp.ilp ~warm:false sys obj in
      let warm = Milp.ilp ~warm:true sys obj in
      match (cold, warm) with
      | Milp.Ilp_infeasible, Milp.Ilp_infeasible -> ()
      | Milp.Ilp_optimal (vc, _), Milp.Ilp_optimal (vw, xw) ->
          Alcotest.(check string)
            (Printf.sprintf "same optimum (#%d)" i)
            (Bigint.to_string vc) (Bigint.to_string vw);
          Alcotest.(check bool)
            (Printf.sprintf "warm witness inside (#%d)" i)
            true (Polyhedra.sat_point sys xw);
          Alcotest.(check string)
            (Printf.sprintf "warm witness achieves the optimum (#%d)" i)
            (Bigint.to_string vc)
            (Bigint.to_string (Vec.dot obj xw))
      | _ ->
          Alcotest.failf "warm/cold disagree on feasibility (#%d): %s vs %s" i
            (match cold with
            | Milp.Ilp_optimal _ -> "optimal"
            | Milp.Ilp_infeasible -> "infeasible"
            | Milp.Ilp_unbounded -> "unbounded")
            (match warm with
            | Milp.Ilp_optimal _ -> "optimal"
            | Milp.Ilp_infeasible -> "infeasible"
            | Milp.Ilp_unbounded -> "unbounded"))

(* a full-order lexmin pins every coordinate, so the answer is unique: warm
   and cold must return bit-identical vectors *)
let test_warm_lexmin_matches_cold () =
  with_rng (fun i rng ->
      let sys = rand_system rng in
      let cold = Milp.lexmin ~warm:false sys in
      let warm = Milp.lexmin ~warm:true sys in
      match (cold, warm) with
      | None, None -> ()
      | Some xc, Some xw ->
          Alcotest.(check (list string))
            (Printf.sprintf "identical lexmin (#%d)" i)
            (Array.to_list (Array.map Bigint.to_string xc))
            (Array.to_list (Array.map Bigint.to_string xw))
      | _ -> Alcotest.failf "warm/cold disagree on lexmin feasibility (#%d)" i)

(* end to end: the whole compiler must emit byte-identical code with the
   incremental solver on and off, and the warm path must actually avoid cold
   dictionary builds *)
let test_compile_identical_and_cheaper () =
  let p = Kernels.program Kernels.matmul in
  let render r = Putil.string_of_format Codegen.print_c r.Driver.code in
  let run () =
    Polyhedra.clear_caches ();
    Milp.clear_caches ();
    Stats.reset ();
    let code = render (Driver.compile p) in
    (code, Stats.counter "milp.cold_builds", Stats.counter "milp.warm_starts")
  in
  let warm_code, warm_builds, warm_hits = run () in
  Milp.set_warm false;
  Polyhedra.set_empty_cache false;
  let cold_code, cold_builds, cold_run_hits =
    Fun.protect
      ~finally:(fun () ->
        Milp.set_warm true;
        Polyhedra.set_empty_cache true)
      run
  in
  Alcotest.(check string) "byte-identical generated code" cold_code warm_code;
  Alcotest.(check bool)
    (Printf.sprintf "fewer cold builds (%d warm vs %d cold)" warm_builds
       cold_builds)
    true
    (warm_builds < cold_builds);
  Alcotest.(check bool) "warm run used warm starts" true (warm_hits > 0);
  Alcotest.(check int) "cold run never warm-starts" 0 cold_run_hits

(* LRU budgets: the in-memory solver caches stay under their entry budget
   through a stream of distinct probes, entries that were evicted recompute
   to the same answers, and journal absorption reports how much it evicted. *)
let clear_solver_caches () =
  Milp.clear_caches ();
  Polyhedra.clear_caches ()

let test_cache_budgets () =
  clear_solver_caches ();
  Fun.protect
    ~finally:(fun () ->
      Memo.set_budget 100_000;
      Memo.set_journal false;
      clear_solver_caches ())
    (fun () ->
      Memo.set_budget 16;
      let rng = Gen.state_of_seed (Gen.seed_of_env ()) in
      let systems = List.init 120 (fun _ -> rand_system rng) in
      (* feasibility + emptiness are deterministic semantics; witnesses can
         legitimately differ between warm and cold runs, so compare only
         the answers *)
      let probe sys =
        (Milp.feasible_cached sys <> None, Polyhedra.is_empty_cached sys)
      in
      let first = List.map probe systems in
      (* 16 per table: LP, integer feasibility, emptiness *)
      Alcotest.(check bool)
        (Printf.sprintf "solver caches bounded by the budget (%d entries)"
           (Memo.entry_count ()))
        true
        (Memo.entry_count () <= 48);
      Alcotest.(check bool) "evictions were counted" true
        (Stats.counter "milp.cache_evictions" > 0
        && Stats.counter "poly.cache_evictions" > 0);
      let second = List.map probe systems in
      Alcotest.(check bool)
        "evicted entries recompute to the same answers" true (first = second);
      (* a journal bigger than the budget is absorbed, trimmed, and the
         eviction count reported to the caller *)
      Memo.set_journal true;
      clear_solver_caches ();
      List.iter (fun sys -> ignore (probe sys)) systems;
      let journal = Memo.take_journal () in
      Memo.set_journal false;
      clear_solver_caches ();
      let evicted = Memo.absorb journal in
      Alcotest.(check bool) "oversized journal reports evictions" true
        (evicted > 0);
      Alcotest.(check bool) "absorbed tables stay under budget" true
        (Memo.entry_count () <= 48))

(* A compute that raises leaves nothing behind — no memory entry, no store
   entry, no journal entry — and the next call with room to finish
   computes the answer and caches it everywhere. *)
let test_failed_compute_uncached () =
  let box =
    Polyhedra.of_constrs 1
      [ Polyhedra.ge_ints [ 1; 0 ]; Polyhedra.ge_ints [ -1; 5 ] ]
  in
  Pool.with_temp_dir ~prefix:"memo" (fun dir ->
      clear_solver_caches ();
      Store.set_dir (Some dir);
      Memo.set_journal true;
      Fun.protect
        ~finally:(fun () ->
          Memo.set_journal false;
          Store.set_dir None;
          clear_solver_caches ())
        (fun () ->
          let no_nodes = { Milp.max_nodes = 0 } in
          (match Milp.feasible_cached ~budget:no_nodes box with
          | _ -> Alcotest.fail "a zero-node budget must raise"
          | exception Diag.Budget_exceeded _ -> ());
          Alcotest.(check int) "no memory entry" 0 (Memo.entry_count ());
          Alcotest.(check int) "no store entry" 0 (Store.usage_bytes ());
          Alcotest.(check int) "no journal entry" 0
            (Memo.journal_length (Memo.take_journal ()));
          Alcotest.(check bool) "default budget finds a point" true
            (Milp.feasible_cached box <> None);
          Alcotest.(check int) "memory entry" 1 (Memo.entry_count ());
          Alcotest.(check bool) "store entry" true (Store.usage_bytes () > 0);
          Alcotest.(check int) "journal entry" 1
            (Memo.journal_length (Memo.take_journal ()));
          let hits = Stats.counter "milp.feasible_cache_hits" in
          ignore (Milp.feasible_cached ~budget:no_nodes box);
          Alcotest.(check int) "the cached answer needs no solve" (hits + 1)
            (Stats.counter "milp.feasible_cache_hits")))

let suite =
  ( "solver-substrate",
    [
      Alcotest.test_case "rational emptiness vs ILP" `Quick
        test_emptiness_agreement;
      Alcotest.test_case "integer-tightened emptiness sound" `Quick
        test_integer_emptiness_sound;
      Alcotest.test_case "warm B&B = cold B&B" `Quick test_warm_ilp_matches_cold;
      Alcotest.test_case "warm lexmin = cold lexmin" `Quick
        test_warm_lexmin_matches_cold;
      Alcotest.test_case "compile identical, fewer cold builds" `Quick
        test_compile_identical_and_cheaper;
      Alcotest.test_case "cache budgets bound and evict" `Quick
        test_cache_budgets;
      Alcotest.test_case "failed compute leaves no cache entry" `Quick
        test_failed_compute_uncached;
    ] )
