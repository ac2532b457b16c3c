(* The fast scheduling path (lib/core/fastmatch), differentially tested
   against the exact ILP:

   - every kernel of the corpus is compiled twice — fast path on (the
     default) and off — and both results must execute bit-identically to
     the original program order (hence to each other), including with every
     parallel-marked loop run backwards;
   - a rejection must degrade cleanly: a ["fastpath-rejected"] warning (not
     an error, not a degradation) and generated code identical to what the
     pure ILP pipeline emits;
   - a slice of random programs from lib/gen goes through the same
     comparison;
   - property tests on the matcher itself: accepted schedules are loop
     permutations (each statement pivots each iterator at most once),
     fusion partitions cover every statement exactly once, and the matcher
     is deterministic (same input, same transform — the property that makes
     PLUTO_FUZZ_SEED reproduce failures);
   - the point of the subsystem: with the fast path on, scheduling-time ILP
     solves over the kernel corpus drop at least 5x;
   - the [--break-fastpath] hook proves the validator actually guards the
     accept: a corrupted fast schedule is rejected end to end;
   - fast-path store entries are stamped with the matcher version, so a
     version bump is a cache miss, never a stale schedule. *)

let nofast = { Driver.default_options with Driver.fast_schedule = false }

let code_text (r : Driver.result) =
  Putil.string_of_format Codegen.print_c r.Driver.code

let pp_diags ds = Format.asprintf "%a" (Diag.pp_all ?src:None) ds

let robust ?(options = Driver.default_options) name p =
  match Driver.compile_robust ~options p with
  | Ok (r, ds) -> (r, ds)
  | Error ds -> Alcotest.failf "%s: robust compile failed: %s" name (pp_diags ds)

let fastpath_verdict name ds =
  let acc = Diag.has_code ds "fastpath-accepted" in
  let rej = Diag.has_code ds "fastpath-rejected" in
  Alcotest.(check bool)
    (name ^ ": exactly one fast-path verdict (accepted or rejected)")
    true (acc <> rej);
  acc

(* ----------------------- kernel corpus differential ----------------------- *)

let test_kernel_differential () =
  let accepted = ref [] and rejected = ref [] in
  List.iter
    (fun (k : Kernels.t) ->
      let name = k.Kernels.name in
      let p = Kernels.program k in
      let params = Kernels.params_vector p k.Kernels.check_params in
      let fast_r, fast_ds = robust name p in
      let ilp_r, ilp_ds = robust ~options:nofast name p in
      Alcotest.(check bool) (name ^ ": no errors") false
        (Diag.has_errors fast_ds);
      Alcotest.(check bool) (name ^ ": not degraded") false
        (Driver.degraded fast_ds);
      Alcotest.(check bool)
        (name ^ ": fast path off leaves no fast-path diagnostics") false
        (Diag.has_code ilp_ds "fastpath-accepted"
        || Diag.has_code ilp_ds "fastpath-rejected");
      (* both pipelines must execute bit-identically to the original
         program order — and therefore to each other *)
      Alcotest.(check bool) (name ^ ": fast-on output = original order") true
        (Machine.equivalent p fast_r.Driver.code ~params);
      Alcotest.(check bool) (name ^ ": ILP output = original order") true
        (Machine.equivalent p ilp_r.Driver.code ~params);
      (* adversarial parallelism: reversing any parallel-marked loop of the
         fast-path result must not change the answer *)
      Alcotest.(check bool) (name ^ ": parallel marks safe under reversal")
        true
        (Machine.equivalent ~par_reverse:true p fast_r.Driver.code ~params);
      if fastpath_verdict name fast_ds then accepted := name :: !accepted
      else begin
        rejected := name :: !rejected;
        (* clean rejection: the fall-through lands on exactly the code the
           pure ILP pipeline emits *)
        Alcotest.(check string)
          (name ^ ": rejection degrades to the exact ILP result")
          (code_text ilp_r) (code_text fast_r)
      end)
    Kernels.all;
  Printf.eprintf "fastpath: accepted %d (%s); rejected %d (%s)\n%!"
    (List.length !accepted)
    (String.concat " " (List.rev !accepted))
    (List.length !rejected)
    (String.concat " " (List.rev !rejected));
  Alcotest.(check bool) "the fast path accepts a real slice of the corpus"
    true
    (List.length !accepted >= 3)

(* --------------------- random-program differential slice ------------------ *)

(* A tight solver budget and a 0.5 s deadline keep adversarial random
   programs cheap; degradations down the ladder are fine — the output is
   differential-tested all the same.  (Code equality between the two runs is
   NOT asserted here: the deadline makes which rung wins timing-dependent.) *)
let random_base =
  {
    Driver.default_options with
    Driver.auto =
      { Pluto.Auto.default_config with Pluto.Auto.budget = { Milp.max_nodes = 10_000 } };
  }

let test_random_differential () =
  Fixtures.announce_seed ();
  let st = Gen.state_of_seed Fixtures.fuzz_seed in
  let params = Array.of_list (List.map snd Gen.check_params) in
  let naccepted = ref 0 in
  let n = 40 in
  for _ = 1 to n do
    let g = Gen.generate st in
    let run config options =
      match
        Driver.compile_source_robust ~options ~deadline_s:0.5 ~name:g.Gen.gen_name
          g.Gen.gen_source
      with
      | Ok (r, ds) -> (r, ds)
      | Error ds ->
          let path =
            Fixtures.dump_reproducer ~name:g.Gen.gen_name g.Gen.gen_source
          in
          Alcotest.failf "%s [%s]: robust compile failed: %s\nreproducer: %s"
            g.Gen.gen_name config (pp_diags ds) path
    in
    let fast_r, fast_ds = run "fast" random_base in
    let ilp_r, _ =
      run "nofast" { random_base with Driver.fast_schedule = false }
    in
    let check_equiv what r =
      if not (Machine.equivalent r.Driver.program r.Driver.code ~params) then begin
        let path =
          Fixtures.dump_reproducer ~name:g.Gen.gen_name g.Gen.gen_source
        in
        Alcotest.failf "%s: %s disagrees with original order\nreproducer: %s"
          g.Gen.gen_name what path
      end
    in
    check_equiv "fast-on output" fast_r;
    check_equiv "fast-off output" ilp_r;
    if fastpath_verdict g.Gen.gen_name fast_ds then begin
      incr naccepted;
      if
        not
          (Machine.equivalent ~par_reverse:true fast_r.Driver.program
             fast_r.Driver.code ~params)
      then
        Alcotest.failf "%s: reversing a parallel loop changes the result"
          g.Gen.gen_name
    end
  done;
  Printf.eprintf "fastpath random differential: %d/%d accepted (seed %d)\n%!"
    !naccepted n Fixtures.fuzz_seed

(* ------------------------- matcher property tests ------------------------- *)

let try_schedule p ds =
  match Pluto.Fastmatch.schedule p ds with
  | t -> Ok t
  | exception Pluto.Fastmatch.No_fast_schedule msg -> Error msg

(* Transform signature for determinism comparisons: everything except the
   [satisfied_at] hashtable (whose physical layout is irrelevant). *)
let signature = function
  | Error msg -> Error msg
  | Ok (t : Pluto.Types.transform) ->
      Ok
        ( t.Pluto.Types.nlevels,
          Array.to_list t.Pluto.Types.kinds,
          Array.to_list
            (Array.map
               (fun rs -> Array.to_list (Array.map Array.to_list rs))
               t.Pluto.Types.rows) )

(* The corpus plus a seeded stream of random programs: every program the
   matcher accepts must satisfy the structural properties. *)
let property_programs () =
  let kernels =
    List.map
      (fun (k : Kernels.t) ->
        let p = Kernels.program k in
        (k.Kernels.name, p, Deps.compute p))
      Kernels.all
  in
  let st = Gen.state_of_seed Fixtures.fuzz_seed in
  let randoms =
    List.init 25 (fun _ ->
        let g = Gen.generate st in
        let p = Gen.parse g in
        (g.Gen.gen_name, p, Deps.compute p))
  in
  kernels @ randoms

let test_permutation_property () =
  Fixtures.announce_seed ();
  let naccepted = ref 0 in
  List.iter
    (fun (name, (p : Ir.program), ds) ->
      match try_schedule p ds with
      | Error _ -> ()
      | Ok t ->
          incr naccepted;
          List.iter
            (fun (s : Ir.stmt) ->
              let m = Ir.depth s in
              let perm = Pluto.Fastmatch.For_tests.permutation t s.Ir.id in
              List.iter
                (fun j ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s stmt %d: pivot %d in range" name
                       s.Ir.id j)
                    true
                    (j >= 0 && j < m))
                perm;
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s stmt %d: pivots are distinct (a permutation)" name
                   s.Ir.id)
                true
                (List.length (List.sort_uniq compare perm)
                = List.length perm);
              Alcotest.(check bool)
                (Printf.sprintf "%s stmt %d: at most depth pivots" name
                   s.Ir.id)
                true
                (List.length perm <= m))
            p.Ir.stmts)
    (property_programs ());
  Alcotest.(check bool) "some programs accepted" true (!naccepted > 0)

let test_partition_property () =
  Fixtures.announce_seed ();
  List.iter
    (fun (name, (p : Ir.program), ds) ->
      match try_schedule p ds with
      | Error _ -> ()
      | Ok t ->
          let groups = Pluto.Fastmatch.For_tests.partition t in
          let flat = List.sort compare (List.concat groups) in
          Alcotest.(check (list int))
            (name ^ ": fusion partition covers every statement exactly once")
            (Putil.range (List.length p.Ir.stmts))
            flat;
          List.iter
            (fun g ->
              Alcotest.(check bool) (name ^ ": no empty fusion group") true
                (g <> []))
            groups)
    (property_programs ())

let test_matcher_deterministic () =
  Fixtures.announce_seed ();
  (* same seed, two independent passes over generator + matcher: the whole
     accept/reject/transform stream must replay exactly *)
  let pass () =
    let st = Gen.state_of_seed Fixtures.fuzz_seed in
    List.init 20 (fun _ ->
        let g = Gen.generate st in
        let p = Gen.parse g in
        let ds = Deps.compute p in
        let s1 = signature (try_schedule p ds) in
        (* and scheduling the very same program twice agrees with itself *)
        let s2 = signature (try_schedule p ds) in
        Alcotest.(check bool)
          (g.Gen.gen_name ^ ": matcher self-deterministic") true (s1 = s2);
        (g.Gen.gen_name, s1))
  in
  let a = pass () and b = pass () in
  Alcotest.(check bool)
    (Printf.sprintf
       "matcher replay under PLUTO_FUZZ_SEED=%d is exact across passes"
       Fixtures.fuzz_seed)
    true (a = b)

(* -------------------- scheduling-time ILP solve reduction ----------------- *)

(* "Scheduling-time" solves: dependence analysis also probes the ILP
   ([Milp.feasible_cached]), but those probes are memoized per system — so
   computing the dependences once beforehand and then resetting the counters
   leaves [milp.solves] counting only what the scheduling rungs spend. *)
let scheduling_solves options (p : Ir.program) =
  ignore (Deps.compute p : Deps.t list);
  Stats.reset ();
  (match Driver.compile_robust ~options p with
  | Ok _ -> ()
  | Error ds -> Alcotest.failf "compile failed: %s" (pp_diags ds));
  Fixtures.counter_of "milp.solves"

let test_ilp_solve_reduction () =
  let fast_total = ref 0 and ilp_total = ref 0 in
  List.iter
    (fun (k : Kernels.t) ->
      let p = Kernels.program k in
      let f = scheduling_solves Driver.default_options p in
      let n = scheduling_solves nofast p in
      Printf.eprintf "fastpath solves: %-18s fast=%-3d ilp=%d\n%!"
        k.Kernels.name f n;
      Alcotest.(check bool)
        (k.Kernels.name ^ ": fast path never costs extra scheduling solves")
        true (f <= n);
      fast_total := !fast_total + f;
      ilp_total := !ilp_total + n)
    Kernels.all;
  Printf.eprintf "fastpath solves: corpus total fast=%d ilp=%d\n%!" !fast_total
    !ilp_total;
  Alcotest.(check bool)
    (Printf.sprintf
       "fast path cuts scheduling-time ILP solves >= 5x over the corpus \
        (fast=%d, ilp=%d)"
       !fast_total !ilp_total)
    true
    (!ilp_total >= 5 * max 1 !fast_total)

(* --------------------------- the validator guard -------------------------- *)

let test_break_fastpath_is_caught () =
  let k = Kernels.matmul in
  let p = Kernels.program k in
  (* sanity: matmul is a kernel the matcher accepts... *)
  let _, clean_ds = robust k.Kernels.name p in
  Alcotest.(check bool) "matmul takes the fast path when unbroken" true
    (Diag.has_code clean_ds "fastpath-accepted");
  (* ...so a deliberately corrupted fast schedule exercises the guard: the
     validator must reject it and the ladder fall back to the exact ILP *)
  let broken =
    { Driver.default_options with Driver.break_fastpath = true }
  in
  let r, ds = robust ~options:broken k.Kernels.name p in
  Alcotest.(check bool) "poisoned schedule is rejected" true
    (Diag.has_code ds "fastpath-rejected");
  Alcotest.(check bool) "rejection is not a degradation" false
    (Driver.degraded ds);
  Alcotest.(check bool) "rejection is not an error" false (Diag.has_errors ds);
  let params = Kernels.params_vector p k.Kernels.check_params in
  Alcotest.(check bool) "fallback output = original order" true
    (Machine.equivalent p r.Driver.code ~params);
  (* and the fallback is exactly the ILP result *)
  let ilp_r, _ = robust ~options:nofast k.Kernels.name p in
  Alcotest.(check string) "fallback = exact ILP result" (code_text ilp_r)
    (code_text r)

(* ------------------------- store version stamping ------------------------- *)

let test_store_version_stamp () =
  Pool.with_temp_dir ~prefix:"fastpath" (fun dir ->
      Fun.protect
        ~finally:(fun () -> Store.set_dir None)
        (fun () ->
          Store.set_dir (Some dir);
          let v = Pluto.Fastmatch.version in
          Store.write_versioned ~version:v ~kind:"fastpath" ~key:"k"
            (42, "schedule");
          (match
             (Store.read_versioned ~version:v ~kind:"fastpath" ~key:"k"
               : (int * string) option)
           with
          | Some (42, "schedule") -> ()
          | _ -> Alcotest.fail "round-trip under the matcher version");
          (* a matcher version bump re-keys the entry: miss, not stale hit *)
          Alcotest.(check bool) "other version misses" true
            ((Store.read_versioned ~version:(v ^ "-next") ~kind:"fastpath"
                ~key:"k"
               : (int * string) option)
            = None);
          (* and the unversioned reader never sees versioned entries *)
          Alcotest.(check bool) "unversioned read misses" true
            ((Store.read ~kind:"fastpath" ~key:"k" : (int * string) option)
            = None)))

let suite =
  ( "fastpath",
    [
      Fixtures.stats_case "kernel corpus differential vs exact ILP" `Slow
        test_kernel_differential;
      Fixtures.stats_case "random program differential slice" `Slow
        test_random_differential;
      Alcotest.test_case "accepted schedules are permutations" `Quick
        test_permutation_property;
      Alcotest.test_case "fusion partitions cover statements once" `Quick
        test_partition_property;
      Alcotest.test_case "matcher deterministic under fixed seed" `Quick
        test_matcher_deterministic;
      Fixtures.stats_case "scheduling-time ILP solves cut >= 5x" `Slow
        test_ilp_solve_reduction;
      Fixtures.stats_case "--break-fastpath is caught by the validator" `Quick
        test_break_fastpath_is_caught;
      Alcotest.test_case "store entries are version-stamped" `Quick
        test_store_version_stamp;
    ] )
