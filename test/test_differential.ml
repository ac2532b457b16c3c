(* Differential testing: random programs from lib/gen are compiled under a
   matrix of pipeline options — including options that force each rung of the
   graceful-degradation ladder — and the generated code is interpreted and
   compared bit-for-bit against the original program order.  A slice of the
   runs is additionally put through the translation validator.

   The RNG seed is printed on startup and overridable with PLUTO_FUZZ_SEED;
   any failing program is dumped to disk (PLUTO_FUZZ_DUMP_DIR or the temp
   dir) with its path printed, so failures reproduce exactly.

   PLUTO_FUZZ_N overrides the number of generated programs;
   PLUTO_FUZZ_SECONDS switches to a wall-clock budget instead (the CI
   fuzz-smoke job runs with PLUTO_FUZZ_SECONDS=60). *)

let getenv_pos = Fixtures.getenv_pos
let nprograms = Option.value (getenv_pos "PLUTO_FUZZ_N") ~default:200
let seconds = getenv_pos "PLUTO_FUZZ_SECONDS"

(* The option matrix.  Every program is compiled under [default] plus one
   rotating variant, so all variants see a steady stream of programs while
   the total compile count stays ~2x the program count.

   The base options carry a tight solver budget and every compile a 0.5 s
   deadline: some random programs make the hyperplane-search ILPs genuinely
   hard, and an uncapped search can burn tens of seconds on one input.  A
   capped search that degrades down the ladder is exactly the behavior the
   suite wants to cover — the fallback's output is differential-tested all
   the same. *)
let base =
  {
    Driver.default_options with
    Driver.auto =
      { Pluto.Auto.default_config with Pluto.Auto.budget = { Milp.max_nodes = 10_000 } };
  }

let deadline_s = 0.5
let force_budget = { Milp.max_nodes = 0 }

let variants =
  [
    ("notile", { base with Driver.tile = false });
    ( "seq-nointra",
      { base with Driver.parallelize = false; intra_reorder = false } );
    ( "legality-only",
      {
        base with
        Driver.auto =
          { base.Driver.auto with Pluto.Auto.use_cost_bound = false };
      } );
    (* coeff_bound 0 leaves the Pluto search no legal hyperplanes: the ladder
       must degrade to the Feautrier rung.  The fast path is pinned off:
       these two variants exist to exercise specific lower rungs, and a fast
       accept would bypass them (coeff_bound 0 is also a fast-path gate, but
       the pin keeps the variant's intent independent of that rule). *)
    ( "rung-feautrier",
      {
        base with
        Driver.fast_schedule = false;
        auto = { base.Driver.auto with Pluto.Auto.coeff_bound = 0 };
      } );
    (* an exhausted solver budget fails both scheduling rungs: the ladder
       must fall through to the identity rung (the Milp budget does not gate
       the FM-only fast matcher, so it must be pinned off here too) *)
    ( "rung-identity",
      {
        base with
        Driver.fast_schedule = false;
        auto = { base.Driver.auto with Pluto.Auto.budget = force_budget };
      } );
    (* reduction-aware scheduling: programs whose self-updates get marked are
       compared with the reduction tolerance (their schedules legitimately
       reassociate); programs with nothing to mark must stay bit-exact, so
       the flag is differentially a no-op on them *)
    ("reductions", { base with Driver.reductions = true });
  ]

let params =
  Array.of_list (List.map snd Gen.check_params)

let fail_with_reproducer (g : Gen.t) ~config fmt =
  Printf.ksprintf
    (fun msg ->
      let path =
        Fixtures.dump_reproducer ~name:g.Gen.gen_name g.Gen.gen_source
      in
      Alcotest.failf "%s [%s]: %s\nreproducer: %s\nseed: %d" g.Gen.gen_name
        config msg path Fixtures.fuzz_seed)
    fmt

let check_one (g : Gen.t) ~config options =
  match
    Driver.compile_source_robust ~options ~deadline_s ~name:g.Gen.gen_name
      g.Gen.gen_source
  with
  | Error ds ->
      fail_with_reproducer g ~config "robust compilation failed: %s"
        (Format.asprintf "%a" (Diag.pp_all ?src:None) ds)
  | Ok (r, _warns) ->
      (* marked-reduction programs are owed equivalence only up to
         floating-point reassociation; everything else stays bit-exact *)
      let tolerance =
        if
          options.Driver.reductions
          && List.exists (fun d -> d.Deps.reduction) r.Driver.deps
        then Some Machine.reduction_tolerance
        else None
      in
      if
        not (Machine.equivalent ?tolerance r.Driver.program r.Driver.code ~params)
      then
        fail_with_reproducer g ~config
          "transformed code disagrees with original order";
      (* adversarial parallelism check: running every parallel-marked loop
         backwards must not change the result (no-op when nothing is marked) *)
      if
        not
          (Machine.equivalent ~par_reverse:true ?tolerance r.Driver.program
             r.Driver.code ~params)
      then
        fail_with_reproducer g ~config
          "reversing a parallel-marked loop changes the result";
      r

let validate (g : Gen.t) ~config (r : Driver.result) =
  let rep = Driver.verify ~params r in
  if not (Verify.ok rep) then
    fail_with_reproducer g ~config "translation validation failed: %s"
      (Format.asprintf "%a" Verify.pp_report rep)

let test_differential () =
  Fixtures.announce_seed ();
  let st = Gen.state_of_seed Fixtures.fuzz_seed in
  let t0 = Unix.gettimeofday () in
  let keep_going i =
    match seconds with
    | Some s -> Unix.gettimeofday () -. t0 < float_of_int s
    | None -> i < nprograms
  in
  let compiles = ref 0 in
  let validations = ref 0 in
  let i = ref 0 in
  while keep_going !i do
    let g = Gen.generate st in
    let t1 = Unix.gettimeofday () in
    let r = check_one g ~config:"default" base in
    incr compiles;
    let t2 = Unix.gettimeofday () in
    let vname, vopts = List.nth variants (!i mod List.length variants) in
    let _ = check_one g ~config:vname vopts in
    incr compiles;
    let t3 = Unix.gettimeofday () in
    if t3 -. t1 > 1.0 then
      Printf.eprintf "slow: %s default=%.1fs %s=%.1fs\n%!" g.Gen.gen_name
        (t2 -. t1) vname (t3 -. t2);
    (* full translation validation on a slice of the stream *)
    if !i mod 20 = 0 then begin
      validate g ~config:"default" r;
      incr validations
    end;
    incr i
  done;
  Printf.eprintf
    "differential: %d programs, %d compiles, %d validations, %.1fs\n%!" !i
    !compiles !validations
    (Unix.gettimeofday () -. t0);
  Alcotest.(check bool)
    "ran a meaningful number of differential compiles (>= 200 unless \
     narrowed by PLUTO_FUZZ_N/PLUTO_FUZZ_SECONDS)"
    true
    (!compiles >= 2 * min nprograms 100 || seconds <> None)

(* The generator's own invariant: everything it emits parses. *)
let test_generator_parses () =
  Fixtures.announce_seed ();
  let st = Random.State.make [| Fixtures.fuzz_seed + 1 |] in
  for _ = 1 to 100 do
    let g = Gen.generate st in
    match Gen.parse g with
    | (_ : Ir.program) -> ()
    | exception e ->
        ignore
          (Fixtures.dump_reproducer ~name:g.Gen.gen_name g.Gen.gen_source);
        Alcotest.failf "%s: generator emitted unparsable source: %s"
          g.Gen.gen_name (Printexc.to_string e)
  done

let suite =
  ( "differential",
    [
      Alcotest.test_case "generator emits parsable programs" `Quick
        test_generator_parses;
      Alcotest.test_case "random programs vs original order" `Slow
        test_differential;
    ] )
