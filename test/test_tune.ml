(* The autotuner (lib/tune): candidate space and footprint pruning,
   determinism under a pinned seed, the persistent evaluation cache, the fork
   worker pool, and the tuned-beats-baseline property the subsystem exists
   for. *)

let mc = Machine.default_machine

(* small, fast searches: all program parameters default to 64; with
   [cache_dir] the search memoizes into a store in that directory *)
let search ?cache_dir ?(jobs = 1) ?(budget = 6) ?(seed = 7) p =
  Store.set_dir cache_dir;
  Fun.protect
    ~finally:(fun () -> Store.set_dir None)
    (fun () -> Tune.search ~jobs ~budget ~candidate_time_s:30.0 ~seed p)

let outcome_sig (o : Tune.outcome) =
  ( Tune.candidate_to_string o.Tune.o_cand,
    o.Tune.o_cycles,
    o.Tune.o_degraded,
    o.Tune.o_failed )

let report_sig (r : Tune.report) = List.map outcome_sig r.Tune.r_outcomes

let with_temp_dir f = Pool.with_temp_dir ~prefix:"tune" f

(* ----------------------------- candidate space ---------------------------- *)

let test_footprint () =
  (* 2 arrays, 2-deep band, 32x32 tiles: 2 * 32*32 * 8 bytes *)
  Alcotest.(check int)
    "uniform footprint" (2 * 32 * 32 * 8)
    (Tune.footprint_bytes ~narrays:2 ~band_width:2 [| 32 |]);
  (* rectangular: last size repeats for deeper levels *)
  Alcotest.(check int)
    "rect footprint" (3 * 8 * 32 * 32 * 8)
    (Tune.footprint_bytes ~narrays:3 ~band_width:3 [| 8; 32 |]);
  Alcotest.(check int) "no band" 0
    (Tune.footprint_bytes ~narrays:2 ~band_width:0 [| 32 |])

let test_prunes () =
  (* 64x64 tiles over 2 arrays = 64 KB > the 16 KB modeled L2 *)
  Alcotest.(check bool) "64x64 pruned" true
    (Tune.prunes ~machine:mc ~narrays:2 ~band_width:2
       { Tune.default_candidate with Tune.c_sizes = Some [| 64 |] });
  Alcotest.(check bool) "8x8 kept" false
    (Tune.prunes ~machine:mc ~narrays:2 ~band_width:2
       { Tune.default_candidate with Tune.c_sizes = Some [| 8 |] });
  (* model-chosen sizes and untiled candidates are never pruned *)
  Alcotest.(check bool) "model sizes kept" false
    (Tune.prunes ~machine:mc ~narrays:8 ~band_width:3 Tune.default_candidate);
  Alcotest.(check bool) "untiled kept" false
    (Tune.prunes ~machine:mc ~narrays:8 ~band_width:3
       { Tune.default_candidate with Tune.c_tile = false })

let test_enumerate_anchors () =
  (* narrays/band deep enough that T=64 is over budget: the anchors must
     survive anyway (they are the report's baselines), and pruned candidates
     must be gone *)
  let cands, npruned = Tune.For_tests.enumerate ~machine:mc ~narrays:3 ~band_width:3 in
  Alcotest.(check bool) "some pruned" true (npruned > 0);
  (match cands with
  | c0 :: c1 :: _ ->
      Alcotest.(check string) "anchor 0 is default"
        (Tune.candidate_to_string Tune.default_candidate)
        (Tune.candidate_to_string c0);
      Alcotest.(check string) "anchor 1 is T=64"
        (Tune.candidate_to_string Tune.t64_candidate)
        (Tune.candidate_to_string c1)
  | _ -> Alcotest.fail "fewer than two candidates");
  List.iteri
    (fun i c ->
      if i >= 2 then
        Alcotest.(check bool)
          ("survivor not prunable: " ^ Tune.candidate_to_string c)
          false
          (Tune.prunes ~machine:mc ~narrays:3 ~band_width:3 c))
    cands

let test_cache_key_distinguishes () =
  let key = Tune.For_tests.cache_key ~machine:mc ~options:Driver.default_options in
  let k0 = key ~program_repr:"P" ~params:[ ("N", 64) ] Tune.default_candidate in
  Alcotest.(check string) "stable" k0
    (key ~program_repr:"P" ~params:[ ("N", 64) ] Tune.default_candidate);
  Alcotest.(check bool) "candidate changes key" true
    (k0 <> key ~program_repr:"P" ~params:[ ("N", 64) ] Tune.t64_candidate);
  Alcotest.(check bool) "params change key" true
    (k0 <> key ~program_repr:"P" ~params:[ ("N", 128) ] Tune.default_candidate);
  Alcotest.(check bool) "program changes key" true
    (k0 <> key ~program_repr:"Q" ~params:[ ("N", 64) ] Tune.default_candidate);
  (* every wire field of the base options is part of the key: a change to
     any one of them must never be served another configuration's cost *)
  let key_with options =
    Tune.For_tests.cache_key ~machine:mc ~options ~program_repr:"P"
      ~params:[ ("N", 64) ] Tune.default_candidate
  in
  List.iter
    (fun (Driver.Field f) ->
      let o = f.Driver.set Driver.default_options (Fixtures.non_default f) in
      Alcotest.(check bool) (f.Driver.key ^ " changes key") true (k0 <> key_with o))
    Driver.option_fields;
  let a = Driver.default_options.Driver.auto in
  Alcotest.(check bool) "search config changes key" true
    (k0
    <> key_with
         {
           Driver.default_options with
           Driver.auto = { a with Pluto.Auto.coeff_bound = a.Pluto.Auto.coeff_bound + 1 };
         })

(* A --reductions search on a store filled without it must evaluate every
   candidate, never be served costs measured under other options, and so
   agree with a cold --reductions search. *)
let test_cache_key_reductions () =
  let p = Kernels.program Kernels.dot in
  let reductions = { Driver.default_options with Driver.reductions = true } in
  let search ~dir options =
    Store.set_dir (Some dir);
    Fun.protect
      ~finally:(fun () -> Store.set_dir None)
      (fun () -> fst (Tune.search ~options ~budget:6 ~candidate_time_s:30.0 ~seed:7 p))
  in
  let best_cycles r = Option.map (fun o -> o.Tune.o_cycles) r.Tune.r_best in
  with_temp_dir (fun shared ->
      with_temp_dir (fun fresh ->
          ignore (search ~dir:shared Driver.default_options);
          let warm = search ~dir:shared reductions in
          let cold = search ~dir:fresh reductions in
          Alcotest.(check int) "no hits from the plain search" 0 warm.Tune.r_cache_hits;
          Alcotest.(check (option (float 0.0)))
            "same best cost as a cold --reductions search" (best_cycles cold)
            (best_cycles warm)))

(* ------------------------------ determinism ------------------------------- *)

let test_deterministic_search () =
  let p = Kernels.program Kernels.jacobi_1d in
  let r1, _ = search ~seed:11 p in
  let r2, _ = search ~seed:11 p in
  Alcotest.(check int) "same count"
    (List.length r1.Tune.r_outcomes)
    (List.length r2.Tune.r_outcomes);
  Alcotest.(check bool) "identical outcomes" true (report_sig r1 = report_sig r2)

let test_pool_matches_sequential () =
  (* the fork pool must not change results, only wall time *)
  let p = Kernels.program Kernels.jacobi_1d in
  let seq, _ = search ~jobs:1 ~seed:13 p in
  let par, _ = search ~jobs:3 ~seed:13 p in
  Alcotest.(check bool) "pool = sequential" true (report_sig seq = report_sig par)

(* ------------------------------- the cache -------------------------------- *)

let test_cache_warm_rerun () =
  with_temp_dir (fun dir ->
      let p = Kernels.program Kernels.jacobi_1d in
      let cold, _ = search ~cache_dir:dir ~seed:17 p in
      Alcotest.(check bool) "cold run evaluates" true (cold.Tune.r_evaluated > 0);
      Alcotest.(check int) "cold run has no hits" 0 cold.Tune.r_cache_hits;
      let warm, _ = search ~cache_dir:dir ~seed:17 p in
      Alcotest.(check int) "warm run evaluates nothing" 0 warm.Tune.r_evaluated;
      Alcotest.(check int) "warm run all hits"
        (List.length warm.Tune.r_outcomes)
        warm.Tune.r_cache_hits;
      Alcotest.(check bool) "warm costs identical" true
        (report_sig cold = report_sig warm);
      Alcotest.(check bool) "warm outcomes marked from_cache" true
        (List.for_all (fun o -> o.Tune.o_from_cache) warm.Tune.r_outcomes))

(* Bit rot must cost a re-evaluation, never a wrong cost.  Flipping the low
   bit of byte 25 of a text-format entry changed one digit of its cycles
   line — still a valid number, so it was served as a hit with a wrong
   cost.  Under the store's checksum every flipped entry is a miss. *)
let test_cache_corruption_is_miss () =
  with_temp_dir (fun dir ->
      let p = Kernels.program Kernels.jacobi_1d in
      let cold, _ = search ~cache_dir:dir ~seed:19 p in
      let rec files d =
        List.concat_map
          (fun f ->
            let path = Filename.concat d f in
            if Sys.is_directory path then files path else [ path ])
          (Array.to_list (Sys.readdir d))
      in
      List.iter
        (fun f ->
          let b = Bytes.of_string (In_channel.with_open_bin f In_channel.input_all) in
          if Bytes.length b > 25 then begin
            Bytes.set b 25 (Char.chr (Char.code (Bytes.get b 25) lxor 0x01));
            Out_channel.with_open_bin f (fun oc -> Out_channel.output_bytes oc b)
          end)
        (files dir);
      let again, _ = search ~cache_dir:dir ~seed:19 p in
      Alcotest.(check int) "corrupt cache gives no hits" 0
        again.Tune.r_cache_hits;
      Alcotest.(check bool) "still evaluates" true (again.Tune.r_evaluated > 0);
      Alcotest.(check bool) "re-evaluated costs match the cold run" true
        (report_sig cold = report_sig again))

(* A crashed worker is not an evaluation: with every worker killed, the
   search caches nothing, and the next run evaluates every candidate. *)
let test_worker_crash_not_cached () =
  with_temp_dir (fun dir ->
      let p = Kernels.program Kernels.jacobi_1d in
      let crashed, _ =
        Fun.protect
          ~finally:(fun () -> Fault.install None)
          (fun () ->
            Fault.install
              (Some
                 {
                   Fault.seed = 1;
                   rate = 1.0;
                   only = [ "pool.worker.kill" ];
                   fail_at = [];
                 });
            search ~cache_dir:dir ~jobs:2 ~seed:29 p)
      in
      Alcotest.(check bool) "every candidate crashed" true
        (List.for_all (fun o -> o.Tune.o_failed <> None) crashed.Tune.r_outcomes);
      let again, _ = search ~cache_dir:dir ~jobs:2 ~seed:29 p in
      Alcotest.(check int) "no crash was cached" 0 again.Tune.r_cache_hits;
      Alcotest.(check int) "every candidate evaluated"
        (List.length again.Tune.r_outcomes)
        again.Tune.r_evaluated)

(* A cost measured on a compile that hit its deadline depends on timing, so
   it is not cached: under a 1µs deadline every candidate degrades, and a
   rerun evaluates them all again. *)
let test_deadline_not_cached () =
  with_temp_dir (fun dir ->
      let p = Kernels.program Kernels.jacobi_1d in
      let rushed () =
        Store.set_dir (Some dir);
        Fun.protect
          ~finally:(fun () -> Store.set_dir None)
          (fun () -> fst (Tune.search ~budget:2 ~candidate_time_s:1e-6 ~seed:31 p))
      in
      let first = rushed () in
      Alcotest.(check bool) "every candidate degraded" true
        (List.for_all (fun o -> o.Tune.o_degraded) first.Tune.r_outcomes);
      let again = rushed () in
      Alcotest.(check int) "nothing was cached" 0 again.Tune.r_cache_hits;
      Alcotest.(check int) "every candidate evaluated again" 2 again.Tune.r_evaluated)

(* ------------------------- tuned beats baselines -------------------------- *)

(* The reason the subsystem exists: the best verified candidate is never
   worse than the default configuration or the hardcoded T=64, because both
   are always in the evaluated set. *)
let check_tuned_wins k =
  let p = Kernels.program k in
  let report, best = search ~budget:10 ~seed:23 p in
  match (report.Tune.r_best, best) with
  | Some o, Some r ->
      Alcotest.(check bool) "best not failed" true (o.Tune.o_failed = None);
      Alcotest.(check bool) "tuned <= default" true
        (o.Tune.o_cycles <= report.Tune.r_default_cycles);
      Alcotest.(check bool) "tuned <= T64" true
        (o.Tune.o_cycles <= report.Tune.r_t64_cycles);
      (* the returned artifact is real generated code for this program *)
      Alcotest.(check bool) "artifact verifies" true
        (Verify.ok (Driver.verify r))
  | _ -> Alcotest.fail "no verified candidate found"

let test_tuned_wins_jacobi () = check_tuned_wins Kernels.jacobi_1d
let test_tuned_wins_matmul () = check_tuned_wins Kernels.matmul

(* ------------------------ unroll-jam + stats ride-alongs ------------------ *)

let test_unroll_jam_annotation () =
  let p = Kernels.program Kernels.matmul in
  let plain = Driver.compile p in
  let r =
    Driver.compile
      ~options:{ Driver.default_options with Driver.unroll_jam = 4 }
      p
  in
  let levels = Codegen.unrolled_levels r.Driver.code in
  Alcotest.(check bool) "some level annotated" true (levels <> []);
  (* annotation only: the generated loops are semantically unchanged *)
  Alcotest.(check bool) "equivalent to original" true
    (Machine.equivalent p r.Driver.code ~params:[| 14 |]);
  (* the simulator prices it: cost differs from the unannotated code *)
  let c1 = (Machine.simulate mc plain.Driver.code ~params:[| 64 |]).Machine.cycles in
  let c4 = (Machine.simulate mc r.Driver.code ~params:[| 64 |]).Machine.cycles in
  Alcotest.(check bool) "unroll changes modeled cost" true (c1 <> c4);
  (* and the C printer emits the pragma *)
  let c_text = Putil.string_of_format Codegen.print_c r.Driver.code in
  Alcotest.(check bool) "pragma in output" true
    (Astring.String.is_infix ~affix:"#pragma unroll(4)" c_text)

(* Runs under Fixtures.stats_case: the counters start from zero regardless
   of which suites ran earlier in the process. *)
let test_stats_counters () =
  let p = Kernels.program Kernels.jacobi_1d in
  ignore (Driver.compile p);
  Alcotest.(check bool) "ilp solves counted" true (Stats.counter "milp.solves" > 0);
  Alcotest.(check bool) "fm eliminations counted" true
    (Stats.counter "fm.eliminations" > 0);
  ignore (Machine.simulate mc (Driver.compile p).Driver.code ~params:[| 8; 24 |]);
  Alcotest.(check bool) "simulations counted" true
    (Stats.counter "machine.simulations" > 0);
  let j = Stats.to_json () in
  Alcotest.(check bool) "json mentions timers" true
    (Astring.String.is_infix ~affix:"pass.transform" j)

let suite =
  ( "tune",
    [
      Alcotest.test_case "footprint arithmetic" `Quick test_footprint;
      Alcotest.test_case "pruning predicate" `Quick test_prunes;
      Alcotest.test_case "enumerate keeps anchors" `Quick test_enumerate_anchors;
      Alcotest.test_case "cache key" `Quick test_cache_key_distinguishes;
      Alcotest.test_case "cache key covers --reductions" `Slow
        test_cache_key_reductions;
      Alcotest.test_case "deterministic under seed" `Slow test_deterministic_search;
      Alcotest.test_case "fork pool = sequential" `Slow test_pool_matches_sequential;
      Alcotest.test_case "warm cache skips evaluation" `Slow test_cache_warm_rerun;
      Alcotest.test_case "corrupt cache = miss" `Slow test_cache_corruption_is_miss;
      Alcotest.test_case "worker crash is not cached" `Slow
        test_worker_crash_not_cached;
      Alcotest.test_case "deadline hit is not cached" `Quick test_deadline_not_cached;
      Alcotest.test_case "tuned beats baselines (jacobi)" `Slow test_tuned_wins_jacobi;
      Alcotest.test_case "tuned beats baselines (matmul)" `Slow test_tuned_wins_matmul;
      Alcotest.test_case "unroll-jam annotation" `Quick test_unroll_jam_annotation;
      Fixtures.stats_case "stats counters" `Quick test_stats_counters;
    ] )
