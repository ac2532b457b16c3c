(* Batch compilation over the worker pool: end-to-end manifests, crash/parse
   isolation, the persistent solver store (warm reruns: identical output,
   strictly fewer solves; corruption = miss), and jobs-independence of the
   solver counters. *)

let write_file = Fixtures.write_file
let make_inputs = Fixtures.make_inputs
let codes = Fixtures.codes
let statuses = Fixtures.statuses

(* run_batch with per-run counters: reset, run, return (manifest, counters
   with the pool's own bookkeeping filtered out). *)
let run_counted ?cache_dir ?out_dir ~jobs files =
  Stats.reset ();
  let m = Batch.run ~jobs ?cache_dir ?out_dir files in
  let cs =
    List.filter
      (fun (k, _) -> not (Astring.String.is_prefix ~affix:"pool." k))
      (Stats.counters ())
  in
  Store.set_dir None;
  (m, List.sort compare cs)

let test_end_to_end () =
  Pool.with_temp_dir ~prefix:"batch_test" (fun dir ->
      let files = make_inputs dir in
      let out_dir = Filename.concat dir "out" in
      let m, _ = run_counted ~out_dir ~jobs:2 files in
      Alcotest.(check int) "one entry per file" 2
        (List.length m.Batch.m_entries);
      Alcotest.(check bool) "all succeed" true
        (List.for_all (fun s -> s = Batch.Success) (statuses m));
      Alcotest.(check int) "exit code 0" 0 (Batch.exit_code m);
      (* jacobi rejects the fast scheduling path (profitability) and lands
         on the exact ILP; matmul's schedule comes from the fast rung *)
      List.iter2
        (fun rung (e : Batch.entry) ->
          (match e.Batch.e_output with
          | None -> Alcotest.fail "output not written"
          | Some p ->
              Alcotest.(check bool) ("written: " ^ p) true (Sys.file_exists p));
          Alcotest.(check string) ("rung of " ^ e.Batch.e_file) rung
            e.Batch.e_rung)
        [ "auto"; "fast" ] m.Batch.m_entries;
      let json = Manifest.manifest_to_json m in
      List.iter
        (fun frag ->
          Alcotest.(check bool) ("manifest has " ^ frag) true
            (Astring.String.is_infix ~affix:frag json))
        [ "\"entries\""; "\"status\": \"ok\""; "\"stats\""; "jacobi.c" ])

(* One unparseable file costs exactly its own entry. *)
let test_bad_file_isolated () =
  Pool.with_temp_dir ~prefix:"batch_test" (fun dir ->
      let bad = Filename.concat dir "bad.c" in
      write_file bad "this is not a loop nest @@;";
      let good = Filename.concat dir "good.c" in
      write_file good Kernels.jacobi_1d.Kernels.source;
      let missing = Filename.concat dir "absent.c" in
      let m, _ = run_counted ~jobs:2 [ bad; good; missing ] in
      (match statuses m with
      | [ Batch.Failed; Batch.Success; Batch.Failed ] -> ()
      | _ -> Alcotest.fail "expected failed/ok/failed");
      let bad_entry = List.hd m.Batch.m_entries in
      Alcotest.(check bool) "bad file has diagnostics" true
        (bad_entry.Batch.e_diags <> []);
      Alcotest.(check int) "exit code 1" 1 (Batch.exit_code m))

(* Warm --cache-dir rerun: bit-identical generated code, strictly fewer ILP
   solves, and actual store hits. *)
let test_warm_rerun () =
  Pool.with_temp_dir ~prefix:"batch_test" (fun dir ->
      let files = make_inputs dir in
      let cache_dir = Filename.concat dir "cache" in
      let cold_m, cold_c = run_counted ~cache_dir ~jobs:1 files in
      let warm_m, warm_c = run_counted ~cache_dir ~jobs:1 files in
      Alcotest.(check bool) "bit-identical code" true
        (codes cold_m = codes warm_m);
      let get cs k = match List.assoc_opt k cs with Some v -> v | None -> 0 in
      Alcotest.(check bool)
        (Printf.sprintf "fewer solves warm (%d) than cold (%d)"
           (get warm_c "milp.solves") (get cold_c "milp.solves"))
        true
        (get warm_c "milp.solves" < get cold_c "milp.solves");
      Alcotest.(check bool) "cold run wrote the store" true
        (get cold_c "store.writes" > 0);
      Alcotest.(check bool) "warm run hit the store" true
        (get warm_c "store.hits" > 0);
      Alcotest.(check int) "cold run had no hits" 0 (get cold_c "store.hits"))

(* A corrupted store entry is an eviction and a recompute, never an error or
   a wrong answer. *)
let test_corrupt_store_entry () =
  Pool.with_temp_dir ~prefix:"batch_test" (fun dir ->
      let files = make_inputs dir in
      let cache_dir = Filename.concat dir "cache" in
      let cold_m, _ = run_counted ~cache_dir ~jobs:1 files in
      (* entries live in 2-hex-digit shard subdirectories *)
      let rec smash dir =
        Array.iter
          (fun name ->
            let p = Filename.concat dir name in
            if Sys.is_directory p then smash p
            else if Filename.check_suffix p ".store" then write_file p "garbage")
          (Sys.readdir dir)
      in
      smash cache_dir;
      let again_m, again_c = run_counted ~cache_dir ~jobs:1 files in
      Alcotest.(check bool) "identical code after corruption" true
        (codes cold_m = codes again_m);
      Alcotest.(check bool) "all succeed" true
        (List.for_all (fun s -> s = Batch.Success) (statuses again_m));
      Alcotest.(check bool) "corrupt entries evicted" true
        (match List.assoc_opt "store.evictions" again_c with
        | Some n -> n > 0
        | None -> false))

(* Solver counters and generated code do not depend on --jobs: every file
   starts from empty in-memory caches in both modes. *)
let test_jobs_independence () =
  Pool.with_temp_dir ~prefix:"batch_test" (fun dir ->
      let files = make_inputs dir in
      let m1, c1 = run_counted ~jobs:1 files in
      let m4, c4 = run_counted ~jobs:4 files in
      Alcotest.(check bool) "identical code" true (codes m1 = codes m4);
      Alcotest.(check bool) "identical solver counters" true (c1 = c4))

(* A file over --batch-timeout degrades instead of dying.  fdtd-2d's exact
   search takes about 0.4s on a 2-core Xeon; under a 0.05s timeout
   (8x less) every rung that searches stops on the deadline and the
   identity rung answers, well before the pool's kill backstop — at jobs 1
   (which still forks, to have a worker to kill) and 2 alike. *)
let test_timeout_degrades () =
  Pool.with_temp_dir ~prefix:"batch_test" (fun dir ->
      let file = Filename.concat dir "fdtd-2d.c" in
      write_file file Kernels.fdtd_2d.Kernels.source;
      let options = { Driver.default_options with Driver.fast_schedule = false } in
      List.iter
        (fun jobs ->
          let what fmt = Printf.sprintf ("jobs %d: " ^^ fmt) jobs in
          let m = Batch.run ~options ~jobs ~task_timeout_s:0.05 [ file ] in
          match m.Batch.m_entries with
          | [ e ] ->
              Alcotest.(check bool) (what "degraded") true
                (e.Batch.e_status = Batch.Degraded);
              Alcotest.(check string) (what "identity rung") "identity" e.Batch.e_rung;
              Alcotest.(check bool) (what "deadline warning") true
                (Diag.has_code e.Batch.e_diags "deadline");
              List.iter
                (fun code ->
                  Alcotest.(check bool) (what "no %s diagnostic" code) false
                    (Diag.has_code e.Batch.e_diags code))
                [ "internal"; "pool-timeout" ];
              Alcotest.(check bool)
                (what "answered in %.2fs" e.Batch.e_elapsed_s)
                true (e.Batch.e_elapsed_s < 1.5)
          | es -> Alcotest.failf "%d entries for one file" (List.length es))
        [ 1; 2 ])

let suite =
  ( "batch",
    [
      Fixtures.stats_case "end to end with manifest" `Quick test_end_to_end;
      Fixtures.stats_case "bad file is isolated" `Quick test_bad_file_isolated;
      Fixtures.stats_case "warm cache rerun" `Quick test_warm_rerun;
      Fixtures.stats_case "corrupt store entry is a miss" `Quick
        test_corrupt_store_entry;
      Fixtures.stats_case "jobs-independent counters" `Quick
        test_jobs_independence;
      Fixtures.stats_case "timeout degrades to identity" `Quick test_timeout_degrades;
    ] )
