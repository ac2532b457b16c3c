(* The chaos differential suite: batch compiles of the example corpus under
   hundreds of seeded fault schedules (lib/fault), asserting the robustness
   invariant end-to-end:

     every run either produces output bit-identical to the fault-free run,
     or fails with a structured Diag diagnostic — never a crash, a hang, a
     silently wrong answer, or a cache over its byte budget.

   Faults cover the whole I/O infrastructure: failed/partial/crashed store
   publishes, ENOSPC, rename and fsync failures, corrupt store bytes on
   read, SIGKILLed pool workers, truncated pipe payloads, EINTR storms on
   the parent's pipe reads.  Because solver-store entries are pure
   functions of their keys and the store detects every injected corruption,
   no infrastructure fault can change generated code — it can only cost
   retries and recomputation.

   PLUTO_CHAOS_N overrides the number of schedules (default 200);
   PLUTO_CHAOS_SECONDS switches to a wall-clock budget instead (the CI
   chaos-smoke job runs with PLUTO_CHAOS_SECONDS=60);
   PLUTO_CHAOS_SEED offsets every schedule's seed;
   PLUTO_CHAOS_DUMP_DIR collects failing schedules as reproducer dumps. *)

let getenv_pos = Fixtures.getenv_pos
let n_schedules = Option.value (getenv_pos "PLUTO_CHAOS_N") ~default:200
let seconds = getenv_pos "PLUTO_CHAOS_SECONDS"
let base_seed = Option.value (getenv_pos "PLUTO_CHAOS_SEED") ~default:20080613
let dump_dir = Sys.getenv_opt "PLUTO_CHAOS_DUMP_DIR"
let counter_of = Fixtures.counter_of
let write_file = Fixtures.write_file
let make_inputs = Fixtures.make_inputs

let rec walk dir f =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk p f else f p)
      (Sys.readdir dir)

let tmp_files dir =
  let acc = ref [] in
  walk dir (fun p -> if Filename.check_suffix p ".tmp" then acc := p :: !acc);
  !acc

let codes = Fixtures.codes

(* ----------------------------- fault schedules ---------------------------- *)

type schedule = {
  s_id : int;
  s_config : Fault.config;
  s_jobs : int;
  s_budget : int option;
}

(* Deterministic schedule family: rotate rates, subsystem restrictions,
   pinpoint fail-at shots, jobs counts and byte budgets so the suite sweeps
   rate-driven storms as well as surgical single-fault runs. *)
let schedule_of i =
  let rates = [| 0.01; 0.03; 0.08; 0.15 |] in
  let onlys =
    [|
      [];
      [ "store.write" ];
      [ "store.read" ];
      [ "pool." ];
      [ "store." ];
    |]
  in
  let fail_at =
    if i mod 7 = 3 then
      [
        ("store.write.rename", [ 1; 4 ]);
        ("store.write.crash", [ 2 ]);
        ("pool.worker.kill", [ 1 ]);
      ]
    else []
  in
  {
    s_id = i;
    s_config =
      {
        Fault.seed = base_seed + i;
        Fault.rate = rates.(i mod Array.length rates);
        Fault.only = onlys.(i mod Array.length onlys);
        Fault.fail_at = fail_at;
      };
    s_jobs = (if i mod 2 = 0 then 2 else 1);
    s_budget = (if i mod 3 = 0 then Some 16384 else None);
  }

let describe s =
  Printf.sprintf "schedule %d: jobs=%d budget=%s %s" s.s_id s.s_jobs
    (match s.s_budget with None -> "none" | Some b -> string_of_int b)
    (Fault.describe s.s_config)

let dump_schedule s (m : Batch.manifest option) msg =
  match dump_dir with
  | None -> ()
  | Some d ->
      (try Sys.mkdir d 0o755 with Sys_error _ -> ());
      write_file
        (Filename.concat d (Printf.sprintf "chaos-%04d.txt" s.s_id))
        (Printf.sprintf "%s\nviolation: %s\n\n%s\n" (describe s) msg
           (match m with
           | Some m -> Manifest.manifest_to_json m
           | None -> "(no manifest: Batch.run raised)"))

let fail_schedule s m msg =
  dump_schedule s m msg;
  Alcotest.failf "%s — %s" (describe s) msg

(* Check the chaos invariant for one faulted manifest against the
   fault-free reference codes. *)
let check_invariant s reference (m : Batch.manifest) =
  List.iter2
    (fun ref_code (e : Batch.entry) ->
      match e.Batch.e_status with
      | Batch.Success ->
          if e.Batch.e_code <> ref_code then
            fail_schedule s (Some m)
              (Printf.sprintf "output of %s differs from the fault-free run"
                 e.Batch.e_file)
      | Batch.Failed ->
          if not (Diag.has_errors e.Batch.e_diags) then
            fail_schedule s (Some m)
              (Printf.sprintf "%s failed without a structured error diagnostic"
                 e.Batch.e_file)
      | Batch.Degraded ->
          (* infrastructure faults must never change scheduling decisions *)
          fail_schedule s (Some m)
            (Printf.sprintf "%s degraded under infrastructure faults"
               e.Batch.e_file))
    reference m.Batch.m_entries

(* ------------------------------- the suite -------------------------------- *)

let test_chaos_invariant () =
  Pool.with_temp_dir ~prefix:"chaos" (fun dir ->
      let files = make_inputs dir in
      Fun.protect
        ~finally:(fun () ->
          Fault.install None;
          Store.set_budget None;
          Store.set_dir None)
        (fun () ->
          (* fault-free reference, on its own cache dir *)
          Fault.install None;
          let reference =
            codes
              (Batch.run ~jobs:2
                 ~cache_dir:(Filename.concat dir "ref-cache")
                 files)
          in
          if List.exists (fun c -> c = None) reference then
            Alcotest.fail "reference run did not compile the corpus";
          (* one shared cache dir across all schedules: later runs exercise
             the read/corruption/eviction paths on real warm entries *)
          let cache = Filename.concat dir "cache" in
          let t0 = Unix.gettimeofday () in
          let keep i =
            match seconds with
            | Some s -> Unix.gettimeofday () -. t0 < float_of_int s
            | None -> i <= n_schedules
          in
          let ran = ref 0 in
          let injected0 = counter_of "fault.injected" in
          let i = ref 1 in
          while keep !i do
            let s = schedule_of !i in
            Fault.install (Some s.s_config);
            (match
               Batch.run ~jobs:s.s_jobs ~cache_dir:cache ?cache_size:s.s_budget
                 files
             with
            | m -> (
                Fault.install None;
                check_invariant s reference m;
                (* the store may never finish a run over its budget *)
                match s.s_budget with
                | Some b ->
                    let u = Store.usage_bytes () in
                    if u > b then
                      fail_schedule s (Some m)
                        (Printf.sprintf "store footprint %dB exceeds budget %dB"
                           u b)
                | None -> ())
            | exception e ->
                Fault.install None;
                fail_schedule s None
                  ("Batch.run raised instead of reporting: "
                 ^ Printexc.to_string e));
            incr ran;
            incr i
          done;
          (* the harness must actually have injected faults, or the suite
             proves nothing *)
          let injected = counter_of "fault.injected" - injected0 in
          Alcotest.(check bool)
            (Printf.sprintf "faults injected across %d schedules (%d)" !ran
               injected)
            true
            (injected > !ran);
          (* self-healing: collect every orphan, then a clean warm rerun *)
          Store.set_dir (Some cache);
          Store.gc ~max_tmp_age_s:0.0 ();
          Alcotest.(check (list string))
            "no orphan tmps after gc" [] (tmp_files cache);
          let final = Batch.run ~jobs:2 ~cache_dir:cache files in
          Alcotest.(check bool)
            "fault-free rerun on the survivor cache is bit-identical" true
            (codes final = reference)))

(* Acceptance scenario: a run whose workers get SIGKILLed and whose store
   publishes crash mid-write still leaves a cache from which a warm rerun
   is bit-identical with strictly fewer solves. *)
let test_sigkill_warm_rerun () =
  Pool.with_temp_dir ~prefix:"chaos" (fun dir ->
      let files = make_inputs dir in
      Fun.protect
        ~finally:(fun () ->
          Fault.install None;
          Store.set_budget None;
          Store.set_dir None)
        (fun () ->
          (* fault-free cold run: reference codes and solve count *)
          Stats.reset ();
          let ref_m =
            Batch.run ~jobs:1 ~cache_dir:(Filename.concat dir "ref-cache") files
          in
          let cold_solves = counter_of "milp.solves" in
          Alcotest.(check bool) "reference compiles" true
            (List.for_all
               (fun (e : Batch.entry) -> e.Batch.e_status = Batch.Success)
               ref_m.Batch.m_entries);
          (* chaotic cold run: kill the first worker, crash some publishes *)
          let cache = Filename.concat dir "cache" in
          Fault.install
            (Some
               {
                 Fault.seed = base_seed;
                 Fault.rate = 0.0;
                 Fault.only = [];
                 Fault.fail_at =
                   [
                     ("pool.worker.kill", [ 1 ]);
                     ("store.write.crash", [ 3; 8 ]);
                   ];
               });
          let chaotic = Batch.run ~jobs:2 ~cache_dir:cache files in
          Fault.install None;
          (* the killed worker was retried on a fresh one: same outputs *)
          Alcotest.(check bool)
            "chaotic run still bit-identical" true
            (codes chaotic = codes ref_m);
          Alcotest.(check bool)
            "a crashed worker attempt was retried" true
            (List.exists
               (fun (e : Batch.entry) -> e.Batch.e_retried)
               chaotic.Batch.m_entries);
          (* crashed publishes left orphans; gc heals the cache *)
          Store.set_dir (Some cache);
          Alcotest.(check bool)
            "crashed publishes left orphan tmps" true
            (tmp_files cache <> []);
          Store.gc ~max_tmp_age_s:0.0 ();
          Alcotest.(check (list string))
            "healed: no orphans" [] (tmp_files cache);
          (* warm rerun: bit-identical, strictly fewer solves *)
          Stats.reset ();
          let warm = Batch.run ~jobs:1 ~cache_dir:cache files in
          let warm_solves = counter_of "milp.solves" in
          Alcotest.(check bool)
            "warm rerun bit-identical" true
            (codes warm = codes ref_m);
          Alcotest.(check bool)
            (Printf.sprintf "strictly fewer solves warm (%d) than cold (%d)"
               warm_solves cold_solves)
            true
            (warm_solves < cold_solves)))

let suite =
  ( "chaos",
    [
      Alcotest.test_case "invariant over seeded fault schedules" `Slow
        test_chaos_invariant;
      Fixtures.stats_case "sigkill mid-write, then warm rerun" `Quick
        test_sigkill_warm_rerun;
    ] )
