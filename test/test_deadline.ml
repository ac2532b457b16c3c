(* One clock, one deadline: [Deadline]'s nesting and restore rules, the
   wall clock under it and under [Stats.time], the solver stopping on it,
   and the degradation ladder answering under any deadline. *)

let expired what f = Alcotest.check_raises what Deadline.Expired f

(* A deadline can only tighten: an inner, later allowance does not extend
   an outer one, an inner, earlier one binds, and each scope ends with its
   [within]. *)
let test_nesting_tightens () =
  Deadline.within (Some 0.0) (fun () ->
      Deadline.within (Some 3600.0) (fun () ->
          expired "a later inner deadline does not extend the outer one"
            Deadline.check));
  Deadline.within (Some 3600.0) (fun () ->
      Deadline.within (Some 0.0) (fun () ->
          expired "an earlier inner deadline binds" Deadline.check);
      Deadline.check ());
  Deadline.within None Deadline.check;
  Deadline.check ()

let test_restored_after_exception () =
  (match Deadline.within (Some 0.0) (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "the exception was swallowed");
  Deadline.check ();
  (match Deadline.within (Some 0.0) Deadline.check with
  | exception Deadline.Expired -> ()
  | () -> Alcotest.fail "a zero deadline did not trip");
  Deadline.check ()

(* [>=]: a zero allowance has expired the moment it is armed. *)
let test_zero_allowance_trips () =
  expired "zero allowance" (fun () -> Deadline.within (Some 0.0) Deadline.check);
  Deadline.within (Some 3600.0) Deadline.check

(* The deadline runs on wall time.  Budgets once ran on [Sys.time] — CPU
   time — which stands still while the process sleeps, so a blocked but
   idle compile could never trip its limit.  Sleeping is exactly the
   discriminating workload: wall time advances, CPU time does not. *)
let test_clock_is_wall_time () =
  let c0 = Sys.time () in
  Deadline.within (Some 0.03) (fun () ->
      Unix.sleepf 0.05;
      expired "the deadline passed during a sleep" Deadline.check);
  Alcotest.(check bool) "the sleep consumed (almost) no CPU time" true
    (Sys.time () -. c0 < 0.04)

(* Every branch-and-bound node checks the deadline, and the solver reports
   it as [Expired], not as a budget overrun its callers would absorb. *)
let test_milp_stops_on_deadline () =
  let easy =
    Polyhedra.of_constrs 1 [ Polyhedra.ge_ints [ 1; -3 ]; Polyhedra.ge_ints [ -1; 9 ] ]
  in
  List.iter
    (fun warm ->
      expired
        (Printf.sprintf "lexmin under a zero deadline (warm=%b)" warm)
        (fun () ->
          ignore (Deadline.within (Some 0.0) (fun () -> Milp.lexmin ~warm easy))))
    [ true; false ];
  Alcotest.(check bool) "the same solve without a deadline" true
    (Milp.lexmin easy <> None)

let test_stats_time_is_wall_clock () =
  Stats.time "test.sleep" (fun () -> Unix.sleepf 0.05);
  match List.find_opt (fun (k, _, _) -> k = "test.sleep") (Stats.timers ()) with
  | Some (_, seconds, calls) ->
      Alcotest.(check int) "one call" 1 calls;
      Alcotest.(check bool)
        (Printf.sprintf "a 50ms sleep records >= 40ms (got %.3fs)" seconds)
        true (seconds >= 0.04)
  | None -> Alcotest.fail "timer not recorded"

(* For any deadline, every kernel compiles to validated code or fails with
   structured diagnostics, never raises, and answers within the deadline
   plus the grace the callers give it.  A rung that hit the deadline shows
   up as a [deadline] warning, and then only the lower rungs answered. *)
let test_any_deadline_answers () =
  List.iter
    (fun (k : Kernels.t) ->
      List.iter
        (fun deadline_s ->
          let what = Printf.sprintf "%s under %gs" k.Kernels.name deadline_s in
          let t0 = Unix.gettimeofday () in
          let res =
            match
              Driver.compile_source_robust ~verify:true ~deadline_s ~name:k.Kernels.name
                k.Kernels.source
            with
            | r -> r
            | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: answered in %.2fs" what elapsed)
            true
            (elapsed < deadline_s +. Deadline.grace_s);
          match res with
          | Error ds ->
              Alcotest.(check bool) (what ^ ": structured failure") true
                (Diag.has_errors ds)
          | Ok (r, ds) ->
              Alcotest.(check bool) (what ^ ": validator-clean") true
                (Verify.ok (Driver.verify r));
              if Diag.has_code ds "deadline" then
                Alcotest.(check bool)
                  (what ^ ": a deadline warning only on a lower rung")
                  true
                  (List.mem (Batch.rung_of ds) [ "feautrier"; "identity" ]))
        [ 0.0; 0.001; 0.01; 0.1 ])
    Kernels.all

let suite =
  ( "deadline",
    [
      Alcotest.test_case "nesting only tightens" `Quick test_nesting_tightens;
      Alcotest.test_case "restored after an exception" `Quick
        test_restored_after_exception;
      Alcotest.test_case "zero allowance trips" `Quick test_zero_allowance_trips;
      Alcotest.test_case "clock advances across a sleep" `Quick test_clock_is_wall_time;
      Alcotest.test_case "milp stops on the deadline" `Quick test_milp_stops_on_deadline;
      Fixtures.stats_case "Stats.time is wall clock" `Quick test_stats_time_is_wall_clock;
      Alcotest.test_case "any deadline answers in time" `Slow test_any_deadline_answers;
    ] )
