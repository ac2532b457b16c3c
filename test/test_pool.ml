(* The shared fork worker pool: crash isolation, retry, timeout, stats
   merging, and determinism of results across jobs counts. *)

let counter_of name = match List.assoc_opt name (Stats.counters ()) with
  | Some v -> v
  | None -> 0

let values outcomes =
  List.map
    (fun (o : _ Pool.outcome) ->
      match o.Pool.value with Ok v -> Ok v | Error d -> Error d.Diag.code)
    outcomes

(* Forked and sequential runs agree, in input order. *)
let test_map_matches_sequential () =
  let tasks = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let f x = x * x in
  let seq = Pool.map ~jobs:1 ~f tasks in
  let par = Pool.map ~jobs:3 ~f tasks in
  Alcotest.(check (list int))
    "sequential values"
    (List.map (fun x -> x * x) tasks)
    (List.map (fun (o : _ Pool.outcome) -> Result.get_ok o.Pool.value) seq);
  Alcotest.(check bool) "forked = sequential" true (values seq = values par)

(* A deterministically raising task is a structured per-task error — the
   other tasks and the parent are unaffected, and it is not retried. *)
let test_worker_exception () =
  let f x = if x = 2 then failwith "boom" else x + 10 in
  List.iter
    (fun jobs ->
      let out = Pool.map ~jobs ~f [ 1; 2; 3 ] in
      match values out with
      | [ Ok 11; Error "worker-exception"; Ok 13 ] ->
          Alcotest.(check bool)
            "exception not retried" false
            (List.exists (fun (o : _ Pool.outcome) -> o.Pool.retried) out)
      | _ -> Alcotest.failf "unexpected outcomes (jobs=%d)" jobs)
    [ 1; 2 ]

(* A worker that dies without writing a payload is retried once on a fresh
   worker; a marker file makes the second attempt succeed. *)
let test_crash_retry () =
  Pool.with_temp_dir ~prefix:"pool_test" (fun dir ->
      let marker = Filename.concat dir "attempted" in
      let f x =
        if x = 0 && not (Sys.file_exists marker) then begin
          close_out (open_out marker);
          Unix._exit 3 (* die before the payload is written *)
        end;
        x + 1
      in
      let retries_before = counter_of "pool.retries" in
      let out = Pool.map ~jobs:2 ~f [ 0; 5 ] in
      Alcotest.(check bool)
        "both tasks succeed" true
        (values out = [ Ok 1; Ok 6 ]);
      Alcotest.(check bool)
        "crashed task marked retried" true
        ((List.hd out).Pool.retried);
      Alcotest.(check bool)
        "retry counted" true
        (counter_of "pool.retries" > retries_before))

(* A worker that always dies exhausts its retries, each after a backoff
   wait, and yields the structured crash diagnostic — never a parent
   exception. *)
let test_crash_exhausted () =
  let f x = if x = 0 then Unix._exit 7 else x in
  let waits_before = counter_of "pool.backoff_waits" in
  let out = Pool.map ~jobs:2 ~retries:2 ~f [ 0; 1 ] in
  Alcotest.(check bool)
    "crash surfaces as diagnostic" true
    (values out = [ Error "worker-crashed"; Ok 1 ]);
  Alcotest.(check int)
    "both retries waited out a backoff" (waits_before + 2)
    (counter_of "pool.backoff_waits")

(* The per-task budget turns a hung task into a pool-timeout diagnostic: the
   parent kills the worker.  At jobs 1 the task still forks, since only a
   worker can be killed. *)
let test_timeout () =
  let f x = if x = 0 then (Unix.sleepf 10.0; x) else x in
  List.iter
    (fun jobs ->
      let t0 = Unix.gettimeofday () in
      let out = Pool.map ~jobs ~task_timeout_s:0.5 ~f [ 0; 3 ] in
      Alcotest.(check bool)
        (Printf.sprintf "timeout structured (jobs=%d)" jobs)
        true
        (values out = [ Error "pool-timeout"; Ok 3 ]);
      Alcotest.(check bool)
        (Printf.sprintf "killed near the budget (jobs=%d)" jobs)
        true
        (Unix.gettimeofday () -. t0 < 5.0))
    [ 1; 2 ]

(* Worker counters ship back with the payload and merge into the parent, so
   totals are identical however the work was scheduled. *)
let test_stats_merge () =
  let key = "test.pool_counter" in
  let f x =
    Stats.add key x;
    x
  in
  let before = counter_of key in
  ignore (Pool.map ~jobs:2 ~f [ 1; 2; 3; 4 ]);
  let after_forked = counter_of key in
  Alcotest.(check int) "forked counters merged" (before + 10) after_forked;
  ignore (Pool.map ~jobs:1 ~f [ 1; 2; 3; 4 ]);
  Alcotest.(check int)
    "sequential accounting matches" (after_forked + 10) (counter_of key)

(* mkdtemp discipline: directories are created atomically, are distinct, and
   are removed by with_temp_dir. *)
let test_temp_dirs () =
  let d1 = Pool.fresh_temp_dir ~prefix:"pool_test" () in
  let d2 = Pool.fresh_temp_dir ~prefix:"pool_test" () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s %s" (Filename.quote d1) (Filename.quote d2))))
    (fun () ->
      Alcotest.(check bool) "distinct" true (d1 <> d2);
      Alcotest.(check bool) "both exist" true
        (Sys.is_directory d1 && Sys.is_directory d2));
  let remembered = ref "" in
  Pool.with_temp_dir ~prefix:"pool_test" (fun dir ->
      remembered := dir;
      Alcotest.(check bool) "exists inside" true (Sys.is_directory dir));
  Alcotest.(check bool) "removed after" false (Sys.file_exists !remembered)

(* Fault-injected worker SIGKILL and truncated result payloads are both
   "worker died without a payload": retried on a fresh worker (whose fault
   draw advances past the schedule) and bit-identical to the clean run. *)
let test_injected_kill_and_truncation () =
  List.iter
    (fun site ->
      Fun.protect
        ~finally:(fun () -> Fault.install None)
        (fun () ->
          Fault.install
            (Some { Fault.none with Fault.fail_at = [ (site, [ 1 ]) ] });
          let out = Pool.map ~jobs:2 ~f:(fun x -> x * 2) [ 3; 4 ] in
          Alcotest.(check bool)
            (site ^ ": results intact") true
            (values out = [ Ok 6; Ok 8 ]);
          Alcotest.(check bool)
            (site ^ ": first task retried") true
            ((List.hd out).Pool.retried)))
    [ "pool.worker.kill"; "pool.payload.truncate" ]

(* An EINTR storm on the parent's pipe reads never turns into a lost result:
   every interrupted read is retried and counted. *)
let test_eintr_storm () =
  Fun.protect
    ~finally:(fun () -> Fault.install None)
    (fun () ->
      Fault.install
        (Some
           {
             Fault.none with
             Fault.seed = 7;
             Fault.rate = 0.9;
             Fault.only = [ "pool.read" ];
           });
      let before = counter_of "pool.eintr_retries" in
      let out = Pool.map ~jobs:2 ~f:(fun x -> x + 100) [ 1; 2; 3; 4 ] in
      Alcotest.(check bool)
        "all results survive the storm" true
        (values out = [ Ok 101; Ok 102; Ok 103; Ok 104 ]);
      Alcotest.(check bool)
        "interrupted reads counted" true
        (counter_of "pool.eintr_retries" > before))

let suite =
  ( "pool",
    [
      Alcotest.test_case "forked = sequential" `Quick test_map_matches_sequential;
      Alcotest.test_case "task exception is structured" `Quick
        test_worker_exception;
      Alcotest.test_case "crashed worker retried" `Quick test_crash_retry;
      Alcotest.test_case "crash after retries is structured" `Quick
        test_crash_exhausted;
      Alcotest.test_case "task timeout is structured" `Quick test_timeout;
      Alcotest.test_case "worker stats merge into parent" `Quick
        test_stats_merge;
      Alcotest.test_case "temp dirs are atomic and cleaned" `Quick
        test_temp_dirs;
      Alcotest.test_case "injected kill and truncation retried" `Quick
        test_injected_kill_and_truncation;
      Alcotest.test_case "eintr storm loses nothing" `Quick test_eintr_storm;
    ] )
