(* End-to-end tests of the plutod daemon (lib/server): protocol round
   trips, compile parity with the in-process driver, request dedup under
   genuinely concurrent clients, warm restart from the persistent store
   after a SIGKILL, per-request deadlines, and graceful drain on SIGTERM.

   Every daemon runs as a forked child of the test process so a test
   failure can never leak a listener: [with_daemon] SIGKILLs anything the
   test body did not already reap. *)

let options = Driver.default_options
let jacobi_src = Kernels.jacobi_1d.Kernels.source
let matmul_src = Kernels.matmul.Kernels.source

let status_str = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signaled %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* ------------------------------ daemon harness ---------------------------- *)

let start_daemon ?(jobs = 2) ?default_deadline_s ?cache_dir ?fault
    ?(tweak = fun c -> c) ~socket () =
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       Stats.reset ();
       Fault.install fault;
       Store.set_dir cache_dir;
       Server.run
         (tweak
            {
              (Server.default_config ~socket_path:socket) with
              Server.jobs;
              default_deadline_s;
            })
     with
    | Failure _ -> Unix._exit 3
    | _ -> Unix._exit 4);
    Unix._exit 0
  end
  else begin
    (* readiness: poll until the socket accepts a connection *)
    let deadline = Unix.gettimeofday () +. 15.0 in
    let rec wait () =
      match Client.connect socket with
      | Some fd -> Client.close fd
      | None ->
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, st ->
              Alcotest.failf "daemon died during startup (%s)" (status_str st));
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "daemon did not become ready within 15s"
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
    in
    wait ();
    pid
  end

(* Reap a child the test body may or may not have waited for already. *)
let reap_or_kill pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let with_daemon ?jobs ?default_deadline_s ?cache_dir ?fault ?tweak ~socket f =
  let pid =
    start_daemon ?jobs ?default_deadline_s ?cache_dir ?fault ?tweak ~socket ()
  in
  Fun.protect ~finally:(fun () -> reap_or_kill pid) (fun () -> f pid)

let wait_exit pid =
  match Unix.waitpid [] pid with _, st -> st

let compile_ok ~socket ?deadline_s ~name source =
  match Client.compile ~socket ?deadline_s ~options ~name ~source () with
  | `No_daemon -> Alcotest.fail "daemon vanished mid-test"
  | `Daemon (Error msg) -> Alcotest.failf "daemon protocol error: %s" msg
  | `Daemon (Ok r) -> r

(* what a standalone in-process compile of [source] produces *)
let local_code source =
  match
    Driver.compile_source_robust ~options ~strict:false ~verify:false
      ~name:"local" source
  with
  | Error ds ->
      Alcotest.failf "local reference compile failed: %s"
        (Format.asprintf "%a" (fun fmt ds -> Diag.pp_all fmt ds) ds)
  | Ok (r, _) ->
      Format.asprintf "%a" (fun fmt c -> Codegen.print_c fmt c) r.Driver.code

let counter_in_line line name =
  match Manifest.Json.parse line with
  | Error msg -> Alcotest.failf "unparseable stats response: %s" msg
  | Ok j -> (
      match Option.bind (Manifest.Json.mem "stats" j)
              (Manifest.Json.mem "counters")
      with
      | Some c -> int_of_float (Manifest.Json.num_mem name c ~default:0.0)
      | None -> 0)

let daemon_counter ~socket name =
  match Client.stats ~socket with
  | Error msg -> Alcotest.failf "stats request failed: %s" msg
  | Ok line -> counter_in_line line name

(* top-level numeric field of the stats response (outside the counters) *)
let daemon_stat_field ~socket name =
  match Client.stats ~socket with
  | Error msg -> Alcotest.failf "stats request failed: %s" msg
  | Ok line -> (
      match Manifest.Json.parse line with
      | Error msg -> Alcotest.failf "unparseable stats response: %s" msg
      | Ok j -> int_of_float (Manifest.Json.num_mem name j ~default:(-1.0)))

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring fd s !off (n - !off) with
    | w -> off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Read exactly [n] newline-terminated response lines from a blocking fd. *)
let read_lines fd n =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let complete s = List.length (String.split_on_char '\n' s) - 1 in
  let rec go () =
    let s = Buffer.contents buf in
    if complete s >= n then
      List.filteri (fun i _ -> i < n) (String.split_on_char '\n' s)
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | 0 -> Alcotest.failf "EOF after %d of %d responses" (complete s) n
      | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ()
  in
  go ()

let parse_ok what line =
  match Client.parse_response line with
  | Error msg -> Alcotest.failf "%s: undecodable response: %s" what msg
  | Ok r -> r

(* ------------------------------- pure tests -------------------------------- *)

(* Each is rejected by the decoder, and answered with bad-request by the
   daemon. *)
let malformed_options =
  [
    "{\"tile_size\": 0}";
    "{\"tile_sizes\": [0]}";
    "{\"tile_size\": \"x\"}";
    "{\"tile_size\": 2.7}";
    "{\"wavefront\": 1e30}";
    "{\"tile-size\": 8}";
    "{\"unroll_jam\": 0}";
    "{\"wavefront\": -1}";
    "{\"min_band_tile\": 0}";
    "{\"tile_sizes\": [8, \"x\"]}";
    "{\"tile\": 1}";
    "[]";
  ]

(* Golden values: the canonical encoding and the request digest key the
   persistent server-result and tuner entries, so any change to either
   turns every stored entry into a miss. *)
let default_options_json =
  "{\"tile\": true, \"tile_size\": null, \"tile_sizes\": null, \
   \"parallelize\": true, \"wavefront\": 1, \"intra_reorder\": true, \
   \"unroll_jam\": 1, \"min_band_tile\": 2, \"input_deps\": true, \
   \"fast_schedule\": true, \"break_fastpath\": false, \"reductions\": false}"

let decode_options text =
  match Manifest.Json.parse text with
  | Error msg -> Alcotest.failf "not parseable: %s (%s)" text msg
  | Ok j -> Manifest.options_of_json j

let test_options_wire () =
  let d = Driver.default_options in
  let enc = Manifest.options_to_json d in
  Alcotest.(check string) "canonical default encoding" default_options_json enc;
  (match decode_options enc with
  | Error msg -> Alcotest.failf "default options rejected: %s" msg
  | Ok o ->
      Alcotest.(check string)
        "default options survive a wire round trip" enc
        (Manifest.options_to_json o));
  (* overrides: only the fields present change, everything else stays *)
  (match
     decode_options "{\"tile\": false, \"unroll_jam\": 7, \"fast_schedule\": true}"
   with
  | Error msg -> Alcotest.failf "override object rejected: %s" msg
  | Ok o ->
      Alcotest.(check string)
        "exactly the fields present are overridden"
        (Manifest.options_to_json { d with Driver.tile = false; unroll_jam = 7 })
        (Manifest.options_to_json o));
  Alcotest.(check bool) "a request without options decodes {}" true
    (decode_options "{}" = Ok d);
  (* out of range, wrongly typed, unknown: rejected, never ignored *)
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejected: " ^ text) true
        (Result.is_error (decode_options text)))
    malformed_options

let test_request_digest () =
  let dg ?(options = options) ?(strict = false) ?(verify = false) source =
    Server.request_digest ~options ~strict ~verify ~source
  in
  Alcotest.(check string)
    "digest is deterministic" (dg jacobi_src) (dg jacobi_src);
  Alcotest.(check bool)
    "source changes the digest" true
    (dg jacobi_src <> dg matmul_src);
  Alcotest.(check bool)
    "strict changes the digest" true
    (dg jacobi_src <> dg ~strict:true jacobi_src);
  let o' = { options with Driver.unroll_jam = 9 } in
  Alcotest.(check bool)
    "options change the digest" true
    (dg jacobi_src <> dg ~options:o' jacobi_src);
  Alcotest.(check string) "golden default digest"
    "f2bed00a0707e2283b545f27a7235b07" (dg "x")

let test_entry_roundtrip () =
  let entry =
    {
      Manifest.e_file = "k.c";
      e_status = Manifest.Degraded;
      e_rung = "tiled";
      e_diags =
        [
          Diag.errorf ~code:"boom" "it %s" "broke";
          Diag.warningf ~code:"softly" "eased off";
        ];
      e_code = Some "for (i = 0; i < n; i++) {}\n";
      e_output = None;
      e_elapsed_s = 0.25;
      e_retried = true;
    }
  in
  let line = Manifest.entry_to_json ~include_code:true entry in
  match Manifest.Json.parse line with
  | Error msg -> Alcotest.failf "entry JSON not parseable: %s" msg
  | Ok j -> (
      match Manifest.entry_of_json j with
      | Error msg -> Alcotest.failf "entry did not decode: %s" msg
      | Ok e ->
          Alcotest.(check string) "file" entry.Manifest.e_file e.Manifest.e_file;
          Alcotest.(check bool) "status" true
            (e.Manifest.e_status = Manifest.Degraded);
          Alcotest.(check string) "rung" "tiled" e.Manifest.e_rung;
          Alcotest.(check (option string))
            "code" entry.Manifest.e_code e.Manifest.e_code;
          Alcotest.(check bool) "retried" true e.Manifest.e_retried;
          Alcotest.(check int) "diag count" 2 (List.length e.Manifest.e_diags);
          Alcotest.(check bool) "diag codes survive" true
            (Diag.has_code e.Manifest.e_diags "boom"
            && Diag.has_code e.Manifest.e_diags "softly"))

let test_no_daemon_fallback () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "absent.sock" in
      match
        Client.compile ~socket ~options ~name:"k.c" ~source:matmul_src ()
      with
      | `No_daemon -> ()
      | `Daemon _ -> Alcotest.fail "connected to a daemon that does not exist")

(* ----------------------------- daemon lifecycle ---------------------------- *)

(* One daemon: compile parity with the in-process driver, result-cache hit
   on the identical re-request, admin ops, malformed requests answered with
   structured diagnostics, graceful shutdown removing the socket. *)
let test_compile_parity_and_admin () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~socket (fun pid ->
          Alcotest.(check bool) "ping answers" true (Client.ping ~socket);
          let reference = local_code matmul_src in
          let r1 = compile_ok ~socket ~name:"matmul.c" matmul_src in
          Alcotest.(check bool) "first compile succeeds" true
            (r1.Client.r_entry.Manifest.e_status = Manifest.Success);
          Alcotest.(check (option string))
            "daemon output bit-identical to the in-process driver"
            (Some reference) r1.Client.r_entry.Manifest.e_code;
          Alcotest.(check bool) "first answer is a fresh compile" false
            r1.Client.r_cached;
          let r2 = compile_ok ~socket ~name:"matmul.c" matmul_src in
          Alcotest.(check bool) "identical request served from cache" true
            r2.Client.r_cached;
          Alcotest.(check (option string))
            "cached answer bit-identical" (Some reference)
            r2.Client.r_entry.Manifest.e_code;
          Alcotest.(check int) "exactly one compile ran" 1
            (daemon_counter ~socket "server.compiles");
          Alcotest.(check int) "one result-cache hit" 1
            (daemon_counter ~socket "server.result_cache_hits");
          (* malformed requests get structured diagnostics, not hangups *)
          (match Client.connect socket with
          | None -> Alcotest.fail "daemon vanished"
          | Some fd ->
              Fun.protect
                ~finally:(fun () -> Client.close fd)
                (fun () ->
                  let check_bad what line =
                    match Client.roundtrip fd line with
                    | Error msg ->
                        Alcotest.failf "%s dropped the connection: %s" what msg
                    | Ok resp -> (
                        match
                          Result.bind
                            (Result.map_error
                               (fun m -> m)
                               (Manifest.Json.parse resp))
                            Manifest.entry_of_json
                        with
                        | Error msg ->
                            Alcotest.failf "%s response undecodable: %s" what
                              msg
                        | Ok e ->
                            Alcotest.(check bool)
                              (what ^ " answered with bad-request") true
                              (e.Manifest.e_status = Manifest.Failed
                              && Diag.has_code e.Manifest.e_diags
                                   "bad-request"))
                  in
                  check_bad "garbage line" "{this is not json";
                  check_bad "unknown op" "{\"op\": \"frobnicate\"}";
                  check_bad "compile without source" "{\"op\": \"compile\"}";
                  List.iter
                    (fun opts ->
                      check_bad opts
                        (Printf.sprintf
                           "{\"op\": \"compile\", \"name\": \"k.c\", \
                            \"source\": %s, \"options\": %s}"
                           (Manifest.json_string matmul_src) opts))
                    malformed_options;
                  Alcotest.(check int) "one bad request each"
                    (3 + List.length malformed_options)
                    (daemon_counter ~socket "server.bad_requests");
                  Alcotest.(check int) "no worker spawned for them" 1
                    (daemon_counter ~socket "server.compiles");
                  match
                    Client.compile_fd fd ~options ~name:"k.c" ~source:jacobi_src ()
                  with
                  | Error msg -> Alcotest.failf "valid request after them failed: %s" msg
                  | Ok r ->
                      Alcotest.(check (option string))
                        "the same connection still compiles"
                        (Some (local_code jacobi_src)) r.Client.r_entry.Manifest.e_code));
          Alcotest.(check bool) "shutdown acknowledged" true
            (Client.shutdown ~socket);
          Alcotest.(check bool) "daemon drained and exited 0" true
            (wait_exit pid = Unix.WEXITED 0);
          Alcotest.(check bool) "socket file removed" false
            (Sys.file_exists socket)))

(* ---------------------------------- dedup ---------------------------------- *)

(* N forked clients release identical requests through a pipe barrier at a
   single-job daemon: exactly one compile runs, the other N-1 coalesce onto
   it, and all N answers are bit-identical. *)
let test_dedup_coalesces () =
  let n = 4 in
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~jobs:1 ~socket (fun pid ->
          let barrier_r, barrier_w = Unix.pipe () in
          let out_file i = Filename.concat dir (Printf.sprintf "c%d.json" i) in
          let clients =
            List.init n (fun i ->
                let cpid = Unix.fork () in
                if cpid = 0 then begin
                  ((try
                      Unix.close barrier_w;
                      match Client.connect socket with
                     | None -> Unix._exit 2
                     | Some fd ->
                         (* connected; block until the barrier collapses so
                            all n requests hit the daemon together *)
                         ignore (Unix.read barrier_r (Bytes.create 1) 0 1);
                         (match
                            Client.compile_fd fd ~options
                              ~name:(Printf.sprintf "client%d.c" i)
                              ~source:jacobi_src ()
                          with
                         | Error _ -> Unix._exit 3
                         | Ok r ->
                             Fixtures.write_file (out_file i) r.Client.r_raw;
                             Unix._exit 0)
                    with _ -> Unix._exit 4)
                   : unit);
                  Unix._exit 0
                end
                else cpid)
          in
          Unix.close barrier_r;
          (* give every client a beat to connect and park on the barrier *)
          Unix.sleepf 0.2;
          Unix.close barrier_w;
          List.iter
            (fun cpid ->
              let st = wait_exit cpid in
              if st <> Unix.WEXITED 0 then
                Alcotest.failf "client did not complete cleanly (%s)"
                  (status_str st))
            clients;
          let entries =
            List.init n (fun i ->
                let ic = open_in_bin (out_file i) in
                let len = in_channel_length ic in
                let raw = really_input_string ic len in
                close_in ic;
                match
                  Result.bind (Manifest.Json.parse raw) Manifest.entry_of_json
                with
                | Error msg -> Alcotest.failf "client %d response: %s" i msg
                | Ok e -> (raw, e))
          in
          let codes =
            List.map (fun (_, e) -> e.Manifest.e_code) entries
          in
          (match codes with
          | (Some _ as first) :: rest ->
              Alcotest.(check bool)
                "all coalesced answers bit-identical" true
                (List.for_all (fun c -> c = first) rest)
          | _ -> Alcotest.fail "a coalesced client got no code");
          let coalesced =
            List.filter
              (fun (raw, _) ->
                match Manifest.Json.parse raw with
                | Ok j -> Manifest.Json.bool_mem "coalesced" j ~default:false
                | Error _ -> false)
              entries
          in
          Alcotest.(check int)
            "all but the first requester coalesced" (n - 1)
            (List.length coalesced);
          Alcotest.(check int) "exactly one compile ran" 1
            (daemon_counter ~socket "server.compiles");
          Alcotest.(check int)
            "server.dedup_coalesced counts the joiners" (n - 1)
            (daemon_counter ~socket "server.dedup_coalesced");
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true (wait_exit pid = Unix.WEXITED 0)))

(* ----------------------- chaos: SIGKILL + warm restart --------------------- *)

(* Kill a daemon outright mid-life; a replacement on the same socket path
   and cache dir must heal the stale socket file and serve the previous
   result warm from the persistent store, bit-identically. *)
let test_sigkill_warm_restart () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let cache = Filename.concat dir "cache" in
      let pid1 = start_daemon ~socket ~cache_dir:cache () in
      let code1 =
        Fun.protect
          ~finally:(fun () -> reap_or_kill pid1)
          (fun () ->
            let r = compile_ok ~socket ~name:"matmul.c" matmul_src in
            Alcotest.(check bool) "first daemon compiles" true
              (r.Client.r_entry.Manifest.e_status = Manifest.Success);
            (* no drain: the daemon dies with the socket file in place *)
            Unix.kill pid1 Sys.sigkill;
            Alcotest.(check bool) "daemon was SIGKILLed" true
              (wait_exit pid1 = Unix.WSIGNALED Sys.sigkill);
            r.Client.r_entry.Manifest.e_code)
      in
      Alcotest.(check bool) "stale socket file left behind" true
        (Sys.file_exists socket);
      (* the replacement must bind over the stale socket, not refuse *)
      with_daemon ~socket ~cache_dir:cache (fun pid2 ->
          let r = compile_ok ~socket ~name:"matmul.c" matmul_src in
          Alcotest.(check bool) "restart served from the store" true
            r.Client.r_cached;
          Alcotest.(check (option string))
            "warm answer bit-identical to the pre-crash compile" code1
            r.Client.r_entry.Manifest.e_code;
          Alcotest.(check int) "no compile ran after restart" 0
            (daemon_counter ~socket "server.compiles");
          Alcotest.(check int) "the store supplied the result" 1
            (daemon_counter ~socket "server.result_store_hits");
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true
            (wait_exit pid2 = Unix.WEXITED 0)))

(* -------------------------------- deadlines -------------------------------- *)

(* An expired deadline degrades the compile instead of killing it: a 1ms
   request is answered from the identity rung with a deadline warning, no
   worker is killed, and the timing-dependent answer is not cached — the
   same request without a deadline compiles for real. *)
let test_deadline_expiry () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~jobs:1 ~socket (fun pid ->
          let r =
            compile_ok ~socket ~deadline_s:0.001 ~name:"slow.c" jacobi_src
          in
          let e = r.Client.r_entry in
          Alcotest.(check bool) "expired request degrades" true
            (e.Manifest.e_status = Manifest.Degraded);
          Alcotest.(check string) "answered by the identity rung" "identity"
            e.Manifest.e_rung;
          Alcotest.(check bool) "with a deadline warning" true
            (Diag.has_code e.Manifest.e_diags "deadline");
          Alcotest.(check int) "no worker killed" 0
            (daemon_counter ~socket "server.deadline_expired");
          let again = compile_ok ~socket ~name:"slow.c" jacobi_src in
          Alcotest.(check bool) "the degraded answer was not cached" false
            again.Client.r_cached;
          Alcotest.(check bool) "without a deadline the search runs" true
            (again.Client.r_entry.Manifest.e_rung <> "identity"
            && again.Client.r_entry.Manifest.e_status = Manifest.Success);
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true
            (wait_exit pid = Unix.WEXITED 0)))

(* plutocc --batch --batch-timeout behaves the same standalone and through
   --connect: the daemon degrades on the forwarded deadline exactly as a
   local worker does, instead of killing the compile.  The 0.05s timeout is
   8x under fdtd-2d's exact search (about 0.4s), so the search rungs always
   hit it. *)
let test_batch_timeout_through_daemon () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let file = Filename.concat dir "fdtd-2d.c" in
      Fixtures.write_file file Kernels.fdtd_2d.Kernels.source;
      let socket = Filename.concat dir "d.sock" in
      let run tag extra =
        let manifest = Filename.concat dir (tag ^ ".json") in
        let code =
          Sys.command
            (Printf.sprintf
               "../bin/plutocc.exe --batch --no-fast-schedule --batch-timeout 0.05 %s \
                -o %s --batch-manifest %s %s 2> /dev/null"
               file (Filename.concat dir tag) manifest extra)
        in
        Alcotest.(check int) (tag ^ ": exit 2 (degraded)") 2 code;
        let json = In_channel.with_open_bin manifest In_channel.input_all in
        match
          Option.map (Manifest.Json.mem "entries")
            (Result.to_option (Manifest.Json.parse json))
        with
        | Some (Some (Manifest.Json.Arr [ j ])) -> (
            match Manifest.entry_of_json j with
            | Ok e ->
                ( Manifest.status_name e.Manifest.e_status,
                  e.Manifest.e_rung,
                  List.map (fun (d : Diag.t) -> d.Diag.code) e.Manifest.e_diags )
            | Error msg -> Alcotest.failf "%s: bad entry: %s" tag msg)
        | _ -> Alcotest.failf "%s: no one-entry manifest" tag
      in
      let standalone = run "standalone" "" in
      let status, rung, codes = standalone in
      Alcotest.(check string) "degraded" "degraded" status;
      Alcotest.(check string) "identity rung" "identity" rung;
      Alcotest.(check bool) "deadline warning" true (List.mem "deadline" codes);
      with_daemon ~socket (fun _pid ->
          let daemon = run "daemon" ("--connect " ^ socket) in
          Alcotest.(check bool) "same status, rung and codes through --connect" true
            (daemon = standalone)))

(* ----------------------------- graceful drain ------------------------------ *)

(* SIGTERM while a compile is in flight: the accepted request is still
   answered, the daemon exits 0, the socket file is gone. *)
let test_sigterm_drains () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~jobs:1 ~socket (fun pid ->
          let out = Filename.concat dir "drain.json" in
          let cpid = Unix.fork () in
          if cpid = 0 then begin
            ((try
                match Client.connect socket with
                | None -> Unix._exit 2
                | Some fd -> (
                    match
                      Client.compile_fd fd ~options ~name:"drain.c"
                        ~source:jacobi_src ()
                    with
                    | Error _ -> Unix._exit 3
                    | Ok r ->
                        Fixtures.write_file out r.Client.r_raw;
                        Unix._exit 0)
              with _ -> Unix._exit 4)
             : unit);
            Unix._exit 0
          end;
          (* let the request reach the daemon, then ask it to die *)
          Unix.sleepf 0.1;
          Unix.kill pid Sys.sigterm;
          Alcotest.(check bool) "in-flight client still got its answer" true
            (wait_exit cpid = Unix.WEXITED 0);
          Alcotest.(check bool) "daemon drained and exited 0" true
            (wait_exit pid = Unix.WEXITED 0);
          Alcotest.(check bool) "socket file removed" false
            (Sys.file_exists socket);
          match
            Result.bind
              (Manifest.Json.parse
                 (let ic = open_in_bin out in
                  let raw =
                    really_input_string ic (in_channel_length ic)
                  in
                  close_in ic;
                  raw))
              Manifest.entry_of_json
          with
          | Error msg -> Alcotest.failf "drained response undecodable: %s" msg
          | Ok e ->
              Alcotest.(check bool) "drained response is a success" true
                (e.Manifest.e_status = Manifest.Success
                && e.Manifest.e_code <> None)))

(* --------------------------- bounded resources ----------------------------- *)

(* A newline-free blob over --max-request-bytes can never complete as a
   request line: the daemon must answer one structured bad-request, hang
   up, and keep serving everyone else. *)
let test_oversize_request () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~socket
        ~tweak:(fun c -> { c with Server.max_request_bytes = 4096 })
        (fun pid ->
          (match Client.connect socket with
          | None -> Alcotest.fail "daemon not listening"
          | Some fd ->
              Fun.protect
                ~finally:(fun () -> Client.close fd)
                (fun () ->
                  (try write_all fd (String.make 16384 'x')
                   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                   ->
                     ());
                  (match read_lines fd 1 with
                  | [ line ] ->
                      let r = parse_ok "oversize" line in
                      Alcotest.(check bool)
                        "oversize line answered with bad-request" true
                        (r.Client.r_entry.Manifest.e_status = Manifest.Failed
                        && Diag.has_code r.Client.r_entry.Manifest.e_diags
                             "bad-request")
                  | _ -> Alcotest.fail "expected exactly one response line");
                  (* ...and then the daemon hangs up *)
                  let chunk = Bytes.create 16 in
                  let rec eof () =
                    match Unix.read fd chunk 0 16 with
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> eof ()
                    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
                    | k -> k
                  in
                  Alcotest.(check int) "connection closed after bad-request" 0
                    (eof ())));
          Alcotest.(check int) "counted as server.bad_requests" 1
            (daemon_counter ~socket "server.bad_requests");
          let r = compile_ok ~socket ~name:"after.c" matmul_src in
          Alcotest.(check bool) "daemon still compiles afterwards" true
            (r.Client.r_entry.Manifest.e_status = Manifest.Success);
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true (wait_exit pid = Unix.WEXITED 0)))

(* Pipelining past --max-pipeline: the window-sized prefix is served, the
   overflow gets structured server-busy responses on the same connection,
   in order. *)
let test_pipeline_cap_busy () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~jobs:1 ~socket
        ~tweak:(fun c -> { c with Server.max_pipeline = 2 })
        (fun pid ->
          let reference = local_code jacobi_src in
          (match Client.connect socket with
          | None -> Alcotest.fail "daemon not listening"
          | Some fd ->
              Fun.protect
                ~finally:(fun () -> Client.close fd)
                (fun () ->
                  let req =
                    Client.compile_request ~options ~name:"k.c"
                      ~source:jacobi_src ()
                    ^ "\n"
                  in
                  write_all fd (String.concat "" [ req; req; req; req; req ]);
                  let resps =
                    List.map (parse_ok "pipelined") (read_lines fd 5)
                  in
                  let busy, served = List.partition Client.is_busy resps in
                  Alcotest.(check int)
                    "requests over the pipeline window rejected" 3
                    (List.length busy);
                  Alcotest.(check int) "window-sized prefix served" 2
                    (List.length served);
                  List.iter
                    (fun r ->
                      Alcotest.(check (option string))
                        "served answers bit-identical to the local compile"
                        (Some reference) r.Client.r_entry.Manifest.e_code)
                    served));
          Alcotest.(check int) "busy rejections counted" 3
            (daemon_counter ~socket "server.busy_rejections");
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true (wait_exit pid = Unix.WEXITED 0)))

(* Distinct sources past --max-queue on a one-worker daemon: the queue
   admits one new job, the rest get server-busy (cache hits and coalesced
   joins stay exempt — only NEW work is capped). *)
let test_queue_cap_busy () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~jobs:1 ~socket
        ~tweak:(fun c -> { c with Server.max_queue = 1 })
        (fun pid ->
          (match Client.connect socket with
          | None -> Alcotest.fail "daemon not listening"
          | Some fd ->
              Fun.protect
                ~finally:(fun () -> Client.close fd)
                (fun () ->
                  (* whitespace suffixes: distinct digests, same program *)
                  let req i =
                    Client.compile_request ~options
                      ~name:(Printf.sprintf "q%d.c" i)
                      ~source:(jacobi_src ^ String.make i ' ')
                      ()
                    ^ "\n"
                  in
                  write_all fd (req 0 ^ req 1 ^ req 2);
                  let resps =
                    List.map (parse_ok "queued") (read_lines fd 3)
                  in
                  let busy, served = List.partition Client.is_busy resps in
                  Alcotest.(check int) "overflow beyond the queue rejected" 2
                    (List.length busy);
                  Alcotest.(check int) "one new job admitted" 1
                    (List.length served);
                  List.iter
                    (fun r ->
                      Alcotest.(check bool) "admitted job compiled" true
                        (r.Client.r_entry.Manifest.e_status = Manifest.Success))
                    served));
          Alcotest.(check int) "busy rejections counted" 2
            (daemon_counter ~socket "server.busy_rejections");
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true (wait_exit pid = Unix.WEXITED 0)))

(* --solver-cache-entries: distinct kernels overflow a tiny budget, the
   daemon evicts (server.cache_evicted), the tables stay bounded, and the
   answers remain bit-identical to local compiles throughout. *)
let test_solver_cache_eviction () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~jobs:1 ~socket
        ~tweak:(fun c -> { c with Server.solver_cache_entries = Some 16 })
        (fun pid ->
          List.iter
            (fun (name, src) ->
              let r = compile_ok ~socket ~name src in
              Alcotest.(check bool)
                (name ^ " compiles under a tiny solver budget") true
                (r.Client.r_entry.Manifest.e_status = Manifest.Success);
              Alcotest.(check (option string))
                (name ^ " bit-identical to the local compile")
                (Some (local_code src))
                r.Client.r_entry.Manifest.e_code)
            [
              ("matmul.c", matmul_src);
              ("jacobi.c", jacobi_src);
              ("mvt.c", Kernels.mvt.Kernels.source);
            ];
          Alcotest.(check bool) "evictions happened and were counted" true
            (daemon_counter ~socket "server.cache_evicted" > 0);
          (* 16 per table: LP + integer feasibility + emptiness *)
          let entries = daemon_stat_field ~socket "solver_cache_entries" in
          Alcotest.(check bool)
            (Printf.sprintf "solver caches bounded (%d entries)" entries)
            true
            (entries >= 0 && entries <= 48);
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true (wait_exit pid = Unix.WEXITED 0)))

(* --result-cache 16: sixty never-repeated whitespace variants interleaved
   with one hot kernel.  The table never holds more than 16 results, and
   the hot kernel — touched every other request — is never the one
   evicted: every hot request is a result-cache hit. *)
let test_result_cache_bound () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~socket
        ~tweak:(fun c -> { c with Server.result_cache_entries = 16 })
        (fun pid ->
          ignore (compile_ok ~socket ~name:"hot.c" matmul_src);
          let hot = 60 in
          for i = 1 to hot do
            ignore
              (compile_ok ~socket ~name:"v.c"
                 (matmul_src ^ String.make i ' '));
            let r = compile_ok ~socket ~name:"hot.c" matmul_src in
            Alcotest.(check bool)
              (Printf.sprintf "hot request %d served from the cache" i)
              true r.Client.r_cached;
            let entries = daemon_stat_field ~socket "result_cache_entries" in
            Alcotest.(check bool)
              (Printf.sprintf "result cache bounded (%d entries)" entries)
              true
              (entries >= 1 && entries <= 16)
          done;
          Alcotest.(check int) "one result-cache hit per hot request" hot
            (daemon_counter ~socket "server.result_cache_hits");
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true (wait_exit pid = Unix.WEXITED 0)))

(* A client that pipelines hundreds of cache-hit requests without reading:
   once its unread responses exceed --max-output-bytes the daemon must stop
   READING from it (server.slow_reader_stalls) instead of buffering without
   bound — and still answer every request once the client finally drains. *)
let test_slow_reader_backpressure () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      with_daemon ~socket
        ~tweak:(fun c ->
          { c with Server.max_output_bytes = 1024; max_pipeline = 10_000 })
        (fun pid ->
          let reference = local_code matmul_src in
          let r0 = compile_ok ~socket ~name:"m.c" matmul_src in
          Alcotest.(check bool) "priming compile succeeds" true
            (r0.Client.r_entry.Manifest.e_status = Manifest.Success);
          let n = 300 in
          (match Client.connect socket with
          | None -> Alcotest.fail "daemon not listening"
          | Some fd ->
              Fun.protect
                ~finally:(fun () -> Client.close fd)
                (fun () ->
                  Unix.set_nonblock fd;
                  let req =
                    Client.compile_request ~options ~name:"m.c"
                      ~source:matmul_src ()
                    ^ "\n"
                  in
                  let all = String.concat "" (List.init n (fun _ -> req)) in
                  let total = String.length all in
                  let sent = ref 0 in
                  let push () =
                    try
                      while !sent < total do
                        sent :=
                          !sent
                          + Unix.write_substring fd all !sent (total - !sent)
                      done
                    with
                    | Unix.Unix_error
                        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                    ->
                      ()
                  in
                  (* phase 1: write without reading a single byte *)
                  push ();
                  let deadline = Unix.gettimeofday () +. 15.0 in
                  while
                    daemon_counter ~socket "server.slow_reader_stalls" < 1
                    && Unix.gettimeofday () < deadline
                  do
                    push ();
                    Unix.sleepf 0.05
                  done;
                  Alcotest.(check bool) "daemon stalled the slow reader" true
                    (daemon_counter ~socket "server.slow_reader_stalls" >= 1);
                  (* phase 2: drain — every request still gets its answer *)
                  let buf = Buffer.create (1 lsl 20) in
                  let chunk = Bytes.create 65536 in
                  let complete () =
                    List.length
                      (String.split_on_char '\n' (Buffer.contents buf))
                    - 1
                  in
                  let deadline = Unix.gettimeofday () +. 60.0 in
                  while complete () < n && Unix.gettimeofday () < deadline do
                    push ();
                    match Unix.read fd chunk 0 (Bytes.length chunk) with
                    | exception
                        Unix.Unix_error
                          ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                            _,
                            _ )
                    ->
                        Unix.sleepf 0.002
                    | 0 -> Alcotest.fail "daemon closed a stalled connection"
                    | k -> Buffer.add_subbytes buf chunk 0 k
                  done;
                  let got =
                    List.filter
                      (fun l -> String.trim l <> "")
                      (String.split_on_char '\n' (Buffer.contents buf))
                  in
                  Alcotest.(check int) "every pipelined request answered" n
                    (List.length got);
                  List.iter
                    (fun l ->
                      let r = parse_ok "drained" l in
                      Alcotest.(check bool)
                        "drained response valid and bit-identical" true
                        (r.Client.r_entry.Manifest.e_code = Some reference))
                    got));
          Alcotest.(check bool) "shutdown" true (Client.shutdown ~socket);
          Alcotest.(check bool) "exit 0" true (wait_exit pid = Unix.WEXITED 0)))

(* Seeded fault injection on the daemon's own syscall sites (accept, read,
   write): every round trip either completes with a bit-identical answer or
   fails as a dropped connection — and the daemon survives it all with
   server.crashes = 0. *)
let test_chaos_fault_sites () =
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let fault =
        Some
          {
            Fault.seed = 20080613;
            rate = 0.05;
            only = [ "server." ];
            (* pin one injection per site so coverage never depends on the
               dice *)
            fail_at =
              [
                ("server.accept", [ 2 ]);
                ("server.read", [ 3 ]);
                ("server.write", [ 4 ]);
              ];
          }
      in
      with_daemon ~socket ?fault (fun pid ->
          let reference = local_code jacobi_src in
          let served = ref 0 in
          for i = 1 to 40 do
            match
              Client.compile ~socket ~options
                ~name:(Printf.sprintf "c%d.c" i)
                ~source:jacobi_src ()
            with
            | `No_daemon -> ()
            | `Daemon (Error _) -> ()
            | `Daemon (Ok r) ->
                if not (Client.is_busy r) then begin
                  incr served;
                  Alcotest.(check (option string))
                    "chaos-served answer bit-identical" (Some reference)
                    r.Client.r_entry.Manifest.e_code
                end
          done;
          Alcotest.(check bool) "round trips survived injection" true
            (!served > 0);
          (* stats itself can be hit by injection: retry the round trip *)
          let rec stats_line k =
            match Client.stats ~socket with
            | Ok line -> line
            | Error _ when k > 0 ->
                Unix.sleepf 0.05;
                stats_line (k - 1)
            | Error msg ->
                Alcotest.failf "stats never answered under chaos: %s" msg
          in
          let line = stats_line 20 in
          List.iter
            (fun site ->
              Alcotest.(check bool) (site ^ " actually injected") true
                (counter_in_line line ("fault." ^ site) >= 1))
            [ "server.accept"; "server.read"; "server.write" ];
          Alcotest.(check int) "no event-loop crashes under chaos" 0
            (counter_in_line line "server.crashes");
          let rec shutdown_retry k =
            Client.shutdown ~socket
            || k > 0
               && begin
                    Unix.sleepf 0.05;
                    shutdown_retry (k - 1)
                  end
          in
          ignore (shutdown_retry 20 : bool);
          Alcotest.(check bool) "daemon drained and exited 0" true
            (wait_exit pid = Unix.WEXITED 0)))

(* ------------------------------ option table ------------------------------- *)

let plutocc = "../bin/plutocc.exe"

(* The plutocc arguments that set [f] to [v], if its table row spells it. *)
let cli_args (type a) (f : a Driver.field) (v : a) =
  let arg flag = "--" ^ Driver.cli_flag f flag in
  match (f.Driver.kind, f.Driver.cli) with
  | Driver.Bool, Some (Driver.Switches l) ->
      List.find_map (fun (flag, b, _) -> if b = v then Some (arg flag) else None) l
  | Driver.Int, Some (Driver.Value { flag; _ }) ->
      Some (Printf.sprintf "%s %d" (arg flag) v)
  | Driver.Int_opt, Some (Driver.Value { flag; _ }) ->
      Option.map (Printf.sprintf "%s %d" (arg flag)) v
  | _ -> None

(* One pass over the option table: for every field set to a non-default
   value, the wire encoding round-trips, the request digest moves, and —
   when plutocc spells the field — the flag prints exactly the code the
   library compiles, both standalone and through the daemon.  mvt is the
   kernel because most flags change its code, so the comparisons bite. *)
let test_option_table_end_to_end () =
  let src = Kernels.mvt.Kernels.source in
  let compiled options =
    (Batch.compile_one ~options ~strict:false ~verify:false ("k.c", src))
      .Batch.t_code
  in
  let digest options =
    Server.request_digest ~options ~strict:false ~verify:false ~source:src
  in
  let default_code = compiled Driver.default_options in
  Pool.with_temp_dir ~prefix:"server" (fun dir ->
      let file = Filename.concat dir "k.c" in
      Out_channel.with_open_bin file (fun oc -> output_string oc src);
      let socket = Filename.concat dir "d.sock" in
      let plutocc_code args =
        let out = Filename.concat dir "out.c" in
        Alcotest.(check int) ("plutocc " ^ args ^ " exits 0") 0
          (Sys.command
             (Printf.sprintf "%s %s %s > %s 2> /dev/null" plutocc file args out));
        Some (In_channel.with_open_bin out In_channel.input_all)
      in
      with_daemon ~socket (fun _pid ->
          let spelled = ref 0 and changed = ref 0 in
          List.iter
            (fun (Driver.Field f) ->
              let key = f.Driver.key in
              let v = Fixtures.non_default f in
              let o = f.Driver.set Driver.default_options v in
              (match decode_options (Manifest.options_to_json o) with
              | Ok o' ->
                  Alcotest.(check bool) (key ^ ": decode (encode o) = o") true (o' = o)
              | Error msg -> Alcotest.failf "%s: own encoding rejected: %s" key msg);
              Alcotest.(check bool) (key ^ " changes the request digest") true
                (digest o <> digest Driver.default_options);
              match cli_args f v with
              | None -> ()
              | Some args ->
                  incr spelled;
                  let expected = compiled o in
                  if expected <> default_code then incr changed;
                  Alcotest.(check (option string))
                    (args ^ ": plutocc prints Batch.compile_one's code")
                    expected (plutocc_code args);
                  Alcotest.(check (option string))
                    (args ^ ": the same bytes through --connect")
                    expected
                    (plutocc_code (args ^ " --connect " ^ socket)))
            Driver.option_fields;
          Alcotest.(check int) "every spelled flag was compiled by the daemon"
            !spelled (daemon_counter ~socket "server.compiles");
          Alcotest.(check bool) "most flags change mvt's code" true
            (!changed * 3 >= !spelled * 2)))

(* --------------------------- signal-exit cleanup --------------------------- *)

(* Pool.with_temp_dir must remove its directory when the process dies to
   SIGTERM mid-body, not only on normal return (the plutocc/plutod
   interrupted-run guarantee). *)
let test_temp_dir_cleanup_on_sigterm () =
  let pipe_r, pipe_w = Unix.pipe () in
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       Unix.close pipe_r;
       Pool.with_temp_dir ~prefix:"sigterm" (fun dir ->
           let msg = dir ^ "\n" in
           ignore
             (Unix.write_substring pipe_w msg 0 (String.length msg));
           Unix.close pipe_w;
           (* park until the parent kills us *)
           Unix.sleepf 30.0)
     with _ -> ());
    Unix._exit 0
  end;
  Unix.close pipe_w;
  let buf = Buffer.create 128 in
  let chunk = Bytes.create 256 in
  let rec read_dir () =
    match Unix.read pipe_r chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        if Bytes.index_opt (Bytes.sub chunk 0 n) '\n' <> None then
          Buffer.contents buf
        else read_dir ()
  in
  let dir = String.trim (read_dir ()) in
  Unix.close pipe_r;
  Alcotest.(check bool) "child created its temp dir" true
    (dir <> "" && Sys.file_exists dir);
  Unix.kill pid Sys.sigterm;
  let st = wait_exit pid in
  Alcotest.(check bool) "child died to the signal" true
    (st = Unix.WSIGNALED Sys.sigterm);
  (* the signal handler must have removed the directory on the way out *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Sys.file_exists dir && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "temp dir removed by the signal-exit cleanup" false
    (Sys.file_exists dir)

let suite =
  ( "server",
    [
      Alcotest.test_case "options wire round trip" `Quick test_options_wire;
      Alcotest.test_case "request digest" `Quick test_request_digest;
      Alcotest.test_case "manifest entry round trip" `Quick
        test_entry_roundtrip;
      Alcotest.test_case "client falls back when no daemon listens" `Quick
        test_no_daemon_fallback;
      Fixtures.stats_case "compile parity, result cache, admin ops" `Quick
        test_compile_parity_and_admin;
      Fixtures.stats_case "concurrent identical requests coalesce" `Quick
        test_dedup_coalesces;
      Fixtures.stats_case "SIGKILL, then warm restart from the store" `Quick
        test_sigkill_warm_restart;
      Fixtures.stats_case "deadline expiry is a structured degradation" `Quick
        test_deadline_expiry;
      Alcotest.test_case "batch timeout: --connect = standalone" `Quick
        test_batch_timeout_through_daemon;
      Fixtures.stats_case "SIGTERM drains in-flight work" `Quick
        test_sigterm_drains;
      Fixtures.stats_case "oversize request gets bad-request + close" `Quick
        test_oversize_request;
      Fixtures.stats_case "pipeline cap overflows to server-busy" `Quick
        test_pipeline_cap_busy;
      Fixtures.stats_case "queue cap overflows to server-busy" `Quick
        test_queue_cap_busy;
      Fixtures.stats_case "solver caches evict under --solver-cache-entries"
        `Quick test_solver_cache_eviction;
      Fixtures.stats_case "result cache stays under --result-cache" `Quick
        test_result_cache_bound;
      Fixtures.stats_case "slow reader hits output backpressure" `Quick
        test_slow_reader_backpressure;
      Fixtures.stats_case "chaos on server fault sites" `Quick
        test_chaos_fault_sites;
      Fixtures.stats_case "option table: every field end to end" `Quick
        test_option_table_end_to_end;
      Alcotest.test_case "with_temp_dir cleans up on SIGTERM" `Quick
        test_temp_dir_cleanup_on_sigterm;
    ] )
