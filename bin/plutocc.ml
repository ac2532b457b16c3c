(** plutocc — the end-to-end source-to-source tool (the paper's Figure 5):
    C-subset loop nests in, transformed OpenMP C out, with optional
    dependence/transformation dumps, semantic-equivalence checking against
    the original execution order, and performance simulation on the modelled
    multicore.

    Diagnostics are rendered gcc-style with source excerpts.  Exit codes:
    0 = success, 2 = code emitted but only after graceful degradation
    (a scheduling rung failed and a fallback was used), 1 = hard error
    (nothing emitted, or the equivalence check failed). *)

open Cmdliner

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Render diagnostics to stderr, with source excerpts when [src] is given. *)
let render ?src ds =
  if ds <> [] then Format.eprintf "%a@." (Diag.pp_all ?src) ds

(* "N=8000,T=64" — every malformed binding is reported, not just the first. *)
let parse_params spec =
  if String.trim spec = "" then Ok []
  else
    let bindings, errs =
      List.fold_left
        (fun (bs, es) kv ->
          match String.split_on_char '=' (String.trim kv) with
          | [ k; v ] -> (
              match int_of_string_opt (String.trim v) with
              | Some n -> ((String.trim k, n) :: bs, es)
              | None ->
                  ( bs,
                    Diag.errorf ~code:"cli"
                      "--params: value %S for %s is not an integer"
                      (String.trim v) (String.trim k)
                    :: es ))
          | _ ->
              ( bs,
                Diag.errorf ~code:"cli"
                  "--params: malformed binding %S (expected NAME=INT)"
                  (String.trim kv)
                :: es ))
        ([], [])
        (String.split_on_char ',' spec)
    in
    if errs = [] then Ok (List.rev bindings) else Error (List.rev errs)

exception Cli_error of Diag.t

let cli_error fmt = Printf.ksprintf (fun m -> raise (Cli_error (Diag.error ~code:"cli" m))) fmt

let no_daemon_note sock =
  render
    [
      Diag.note ~code:"connect-fallback"
        (Printf.sprintf "no daemon listening on %s; compiling locally" sock);
    ]

(* Shared tail of both batch paths (local pool and daemon connection):
   per-file stderr summary, optional JSON manifest, stdout fallback for the
   generated code, exit-code policy. *)
let finish_batch ~output ~batch_manifest (m : Batch.manifest) =
  List.iter
    (fun (e : Batch.entry) ->
      render e.Batch.e_diags;
      Format.eprintf "%s: %s (%s, %.2fs)@." e.Batch.e_file
        (Manifest.status_name e.Batch.e_status)
        e.Batch.e_rung e.Batch.e_elapsed_s)
    m.Batch.m_entries;
  (match batch_manifest with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Manifest.manifest_to_json m)));
  (* without -o the generated code still has somewhere to go: stdout, each
     file prefixed so the concatenation stays attributable *)
  if output = None then
    List.iter
      (fun (e : Batch.entry) ->
        match e.Batch.e_code with
        | None -> ()
        | Some code ->
            Format.printf "/* %s */@.%s" e.Batch.e_file code;
            Format.print_flush ())
      m.Batch.m_entries;
  Batch.exit_code m

(* --batch: every positional file through [Batch.run] on the worker pool.
   [-o] names an output directory; per-file diagnostics render to stderr;
   the manifest (status, rung, diagnostics, timings per file plus aggregated
   counters) goes to --batch-manifest as JSON. *)
let run_batch ~files ~output ~options ~strict ~verify ~jobs ~batch_manifest
    ~batch_timeout ~cache_dir =
  let m =
    Batch.run ~options ~strict ~verify ~jobs ?task_timeout_s:batch_timeout
      ?cache_dir ?out_dir:output files
  in
  finish_batch ~output ~batch_manifest m

(* --batch --connect: the same files through one daemon connection,
   sequentially (the daemon itself fans out across its workers and clients).
   A request the daemon cannot answer (dropped connection mid-batch) is
   compiled locally — the batch always completes. *)
let run_batch_daemon fd ~files ~output ~options ~strict ~verify
    ~batch_manifest ~batch_timeout =
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map
      (fun file ->
        match read_file file with
        | exception Sys_error msg ->
            Batch.error_entry file (Diag.errorf ~code:"io" "%s" msg)
        | src -> (
            let t1 = Unix.gettimeofday () in
            match
              Client.compile_fd fd ?deadline_s:batch_timeout ~strict ~verify
                ~options ~name:file ~source:src ()
            with
            | Ok resp when not (Client.is_busy resp) ->
                { resp.Client.r_entry with Batch.e_file = file }
            | answer ->
                render
                  [
                    (match answer with
                    | Error msg ->
                        Diag.warningf ~code:"server"
                          "daemon request for %s failed (%s); compiling locally"
                          file msg
                    | Ok _ ->
                        Diag.note ~code:"server-busy"
                          (Printf.sprintf
                             "daemon is at capacity for %s; compiling locally"
                             file));
                  ];
                let t = Batch.compile_one ~options ~strict ~verify (file, src) in
                Manifest.entry ~file ~rung:t.Batch.t_rung ~diags:t.Batch.t_diags
                  ~elapsed:(Unix.gettimeofday () -. t1) t.Batch.t_code))
      files
  in
  let entries = List.map (Batch.write_output output) entries in
  finish_batch ~output ~batch_manifest
    {
      Batch.m_jobs = 1;
      m_cache_dir = None;
      m_entries = entries;
      m_elapsed_s = Unix.gettimeofday () -. t0;
      m_counters = Stats.counters ();
    }

let run files output show_deps show_transform options check params_spec
    simulate cores native strict verify break_schedule tune tune_report jobs
    tune_budget stats stats_json batch batch_manifest batch_timeout
    cache_dir cache_size connect =
  Store.set_dir cache_dir;
  if cache_size <> None then Store.set_budget cache_size;
  let code =
    try
    if batch then begin
      match connect with
      | Some sock -> (
          match Client.connect sock with
          | Some fd ->
              Fun.protect
                ~finally:(fun () -> Client.close fd)
                (fun () ->
                  run_batch_daemon fd ~files ~output ~options ~strict ~verify
                    ~batch_manifest ~batch_timeout)
          | None ->
              no_daemon_note sock;
              run_batch ~files ~output ~options ~strict ~verify ~jobs
                ~batch_manifest ~batch_timeout ~cache_dir)
      | None ->
          run_batch ~files ~output ~options ~strict ~verify ~jobs
            ~batch_manifest ~batch_timeout ~cache_dir
    end
    else
    match files with
    | [] | _ :: _ :: _ ->
        render
          [
            Diag.error ~code:"cli"
              "multiple input files require --batch (single-file mode takes \
               exactly one)";
          ];
        1
    | [ file ] -> (
    let src = read_file file in
    (* --connect: hand plain compilations to the daemon; anything needing
       in-process artifacts (tuning, checking, simulation, dumps, the
       sabotage hooks) stays local.  No daemon listening → fall back. *)
    let daemon_eligible =
      connect <> None
      && not
           (tune || check || simulate || native || show_deps || show_transform
          || break_schedule)
    in
    let daemon_code =
      if not daemon_eligible then None
      else begin
        let sock = Option.get connect in
        match
          Client.compile ~socket:sock ~strict ~verify ~options ~name:file
            ~source:src ()
        with
        | `No_daemon ->
            no_daemon_note sock;
            None
        | `Daemon (Error msg) ->
            render [ Diag.errorf ~code:"server" "daemon protocol error: %s" msg ];
            Some 1
        | `Daemon (Ok resp) when Client.is_busy resp ->
            (* admission rejection, not a compile failure: the daemon asked
               us to go away, so take the same road as `No_daemon *)
            render
              [
                Diag.note ~code:"server-busy"
                  "daemon is at capacity; compiling locally";
              ];
            None
        | `Daemon (Ok resp) ->
            let e = resp.Client.r_entry in
            render ~src e.Batch.e_diags;
            (match e.Batch.e_code with
            | None -> ()
            | Some code -> (
                match output with
                | None ->
                    print_string code;
                    flush stdout
                | Some path ->
                    let oc = open_out path in
                    Fun.protect
                      ~finally:(fun () -> close_out_noerr oc)
                      (fun () -> output_string oc code)));
            Some
              (match e.Batch.e_status with
              | Batch.Failed -> 1
              | Batch.Degraded -> 2
              | Batch.Success -> 0)
      end
    in
    match daemon_code with
    | Some code -> code
    | None -> (
    match parse_params params_spec with
    | Error ds ->
        render ds;
        1
    | Ok bindings -> (
        match Frontend.parse_program_diag ~name:file src with
        | Error ds ->
            render ~src ds;
            1
        | Ok (program, parse_warns) -> (
            render ~src parse_warns;
            let compiled =
              if not tune then Driver.compile_robust ~options ~strict program
              else begin
                (* autotune: search the configuration space, then continue the
                   normal pipeline (output/check/simulate) with the winner *)
                let report, best =
                  Tune.search ~options ~jobs ~budget:tune_budget
                    ~seed:(Gen.seed_of_env ()) ~params:bindings program
                in
                Format.eprintf "%a@." Tune.pp_report_summary report;
                (match tune_report with
                | None -> ()
                | Some path ->
                    let oc = open_out path in
                    Fun.protect
                      ~finally:(fun () -> close_out_noerr oc)
                      (fun () -> output_string oc (Tune.report_to_json report)));
                match (best, report.Tune.r_best) with
                | Some r, Some o ->
                    let warns =
                      if o.Tune.o_degraded then
                        [
                          Diag.warning ~code:"degraded-tune"
                            "tuned best candidate was produced by a fallback \
                             scheduling rung";
                        ]
                      else []
                    in
                    Ok (r, warns)
                | _ ->
                    Error
                      [
                        Diag.error ~code:"tune"
                          "autotuning found no verified candidate";
                      ]
              end
            in
            match compiled with
            | Error ds ->
                render ~src ds;
                1
            | Ok (r, compile_warns) ->
                render ~src compile_warns;
                (* test-only: sabotage the schedule so the validator has
                   something to catch *)
                let r =
                  if not break_schedule then r
                  else
                    match
                      Verify.For_tests.reverse_first_loop r.Driver.transform
                    with
                    | None -> r
                    | Some broken ->
                        Driver.compile_with_transform ~options
                          r.Driver.program r.Driver.deps broken
                in
                let verify_failed = ref false in
                if verify then begin
                  let assoc =
                    List.map
                      (fun p ->
                        ( p,
                          match List.assoc_opt p bindings with
                          | Some v -> v
                          | None -> 6 ))
                      program.Ir.params
                  in
                  let params = Array.of_list (List.map snd assoc) in
                  let rep = Driver.verify ~params r in
                  Format.eprintf "translation validation (%s): %a@."
                    (String.concat ", "
                       (List.map
                          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                          assoc))
                    Verify.pp_report rep;
                  if not (Verify.ok rep) then verify_failed := true
                end;
                if show_deps then begin
                  Format.eprintf "/* %d dependences:@."
                    (List.length r.Driver.deps);
                  List.iter
                    (fun d -> Format.eprintf "   %a@." Deps.pp d)
                    r.Driver.deps;
                  Format.eprintf "*/@."
                end;
                if show_transform then
                  Format.eprintf "/* transformation:@.%a*/@."
                    Pluto.Auto.pp_transform r.Driver.transform;
                let emit fmt = Codegen.print_c fmt r.Driver.code in
                (match output with
                | None -> emit Format.std_formatter
                | Some path ->
                    let oc = open_out path in
                    Fun.protect
                      ~finally:(fun () -> close_out_noerr oc)
                      (fun () ->
                        let fmt = Format.formatter_of_out_channel oc in
                        emit fmt;
                        Format.pp_print_flush fmt ()));
                let check_failed = ref false in
                if check then begin
                  let assoc =
                    List.map
                      (fun p ->
                        ( p,
                          match List.assoc_opt p bindings with
                          | Some v -> v
                          | None -> 20 ))
                      program.Ir.params
                  in
                  let params = Array.of_list (List.map snd assoc) in
                  (* Marked-reduction programs are checked modulo FP
                     reassociation; everything else stays bit-exact. *)
                  let tolerance =
                    if
                      options.Driver.reductions
                      && List.exists
                           (fun d -> d.Deps.reduction)
                           r.Driver.deps
                    then Some Machine.reduction_tolerance
                    else None
                  in
                  let ok =
                    Machine.equivalent ?tolerance program r.Driver.code
                      ~params
                  in
                  Format.eprintf "equivalence check (%s): %s@."
                    (String.concat ", "
                       (List.map
                          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                          assoc))
                    (if ok then "PASS" else "FAIL");
                  if not ok then check_failed := true
                end;
                if native then begin
                  let assoc =
                    List.map
                      (fun p ->
                        ( p,
                          match List.assoc_opt p bindings with
                          | Some v -> v
                          | None ->
                              cli_error "--native-run needs --params %s=..." p
                        ))
                      program.Ir.params
                  in
                  match Runner.run r.Driver.code ~params:assoc with
                  | None -> Format.eprintf "native run: no C compiler found@."
                  | Some res ->
                      Format.eprintf "native run: %.6fs;%s@."
                        res.Runner.wall_seconds
                        (String.concat ""
                           (List.map
                              (fun (n, v) ->
                                Printf.sprintf " checksum(%s)=%s" n v)
                              res.Runner.checksums))
                end;
                if simulate then begin
                  let assoc =
                    List.map
                      (fun p ->
                        ( p,
                          match List.assoc_opt p bindings with
                          | Some v -> v
                          | None -> cli_error "--simulate needs --params %s=..." p
                        ))
                      program.Ir.params
                  in
                  let params = Array.of_list (List.map snd assoc) in
                  let mc =
                    { Machine.default_machine with Machine.ncores = cores }
                  in
                  let res = Machine.simulate mc r.Driver.code ~params in
                  Format.eprintf "simulation (%d cores): %a@." cores
                    Machine.pp_result res
                end;
                if !check_failed || !verify_failed then 1
                else if Driver.degraded compile_warns then 2
                else 0))))
  with
  | Cli_error d ->
      render [ d ];
      1
  | Sys_error msg ->
      render [ Diag.errorf ~code:"io" "%s" msg ];
      1
  | Failure msg ->
      render [ Diag.errorf ~code:"cli" "%s" msg ];
      1
  | (Out_of_memory | Sys.Break) as e -> raise e
    | e ->
        render
          [
            Diag.errorf ~code:"internal" "internal error: %s"
              (Printexc.to_string e);
          ];
        1
  in
  (* never exit while the store sits over its budget (idempotent; the batch
     path already ran it before assembling the manifest) *)
  Store.evict_to_budget ();
  if stats then prerr_endline (Stats.to_json ());
  (* machine-readable counterpart of --stats: one JSON file, nothing else
     mixed in — smoke scripts read counters from here instead of grepping
     stderr *)
  (match stats_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Stats.to_json ());
          output_char oc '\n'));
  code

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:"Input C-subset file(s).  More than one requires $(b,--batch).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT"
        ~doc:
          "Write generated C here (default: stdout).  With $(b,--batch) this \
           names a directory; each FILE becomes OUT/$(i,base).pluto.c.")

let show_deps_arg =
  Arg.(value & flag & info [ "show-deps" ] ~doc:"Print the dependence graph to stderr.")

let show_transform_arg =
  Arg.(
    value & flag
    & info [ "show-transform" ] ~doc:"Print the computed transformation to stderr.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Verify semantic equivalence against the original order (small sizes).")

let params_arg =
  Arg.(
    value & opt string ""
    & info [ "params" ] ~docv:"P" ~doc:"Parameter bindings, e.g. N=8000,T=64.")

let simulate_arg =
  Arg.(
    value & flag
    & info [ "simulate" ]
        ~doc:"Run the multicore performance simulation (needs --params).")

let cores_arg =
  Arg.(
    value
    & opt (Conv.int_at_least 1) 4
    & info [ "cores" ] ~docv:"K" ~doc:"Simulated core count.")

let native_arg =
  Arg.(
    value & flag
    & info [ "native-run" ]
        ~doc:"Compile the generated C with the host C compiler, run it and report wall time and checksums (needs --params).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Disable the graceful-degradation ladder: fail (exit 1) as soon as \
           the Pluto transformation search fails instead of falling back to \
           the Feautrier baseline or the original program order.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Run the independent translation validator on the result: re-prove \
           that the schedule respects every dependence (integer emptiness \
           over the dependence polyhedra) and that the generated loop nest \
           scans exactly the original iteration domain.  Parameter values \
           come from --params (default 6).  Exit 1 if validation fails.")

let tune_arg =
  Arg.(
    value & flag
    & info [ "tune" ]
        ~doc:
          "Autotune tile sizes, fusion choice and unroll-jam empirically: \
           compile each candidate with full verification, cost it on the \
           simulated machine, and emit the best verified variant.  The \
           search order is pinned by PLUTO_FUZZ_SEED; evaluations are \
           memoized in the $(b,--cache-dir) store.")

let tune_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tune-report" ] ~docv:"FILE"
        ~doc:"Write the full tuning report (every candidate's cost) as JSON.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan work out over N forked workers: tuning candidates with \
           $(b,--tune), input files with $(b,--batch).")

let batch_arg =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Compile every FILE (concurrently with $(b,--jobs)).  A file that \
           crashes its worker or outlives $(b,--batch-timeout) is reported \
           and the rest of the batch is unaffected.  Exit status: 1 if any \
           file failed, else 2 if any file needed a fallback scheduling \
           rung, else 0.")

let batch_manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "batch-manifest" ] ~docv:"FILE"
        ~doc:
          "With $(b,--batch): write a JSON manifest (per-file status, \
           scheduling rung, diagnostics and timings, plus aggregated \
           counters) here.")

let batch_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "batch-timeout" ] ~docv:"S"
        ~doc:
          "With $(b,--batch): wall-clock deadline per file, in seconds.  A \
           file still being scheduled when it passes degrades to the \
           original program order with a deadline warning (exit 2); a \
           worker still running a second later is killed and its file fails \
           with a pool-timeout diagnostic.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist solver results (ILP/LP answers, emptiness tests) and \
           $(b,--tune) evaluations in DIR so they survive across processes \
           and runs; entries are sharded \
           into 256 hash-prefix subdirectories, keyed by canonical \
           constraint-system digests, checksummed and versioned, so a stale \
           or corrupt entry is silently recomputed.  Orphaned temp files \
           from crashed runs are garbage-collected at startup.")

let cache_size_arg =
  Arg.(
    value
    & opt (some Conv.size) None
    & info [ "cache-size" ] ~docv:"BYTES"
        ~doc:
          "Byte budget for $(b,--cache-dir) (suffixes K/M/G accepted, e.g. \
           64M).  When the store grows past the budget, least-recently-used \
           entries are evicted; recency is tracked across processes, so any \
           number of concurrent runs can share one budgeted cache.")

let tune_budget_arg =
  Arg.(
    value & opt int 24
    & info [ "tune-budget" ] ~docv:"K"
        ~doc:
          "Evaluate at most K candidates (the default and T=64 baselines are \
           always among them).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print internal counters and pass timings (ILP solves, \
           Fourier-Motzkin eliminations, cache-model events, ...) as JSON on \
           stderr.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the same counters/timers JSON as $(b,--stats) to FILE — \
           machine-readable, never interleaved with diagnostics.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Compile through a running plutod daemon on this Unix socket \
           (works for single-file and $(b,--batch) mode; responses reuse \
           the daemon's hot caches).  When no daemon is listening, fall \
           back to normal local compilation with a note.  Flags that need \
           in-process artifacts ($(b,--tune), $(b,--check), \
           $(b,--simulate), $(b,--native-run), dump flags) always compile \
           locally.")

(* Deliberately undocumented: sabotage hook for exercising --verify's
   rejection path from the test suite. *)
let break_schedule_arg =
  Arg.(
    value & flag
    & info [ "break-schedule" ] ~doc:"" ~docs:Cmdliner.Manpage.s_none)

(* The compile-option flags: one per [cli] entry of
   {!Driver.option_fields}, each folded over the default options. *)
let options_term =
  let flag_info f flag ?docv doc =
    let docs = if doc = "" then Some Manpage.s_none else None in
    Arg.info [ Driver.cli_flag f flag ] ?docv ~doc ?docs
  in
  let arg (type a) (f : a Driver.field) cli : a Term.t =
    let default = f.Driver.get Driver.default_options in
    let in_range = Conv.int_at_least f.Driver.min in
    match (f.Driver.kind, cli) with
    | Driver.Bool, Driver.Switches l ->
        let switch (flag, v, doc) = (v, flag_info f flag doc) in
        Arg.value (Arg.vflag default (List.map switch l))
    | Driver.Int, Driver.Value { flag; docv; doc } ->
        Arg.value (Arg.opt in_range default (flag_info f flag ~docv doc))
    | Driver.Int_opt, Driver.Value { flag; docv; doc } ->
        Arg.value (Arg.opt (Arg.some in_range) default (flag_info f flag ~docv doc))
    | _ -> invalid_arg ("no command-line spelling for " ^ f.Driver.key)
  in
  List.fold_left
    (fun acc (Driver.Field f) ->
      match f.Driver.cli with
      | None -> acc
      | Some cli -> Term.(const (fun v o -> f.Driver.set o v) $ arg f cli $ acc))
    (Term.const Driver.default_options) Driver.option_fields

let cmd =
  let doc = "automatic polyhedral parallelizer and locality optimizer" in
  let info = Cmd.info "plutocc" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run $ files_arg $ output_arg $ show_deps_arg $ show_transform_arg
      $ options_term $ check_arg $ params_arg $ simulate_arg $ cores_arg
      $ native_arg $ strict_arg $ verify_arg $ break_schedule_arg $ tune_arg
      $ tune_report_arg $ jobs_arg $ tune_budget_arg $ stats_arg
      $ stats_json_arg $ batch_arg $ batch_manifest_arg
      $ batch_timeout_arg $ cache_dir_arg $ cache_size_arg $ connect_arg)

let () = exit (Cmd.eval' cmd)
