(** perf — the repository benchmark (see README.md beside this file).

    One run compiles the 15-kernel corpus three ways under one set of
    compile options (the workload): in process, as [plutocc FILE] does;
    through [plutocc --batch] over a persistent store, cold then warm; and
    through a [plutod] daemon under a closed loop of hot and unique
    requests.  It checks every output against the in-process reference and
    simulates the generated code on the model machine.  Each metric is
    printed as [workload metric value unit p25 p75 n]; the last line is one
    JSON object with the run's verdict and the metrics of the selected list
    ([--trace 0]: end to end, [--trace 1]: per layer). *)

open Cmdliner

type workload = { w_name : string; options : Driver.options; flags : string list }

let workloads =
  [ { w_name = "fast"; options = Driver.default_options; flags = [] };
    { w_name = "ilp";
      options = { Driver.default_options with Driver.fast_schedule = false };
      flags = [ "--no-fast-schedule" ] } ]

(** The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end =
  [ "setup_s"; "compile_ms_geomean"; "compile_ms_p90"; "sim_gflops_geomean";
    "peak_rss_mb"; "cold_pass_s"; "warm_pass_s"; "req_ms_p50"; "req_ms_p99";
    "req_per_s"; "daemon_rss_mb" ]

let layer_spans =
  [ ("frontend.parse", "frontend.parse_ms"); ("deps.compute", "deps.compute_ms");
    ("fastmatch.schedule", "fastmatch.schedule_ms");
    ("auto.transform", "auto.transform_ms"); ("codegen.lower", "codegen.lower_ms");
    ("verify.validate", "verify.validate_ms"); ("codegen.render", "codegen.render_ms") ]

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let corpus_metrics ~kernels (rounds : Corpus.round list) =
  let untraced = List.filter (fun r -> not r.Corpus.traced) rounds in
  let traced = List.filter (fun r -> r.Corpus.traced) rounds in
  let refs = Corpus.reference rounds in
  let samples = List.concat_map (fun r -> r.Corpus.outcomes) untraced in
  let per_kernel =
    List.map
      (fun (k : Kernels.t) ->
        Sample.median
          (List.filter_map
             (fun (o : Corpus.outcome) ->
               if o.Corpus.kernel.Kernels.name = k.Kernels.name then Some o.Corpus.ms
               else None)
             samples))
      kernels
  in
  let pass name = Sample.sum (List.map (fun o -> float_of_int (Corpus.counter name o)) refs) in
  let count name = Metric.exact name "count" (pass name) in
  let hit_ratio name prefix =
    Metric.exact name "ratio"
      (ratio
         (int_of_float (pass (prefix ^ "_hits")))
         (int_of_float (pass (prefix ^ "_misses"))))
  in
  let ast_nodes =
    Sample.sum
      (List.filter_map
         (fun (o : Corpus.outcome) ->
           Option.map (fun r -> float_of_int (Codegen.size r.Driver.code)) o.Corpus.result)
         refs)
  in
  let e2e =
    let n = List.length samples in
    [ Metric.measured ~n "compile_ms_geomean" "ms" (Sample.geomean per_kernel);
      Metric.measured ~n "compile_ms_p90" "ms"
        (Sample.quantile (List.map (fun o -> o.Corpus.ms) samples) 0.9) ]
  in
  (* per traced round: each layer's summed self time, and the share of the
     traced compile time the layers account for *)
  let layer_rounds =
    List.map
      (fun (r : Corpus.round) ->
        let selfs =
          Spans.self_times
            (List.filter (fun s -> s.Spans.round = r.Corpus.index) !Spans.recorded)
        in
        let sum_of name =
          1000.0
          *. Sample.sum
               (List.filter_map
                  (fun (s, t) -> if s.Spans.name = name then Some t else None)
                  selfs)
        in
        let layers = List.map (fun (span, _) -> sum_of span) layer_spans in
        let root = 1000.0 *. Sample.sum
            (List.filter_map
               (fun (s, _) -> if s.Spans.name = "compile" then Some (Spans.duration s) else None)
               selfs)
        in
        (layers, Sample.sum layers /. root))
      traced
  in
  let traced_layers =
    if traced = [] then []
    else
      List.mapi
        (fun i (_, metric) ->
          Metric.samples metric "ms" (List.map (fun (ls, _) -> List.nth ls i) layer_rounds))
        layer_spans
      @ [ Metric.samples "trace.coverage" "ratio" (List.map snd layer_rounds);
          Metric.measured ~n:(List.length traced) "trace.overhead_ratio" "ratio"
            ((Sample.median (List.map Corpus.pass_ms traced)
             /. Sample.median (List.map Corpus.pass_ms untraced))
            -. 1.0) ]
  in
  let layers =
    traced_layers
    @ [ Metric.exact "fastmatch.accept_ratio" "ratio"
          (pass "fastpath.accepts" /. float_of_int (List.length kernels));
        count "milp.solves"; count "milp.pivots"; count "milp.bb_nodes";
        count "milp.cold_builds"; count "fm.eliminations";
        hit_ratio "milp.lp_cache_hit_ratio" "milp.lp_cache";
        hit_ratio "poly.empty_cache_hit_ratio" "poly.empty_cache";
        Metric.exact "codegen.ast_nodes" "count" ast_nodes ]
  in
  (e2e, layers)

let sim_metrics (sims, sim_s) =
  let total f = float_of_int (List.fold_left (fun a s -> a + f s) 0 sims) in
  ( [ Metric.exact "sim_gflops_geomean" "GFLOPS"
        (Sample.geomean (List.map (fun s -> s.Corpus.gflops) sims)) ],
    [ Metric.exact "machine.l1_misses" "count" (total (fun s -> s.Corpus.l1_misses));
      Metric.exact "machine.l2_misses" "count" (total (fun s -> s.Corpus.l2_misses));
      Metric.measured "machine.simulate_s" "s" sim_s ] )

let batch_metrics (rounds : Surfaces.batch_round list) =
  let over f = List.map f rounds in
  let c pass k = float_of_int (Surfaces.get k pass.Surfaces.counters) in
  ( [ Metric.samples "cold_pass_s" "s" (over (fun r -> r.Surfaces.cold.Surfaces.wall_s));
      Metric.samples "warm_pass_s" "s" (over (fun r -> r.Surfaces.warm.Surfaces.wall_s)) ],
    [ Metric.samples "batch.cold_compile_s_sum" "s"
        (over (fun r -> r.Surfaces.cold.Surfaces.compile_s_sum));
      Metric.samples "batch.warm_compile_s_sum" "s"
        (over (fun r -> r.Surfaces.warm.Surfaces.compile_s_sum));
      Metric.samples "store.writes" "count" (over (fun r -> c r.Surfaces.cold "store.writes"));
      Metric.samples "store.bytes" "bytes" (over (fun r -> float_of_int r.Surfaces.store_bytes));
      Metric.samples "store.warm_hit_ratio" "ratio"
        (over (fun r ->
             let w = r.Surfaces.warm.Surfaces.counters in
             ratio (Surfaces.get "store.hits" w) (Surfaces.get "store.misses" w)));
      Metric.samples "milp.warm_solves" "count" (over (fun r -> c r.Surfaces.warm "milp.solves"));
      Metric.samples "pool.spawned" "count" (over (fun r -> c r.Surfaces.cold "pool.spawned")) ] )

let daemon_metrics (d : Surfaces.daemon) ~stats_delta ~rss_mb =
  let ms pick = List.filter_map (fun (r : Surfaces.reply) -> if pick r then Some r.Surfaces.ms else None) d.Surfaces.replies in
  let all = ms (fun _ -> true) and hits = ms (fun r -> r.Surfaces.cached)
  and misses = ms (fun r -> not r.Surfaces.cached) in
  let delta k = float_of_int (Surfaces.get k stats_delta) in
  let pct name xs q = Metric.measured ~n:(List.length xs) name "ms" (Sample.quantile xs q) in
  ( [ Metric.samples "setup_s" "s" d.Surfaces.setup_s;
      pct "req_ms_p50" all 0.5; pct "req_ms_p99" all 0.99;
      Metric.measured ~n:(List.length all) "req_per_s" "req/s"
        (float_of_int (List.length all) /. d.Surfaces.loop_s);
      Metric.measured "daemon_rss_mb" "MB" rss_mb ],
    [ pct "server.hit_ms_p50" hits 0.5; pct "server.hit_ms_p99" hits 0.99;
      pct "server.miss_ms_p50" misses 0.5; pct "server.miss_ms_p99" misses 0.99;
      Metric.measured "milp.solves_per_miss" "count"
        (delta "milp.solves" /. float_of_int (max 1 (List.length misses)));
      Metric.measured "server.compiles" "count" (delta "server.compiles");
      Metric.measured "server.result_cache_hits" "count" (delta "server.result_cache_hits");
      Metric.measured "server.cache_absorbed" "count" (delta "server.cache_absorbed");
      Metric.measured "server.busy_rejections" "count" (delta "server.busy_rejections") ] )

let now = Unix.gettimeofday

(** One run: corpus round 0 (the reference), the daemon set-up, then cycles
    of [corpus round(s); batch round; daemon slice] until the measured time
    reaches about [seconds].  Interleaving spreads every metric's samples
    over the whole run; each daemon slice lasts half the cycle's other work,
    so the three surfaces share the time about equally. *)
let run_workload ~w ~seed ~seconds ~trace ~quick ~spans ~json ~set ~plutocc ~plutod =
  let options = w.options in
  let corpus_round = Corpus.round ~options ~seed ~quick in
  let first = corpus_round ~traced:false 0 in
  let refs = Corpus.reference [ first ] in
  let codes =
    List.filter_map
      (fun (o : Corpus.outcome) -> Option.map (fun c -> (o.Corpus.kernel.Kernels.name, c)) o.Corpus.code)
      refs
  in
  let kernels = Corpus.kernels ~quick in
  let chk = Surfaces.new_check () in
  let rounds, batch_rounds, daemon, (stats_delta, daemon_rss) =
    Surfaces.with_scratch (fun tmp ->
        let files = Surfaces.batch_inputs ~tmp kernels in
        let d =
          Surfaces.daemon_start ~plutod ~tmp ~options ~seed ~kernels ~refs:codes
            ~setups:(if quick then 1 else 3) ~chk
        in
        Fun.protect
          ~finally:(fun () -> if d.Surfaces.running then ignore (Surfaces.daemon_stop d))
          (fun () ->
            (* start another cycle only if at least half of it fits *)
            let rec cycle i rounds batches spent last =
              if i > 0 && (quick || spent +. (last /. 2.0) >= float_of_int seconds) then
                (List.rev rounds, List.rev batches)
              else begin
                let t0 = now () in
                (* round 0 ran before the set-up; traced runs pair rounds 2i, 2i+1 *)
                let untraced =
                  if i = 0 then []
                  else [ corpus_round ~traced:false (if trace then 2 * i else i) ]
                in
                let traced = if trace then [ corpus_round ~traced:true ((2 * i) + 1) ] else [] in
                let b =
                  Surfaces.batch_round ~plutocc ~tmp ~flags:w.flags ~files ~refs:codes ~chk i
                in
                Surfaces.daemon_slice d ~refs:codes ~chk
                  ~seconds:(if quick then infinity else (now () -. t0) /. 2.0)
                  ~max_requests:(if quick then 24 else max_int);
                let took = now () -. t0 in
                cycle (i + 1)
                  (List.rev_append (untraced @ traced) rounds)
                  (b :: batches) (spent +. took) took
              end
            in
            let rounds, batches = cycle 0 [ first ] [] (Corpus.pass_ms first /. 1000.0) 0.0 in
            (rounds, batches, d, Surfaces.daemon_stop d)))
  in
  let rss_mb = Surfaces.peak_rss_mb 0 in
  let corpus_attempted, corpus_failures = Corpus.check rounds in
  let sim = Corpus.simulate ~quick refs in
  let c_e2e, c_layers = corpus_metrics ~kernels rounds in
  let s_e2e, s_layers = sim_metrics sim in
  let b_e2e, b_layers = batch_metrics batch_rounds in
  let d_e2e, d_layers = daemon_metrics daemon ~stats_delta ~rss_mb:daemon_rss in
  let all =
    c_e2e @ s_e2e @ [ Metric.measured "peak_rss_mb" "MB" rss_mb ] @ b_e2e @ d_e2e
    @ c_layers @ s_layers @ b_layers @ d_layers
  in
  let unmeasured =
    List.filter_map
      (fun m ->
        if Float.is_finite m.Metric.s.Sample.median then None
        else Some (m.Metric.name ^ " was not measured"))
      all
  in
  let failures = corpus_failures @ List.rev chk.Surfaces.messages @ unmeasured in
  let attempted = corpus_attempted + chk.Surfaces.attempted in
  let failed =
    List.length corpus_failures + chk.Surfaces.failed + List.length unmeasured
  in
  let fail_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  (* every metric is printed and recorded; fail_ratio, 0 in a correct run,
     stays out of the lists whose medians are compared *)
  let report = all @ [ Metric.measured "fail_ratio" "ratio" fail_ratio ] in
  List.iter (fun f -> prerr_endline ("perf: FAIL " ^ f)) failures;
  List.iter
    (fun m ->
      let s = m.Metric.s in
      Printf.printf "%s %s %s %s %s %s %d\n" w.w_name m.Metric.name (Metric.num s.Sample.median)
        m.Metric.unit_ (Metric.num s.Sample.p25) (Metric.num s.Sample.p75) s.Sample.n)
    report;
  let correct = failed = 0 in
  let order =
    match rounds with
    | r :: _ -> List.map (fun (o : Corpus.outcome) -> o.Corpus.kernel.Kernels.name) r.Corpus.outcomes
    | [] -> []
  in
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Metric.record_json ~workload:w.w_name ~seed ~trace ~quick ~seconds ~set ~correct
               ~attempted ~failed ~order ~digest:(Digest.to_hex daemon.Surfaces.digest) report);
          output_char oc '\n'));
  (match spans with
  | None -> ()
  | Some path -> Surfaces.write_file path (Spans.to_json !Spans.recorded));
  let is_e2e m = List.mem m.Metric.name end_to_end in
  let selected = List.filter (fun m -> if trace then not (is_e2e m) else is_e2e m) all in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Manifest.json_string m.Metric.name) (Metric.num m.Metric.s.Sample.median)
              (Manifest.json_string m.Metric.unit_))
          selected));
  if correct then 0 else 1

let main workload seed seconds trace spans json set quick plutocc plutod compare
    smoke benchmark files =
  if compare then Compare.compare ~benchmark files
  else
    match smoke with
    | Some bench -> Compare.smoke ~benchmark:bench ~self:Sys.executable_name ~plutocc ~plutod
    | None -> (
        match List.find_opt (fun w -> w.w_name = workload) workloads with
        | None ->
            Printf.eprintf "perf: unknown workload %S (one of: %s)\n" workload
              (String.concat ", " (List.map (fun w -> w.w_name) workloads));
            2
        | Some w ->
            if trace <> 0 && trace <> 1 then begin
              prerr_endline "perf: --trace takes 0 or 1";
              2
            end
            else
              run_workload ~w ~seed ~seconds:(max 1 seconds) ~trace:(trace = 1) ~quick
                ~spans ~json ~set ~plutocc ~plutod)

let cmd =
  let opt_file name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc) in
  let exe name default =
    Arg.(value & opt string default & info [ name ] ~docv:"EXE" ~doc:("Path of the built " ^ name ^ "."))
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"the repository benchmark")
    Term.(
      const main
      $ Arg.(value & opt string "fast" & info [ "workload" ] ~docv:"W" ~doc:"Workload: fast or ilp.")
      $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
               ~doc:"Decides the kernel order, the daemon request mix and variant spelling.")
      $ Arg.(value & opt int 30 & info [ "seconds" ] ~docv:"S" ~doc:"Measuring time of the run.")
      $ Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
               ~doc:"1: trace the corpus replay and report the per-layer metrics.")
      $ opt_file "spans" "Write the recorded spans here as JSON at exit."
      $ opt_file "json" "Append the run's record (every metric with quartiles) to FILE."
      $ Arg.(value & opt string "" & info [ "set" ] ~docv:"LABEL"
               ~doc:"Label stored in the --json record, to tell sets of runs apart.")
      $ Arg.(value & flag & info [ "quick" ]
               ~doc:"One round of each phase on four kernels, 24 daemon requests, \
                     simulation at the check parameters.")
      $ exe "plutocc" "_build/default/bin/plutocc.exe"
      $ exe "plutod" "_build/default/bin/plutod.exe"
      $ Arg.(value & flag & info [ "compare" ]
               ~doc:"Compare two record files (positional A B, each FILE or FILE@SET).")
      $ opt_file "smoke" "Run every workload of this BENCHMARK.json quickly and check its metrics."
      $ Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~docv:"FILE"
               ~doc:"Bounds for --compare.")
      $ Arg.(value & pos_all string [] & info [] ~docv:"FILE"))

let () = exit (Cmd.eval' cmd)
