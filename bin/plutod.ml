(** plutod — the compilation-as-a-service daemon (see {!Server}).

    Serves newline-delimited JSON compile requests over a Unix-domain
    socket (and optionally TCP on localhost), keeping the in-memory solver
    caches hot across requests and backing finished results with the
    persistent store.  [plutocc --connect SOCK] is the matching client.

    The admin one-shots ([--ping], [--query-stats], [--request-shutdown])
    connect to an already-running daemon instead of starting one, so shell
    scripts need no extra tooling. *)

open Cmdliner

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "plutod.sock"
let defaults = Server.default_config ~socket_path:default_socket

let run socket tcp_port jobs cache_dir cache_size deadline result_cache
    max_connections max_pipeline max_queue max_request_bytes max_output_bytes
    solver_cache_entries stats ping query_stats request_shutdown =
  if ping then
    if Client.ping ~socket then begin
      print_endline "pong";
      0
    end
    else begin
      prerr_endline ("plutod: no daemon listening on " ^ socket);
      1
    end
  else if query_stats then begin
    match Client.stats ~socket with
    | Ok line ->
        print_endline line;
        0
    | Error msg ->
        prerr_endline ("plutod: " ^ msg);
        1
  end
  else if request_shutdown then
    if Client.shutdown ~socket then 0
    else begin
      prerr_endline ("plutod: no daemon listening on " ^ socket);
      1
    end
  else begin
    Store.set_dir cache_dir;
    if cache_size <> None then Store.set_budget cache_size;
    let cfg =
      {
        Server.socket_path = socket;
        tcp_port;
        jobs = max 1 jobs;
        default_deadline_s = deadline;
        result_cache_entries = max 1 result_cache;
        max_connections = max 1 max_connections;
        max_pipeline = max 1 max_pipeline;
        max_queue = max 1 max_queue;
        max_request_bytes =
          Option.value max_request_bytes ~default:defaults.Server.max_request_bytes;
        max_output_bytes =
          Option.value max_output_bytes ~default:defaults.Server.max_output_bytes;
        solver_cache_entries;
      }
    in
    match Server.run cfg with
    | () ->
        if stats then prerr_endline (Stats.to_json ());
        0
    | exception Failure msg ->
        prerr_endline msg;
        1
  end

let socket_arg =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on (a stale socket file left by a \
           dead daemon is replaced; a live daemon on the same path refuses \
           startup).")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on 127.0.0.1:PORT.")

let jobs_arg =
  Arg.(
    value
    & opt int defaults.Server.jobs
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Compile at most N requests concurrently (forked workers).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Back the daemon's caches with the persistent solver/result store \
           in DIR (same store plutocc --cache-dir uses): a restarted daemon \
           serves previously compiled requests warm from disk.")

let cache_size_arg =
  Arg.(
    value
    & opt (some Conv.size) None
    & info [ "cache-size" ] ~docv:"BYTES"
        ~doc:"Byte budget for --cache-dir (K/M/G suffixes accepted).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"S"
        ~doc:
          "Default per-request wall-clock deadline in seconds (a request's \
           own deadline_s field overrides it).  A compile still being \
           scheduled when it passes degrades to the original program order \
           with a deadline warning; a worker still running a second later \
           is killed and the client gets a structured pool-timeout \
           diagnostic.")

let result_cache_arg =
  Arg.(
    value
    & opt int defaults.Server.result_cache_entries
    & info [ "result-cache" ] ~docv:"N"
        ~doc:"Keep up to N finished compile results in the in-memory LRU.")

let max_connections_arg =
  Arg.(
    value
    & opt int defaults.Server.max_connections
    & info [ "max-connections" ] ~docv:"N"
        ~doc:
          "Serve at most N concurrent client connections (default 768 — \
           select() tops out at 1024 descriptors).  A connection over the \
           cap is answered with one structured server-busy line and \
           closed; clients fall back to local compilation.")

let max_pipeline_arg =
  Arg.(
    value
    & opt int defaults.Server.max_pipeline
    & info [ "max-pipeline" ] ~docv:"N"
        ~doc:
          "Allow at most N outstanding (unanswered) requests per \
           connection; further pipelined requests get a structured \
           server-busy response until responses drain.")

let max_queue_arg =
  Arg.(
    value
    & opt int defaults.Server.max_queue
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Queue at most N compile jobs waiting for a worker, globally; a \
           request that would queue a new job beyond that gets server-busy \
           (cache hits and requests joining an in-flight compile are \
           always admitted).")

let max_request_bytes_arg =
  Arg.(
    value
    & opt (some Conv.size) None
    & info [ "max-request-bytes" ] ~docv:"BYTES"
        ~doc:
          "Reject request lines longer than this (default 8M; K/M/G \
           suffixes accepted) with a structured bad-request response and \
           close the connection — bounds the per-connection input buffer.")

let max_output_bytes_arg =
  Arg.(
    value
    & opt (some Conv.size) None
    & info [ "max-output-bytes" ] ~docv:"BYTES"
        ~doc:
          "Stop reading from a connection whose unread responses exceed \
           this (default 4M; K/M/G suffixes accepted) until the client \
           drains them — backpressure that bounds the per-connection \
           output buffer against slow readers.")

let solver_cache_entries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "solver-cache-entries" ] ~docv:"N"
        ~doc:
          "Cap each in-memory solver cache (LP, integer feasibility, \
           emptiness — the tables kept hot across forked workers) at N \
           entries, evicting least-recently-used entries past the cap \
           (counter server.cache_evicted).  Default: 100000 per table.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"After a graceful drain, print aggregate counters as JSON on stderr.")

let ping_arg =
  Arg.(
    value & flag
    & info [ "ping" ] ~doc:"Probe a running daemon and exit (0 iff it answered).")

let query_stats_arg =
  Arg.(
    value & flag
    & info [ "query-stats" ]
        ~doc:
          "Print a running daemon's aggregate stats response (one JSON \
           line) on stdout and exit.")

let request_shutdown_arg =
  Arg.(
    value & flag
    & info [ "request-shutdown" ]
        ~doc:"Ask a running daemon to drain gracefully and exit.")

let cmd =
  let doc = "polyhedral compilation daemon (plutocc as a service)" in
  let info = Cmd.info "plutod" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ cache_dir_arg
      $ cache_size_arg $ deadline_arg $ result_cache_arg
      $ max_connections_arg $ max_pipeline_arg $ max_queue_arg
      $ max_request_bytes_arg $ max_output_bytes_arg
      $ solver_cache_entries_arg $ stats_arg $ ping_arg $ query_stats_arg
      $ request_shutdown_arg)

let () = exit (Cmd.eval' cmd)
