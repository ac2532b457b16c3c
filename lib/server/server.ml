(* See server.mli.  Single-threaded [select] event loop multiplexing three
   kinds of file descriptors: listeners (accept), client connections
   (request lines in, response lines out), and the pipes of forked compile
   workers ({!Pool.start} handles).  All compile work happens in workers;
   the loop itself only parses, hashes, caches, and shuffles bytes, so one
   slow compile never blocks another client's cache hit.

   Every resource here is bounded (DESIGN.md §15): connections, queued
   jobs, per-connection pipelining, the input buffer, and the output
   buffer all have configured caps.  Overflow never kills the daemon and
   never grows memory: admission overflow answers with a structured
   [server-busy] entry, oversize requests with [bad-request], and a slow
   reader simply stops being read from until its output drains. *)

let protocol_version = "plutod-v1"

type config = {
  socket_path : string;
  tcp_port : int option;
  jobs : int;
  default_deadline_s : float option;
  result_cache_entries : int;
  max_connections : int;
  max_pipeline : int;
  max_queue : int;
  max_request_bytes : int;
  max_output_bytes : int;
  solver_cache_entries : int option;
}

let default_config ~socket_path =
  {
    socket_path;
    tcp_port = None;
    jobs = 2;
    default_deadline_s = None;
    result_cache_entries = 256;
    (* [Unix.select] tops out at FD_SETSIZE (1024) descriptors; leave room
       for listeners and worker pipes below it. *)
    max_connections = 768;
    max_pipeline = 32;
    max_queue = 256;
    max_request_bytes = 8 * 1024 * 1024;
    max_output_bytes = 4 * 1024 * 1024;
    solver_cache_entries = None;
  }

(* ------------------------------ request digest ---------------------------- *)

let request_digest ~options ~strict ~verify ~source =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            protocol_version;
            Manifest.options_to_json options;
            string_of_bool strict;
            string_of_bool verify;
            source;
          ]))

(* ------------------------------ worker task ------------------------------- *)

type task_payload = {
  q_name : string;
  q_source : string;
  q_options : Driver.options;
  q_strict : bool;
  q_verify : bool;
}

(* Pure data across the fork boundary: the compile result, the worker's
   per-request counter delta (its Stats were reset at fork), and the
   in-memory solver-cache entries it added on top of the inherited hot
   tables. *)
type task_reply = {
  t_code : string option;
  t_diags : Diag.t list;
  t_rung : string;
  t_counters : (string * int) list;
  t_journal : Memo.journal;
}

(* Unlike {!Batch.compile_one}, the caches are *not* cleared: the worker
   inherited the daemon's hot tables and that is the whole point.  What it
   adds is journaled and shipped back for the daemon to absorb.  [deadline_s]
   is what is left of the request's deadline when the worker starts. *)
let compile_task ?deadline_s (q : task_payload) : task_reply =
  Memo.set_journal true;
  let t_code, t_diags, t_rung =
    match
      Driver.compile_source_robust ~options:q.q_options ~strict:q.q_strict
        ~verify:q.q_verify ?deadline_s ~name:q.q_name q.q_source
    with
    | Error ds -> (None, ds, "none")
    | Ok (r, warns) ->
        let code =
          Format.asprintf "%a" (fun fmt c -> Codegen.print_c fmt c) r.Driver.code
        in
        (Some code, warns, Batch.rung_of warns)
  in
  {
    t_code;
    t_diags;
    t_rung;
    t_counters = Stats.counters ();
    t_journal = Memo.take_journal ();
  }

(* ----------------------------- result caching ----------------------------- *)

(* What outlives a request: enough to rebuild a response (and nothing
   process-specific), stored in the in-memory result table and,
   sub-versioned by [protocol_version], in the persistent store. *)
type cached = { c_code : string option; c_diags : Diag.t list; c_rung : string }

let result_table cfg : cached Memo.t =
  Memo.create ~kind:"server-result" ~version:protocol_version
    ~budget:cfg.result_cache_entries ~hits:"server.result_cache_hits"
    ~misses:"server.result_cache_misses"
    ~store_hits:"server.result_store_hits" ()

(* ------------------------------- connections ------------------------------ *)

(* Responses go back in request order per connection: each request claims a
   slot in a FIFO at parse time and fills it whenever its answer is ready
   (cache hits immediately, compiles later); the writer drains filled slots
   from the head only. *)
type slot = { mutable s_resp : string option }

(* Output is staged in two pieces: [out_data]/[out_pos] is the flattened
   front chunk currently being written (partial writes only advance the
   offset — no re-copy), and [out] is a Buffer accumulating whatever was
   produced since the last flatten.  [closing] connections have stopped
   parsing input (their byte stream is corrupt or they were told to go
   away) but still drain pending responses before the socket closes;
   [stalled] marks a connection excluded from the read set because its
   unread output exceeds the budget — the select-loop backpressure. *)
type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : Buffer.t;
  mutable out_data : string;
  mutable out_pos : int;
  slots : slot Queue.t;
  mutable alive : bool;
  mutable closing : bool;
  mutable stalled : bool;
}

let pending_out conn =
  String.length conn.out_data - conn.out_pos + Buffer.length conn.out

type waiter = {
  w_conn : conn;
  w_slot : slot;
  w_name : string;
  w_t0 : float;
  w_coalesced : bool;
}

type job = {
  j_digest : string;
  j_payload : task_payload;
  mutable j_waiters : waiter list;  (* newest first *)
  mutable j_handle : task_reply Pool.handle option;  (* None while queued *)
  j_deadline : float option;  (* absolute; from the first requester *)
}

type state = {
  cfg : config;
  t_start : float;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  inflight : (string, job) Hashtbl.t;  (* digest -> job (queued or running) *)
  queue : job Queue.t;  (* FIFO of jobs awaiting a worker *)
  mutable running : job list;
  mutable n_running : int;
  results : cached Memo.t;
  draining : bool ref;
}

let iter_conns st f = Hashtbl.iter (fun _ c -> f c) st.conns

(* ------------------------------- responses -------------------------------- *)

let entry_of_result ~name ~elapsed (c : cached) =
  Manifest.entry ~file:name ~rung:c.c_rung ~diags:c.c_diags ~elapsed c.c_code

let flush_slots conn =
  let rec go () =
    match Queue.peek_opt conn.slots with
    | Some { s_resp = Some line } ->
        ignore (Queue.pop conn.slots);
        Buffer.add_string conn.out line;
        Buffer.add_char conn.out '\n';
        go ()
    | _ -> ()
  in
  go ()

let respond conn slot line =
  slot.s_resp <- Some line;
  flush_slots conn

let respond_entry ?(extra = []) conn slot entry =
  if entry.Manifest.e_status = Manifest.Failed then
    Stats.incr "server.failures";
  respond conn slot (Manifest.entry_to_json ~include_code:true ~extra entry)

let respond_result ?(cached = false) ?(coalesced = false) ?stats conn slot
    ~name ~elapsed c =
  let extra =
    [ ("cached", string_of_bool cached); ("coalesced", string_of_bool coalesced) ]
    @ match stats with None -> [] | Some s -> [ ("stats", s) ]
  in
  respond_entry ~extra conn slot (entry_of_result ~name ~elapsed c)

let error_entry ~name ~elapsed d =
  entry_of_result ~name ~elapsed { c_code = None; c_diags = [ d ]; c_rung = "none" }

let busy_line ~name msg =
  Manifest.entry_to_json ~include_code:true
    ~extra:[ ("busy", "true") ]
    (error_entry ~name ~elapsed:0.0 (Diag.errorf ~code:"server-busy" "%s" msg))

(* A structured admission rejection: the request gets a normal Failed entry
   whose diagnostic code is ["server-busy"], so clients can distinguish
   "overloaded, try again / fall back locally" from a real compile error. *)
let respond_busy conn slot ~name msg =
  Stats.incr "server.busy_rejections";
  respond conn slot (busy_line ~name msg)

(* ------------------------------ job lifecycle ----------------------------- *)

let spawn_ready st =
  let now = Unix.gettimeofday () in
  (* FIFO: oldest queued job first; jobs whose waiters all disconnected
     while queued are dropped instead of burning a worker *)
  let rec go () =
    if st.n_running < st.cfg.jobs && not (Queue.is_empty st.queue) then begin
      let job = Queue.pop st.queue in
      (* closing connections keep their waiters: their already-claimed
         slots still get answered before the socket closes *)
      job.j_waiters <- List.filter (fun w -> w.w_conn.alive) job.j_waiters;
      if job.j_waiters = [] then begin
        Hashtbl.remove st.inflight job.j_digest;
        Stats.incr "server.jobs_abandoned";
        go ()
      end
      else begin
        (* the worker spends what is left of the deadline; [kill_expired]
           is only the backstop *)
        let deadline_s =
          Option.map (fun d -> Float.max 0.0 (d -. now)) job.j_deadline
        in
        Stats.incr "server.compiles";
        job.j_handle <-
          Some (Pool.start ~f:(compile_task ?deadline_s) job.j_payload);
        st.running <- job :: st.running;
        st.n_running <- st.n_running + 1;
        go ()
      end
    end
  in
  go ()

let job_done st job =
  Hashtbl.remove st.inflight job.j_digest;
  st.running <- List.filter (fun j -> j != job) st.running;
  st.n_running <- st.n_running - 1

let answer_waiters job ~f =
  let now = Unix.gettimeofday () in
  List.iter
    (fun w ->
      if w.w_conn.alive then
        f w ~name:w.w_name ~elapsed:(now -. w.w_t0) ~coalesced:w.w_coalesced)
    (List.rev job.j_waiters)

let finish_job st job (o : task_reply Pool.outcome) =
  job_done st job;
  match o.Pool.value with
  | Ok r ->
      (* keep the daemon's solver caches hot for the next fork; the absorb
         itself LRU-trims the tables back under the configured budget *)
      Stats.add "server.cache_absorbed" (Memo.journal_length r.t_journal);
      Stats.add "server.cache_evicted" (Memo.absorb r.t_journal);
      let c = { c_code = r.t_code; c_diags = r.t_diags; c_rung = r.t_rung } in
      (* a result that hit the deadline depends on timing, and the digest
         does not cover the deadline: never cache it *)
      if c.c_code <> None && not (Diag.has_code c.c_diags "deadline") then
        Memo.add st.results job.j_digest c;
      let stats = Manifest.counters_to_json r.t_counters in
      answer_waiters job ~f:(fun w ~name ~elapsed ~coalesced ->
          respond_result ~coalesced ~stats w.w_conn w.w_slot ~name ~elapsed c)
  | Error d ->
      (* crash/timeout: the structured diagnostic is the response *)
      answer_waiters job ~f:(fun w ~name ~elapsed ~coalesced ->
          respond_result ~coalesced w.w_conn w.w_slot ~name ~elapsed
            { c_code = None; c_diags = [ d ]; c_rung = "none" })

let deadline_diag d =
  Diag.errorf ~code:"pool-timeout"
    "request exceeded its %gs deadline by the %gs grace; the compile worker \
     was killed"
    d Deadline.grace_s

(* The backstop: a worker that has not answered [Deadline.grace_s] after
   its request's deadline is killed. *)
let kill_expired st =
  let now = Unix.gettimeofday () in
  List.iter
    (fun job ->
      match job.j_deadline with
      | Some d when now > d +. Deadline.grace_s ->
          (match job.j_handle with Some h -> Pool.kill h | None -> ());
          Stats.incr "server.deadline_expired";
          job_done st job;
          answer_waiters job ~f:(fun w ~name ~elapsed ~coalesced ->
              respond_result ~coalesced w.w_conn w.w_slot ~name ~elapsed
                {
                  c_code = None;
                  c_diags = [ deadline_diag (d -. w.w_t0) ];
                  c_rung = "none";
                })
      | _ -> ())
    st.running

(* ------------------------------- requests --------------------------------- *)

let push_slot conn =
  let s = { s_resp = None } in
  Queue.push s conn.slots;
  s

let bad_request conn msg =
  Stats.incr "server.bad_requests";
  let slot = push_slot conn in
  respond_entry conn slot
    (error_entry ~name:"<request>" ~elapsed:0.0
       (Diag.errorf ~code:"bad-request" "%s" msg))

(* Stop parsing this connection's input but let already-claimed slots be
   answered and the output drain; the sweep in the main loop closes the
   socket once both are empty.  Reads continue (and are discarded) so a
   client hangup is still noticed immediately. *)
let begin_close conn =
  conn.closing <- true;
  Buffer.clear conn.inbuf

let handle_compile st conn j =
  let module J = Manifest.Json in
  let name = J.str_mem "name" j ~default:"<request>" in
  (* per-connection pipelining cap: [slots] holds every request not yet
     answered-and-flushed, so its length is this client's outstanding debt *)
  if Queue.length conn.slots >= st.cfg.max_pipeline then
    respond_busy conn (push_slot conn) ~name
      (Printf.sprintf
         "per-connection pipelining limit (%d outstanding requests) reached"
         st.cfg.max_pipeline)
  else
    match
      ( J.mem "source" j,
        Manifest.options_of_json
          (Option.value (J.mem "options" j) ~default:(J.Obj [])) )
    with
    | Some (J.Str source), Ok options ->
        let strict = J.bool_mem "strict" j ~default:false in
        let verify = J.bool_mem "verify" j ~default:false in
        let deadline_s =
          match J.mem "deadline_s" j with
          | Some (J.Num f) when f > 0.0 -> Some f
          | _ -> st.cfg.default_deadline_s
        in
        let digest = request_digest ~options ~strict ~verify ~source in
        let slot = push_slot conn in
        let t0 = Unix.gettimeofday () in
        (match Memo.find st.results digest with
        | Some c ->
            respond_result ~cached:true conn slot ~name
              ~elapsed:(Unix.gettimeofday () -. t0)
              c
        | None -> (
            let waiter =
              {
                w_conn = conn;
                w_slot = slot;
                w_name = name;
                w_t0 = t0;
                w_coalesced = Hashtbl.mem st.inflight digest;
              }
            in
            match Hashtbl.find_opt st.inflight digest with
            | Some job ->
                (* identical program+options already compiling (or
                   queued): join it — one compile, every waiter answered
                   from it *)
                Stats.incr "server.dedup_coalesced";
                job.j_waiters <- waiter :: job.j_waiters
            | None ->
                (* global admission cap: joining an in-flight compile is
                   free, but a *new* job needs queue room *)
                if Queue.length st.queue >= st.cfg.max_queue then
                  respond_busy conn slot ~name
                    (Printf.sprintf
                       "compile queue full (%d jobs queued); retry or \
                        compile locally"
                       st.cfg.max_queue)
                else begin
                  let job =
                    {
                      j_digest = digest;
                      j_payload =
                        {
                          q_name = name;
                          q_source = source;
                          q_options = options;
                          q_strict = strict;
                          q_verify = verify;
                        };
                      j_waiters = [ waiter ];
                      j_handle = None;
                      j_deadline = Option.map (fun s -> t0 +. s) deadline_s;
                    }
                  in
                  Hashtbl.add st.inflight digest job;
                  Queue.push job st.queue
                end))
    | Some (J.Str _), Error msg -> bad_request conn ("bad options: " ^ msg)
    | _ -> bad_request conn "compile request lacks a \"source\" string"

let stats_json st =
  Printf.sprintf
    "{\"op\": \"stats\", \"protocol\": %s, \"uptime_s\": %.3f, \"inflight\": \
     %d, \"queued\": %d, \"connections\": %d, \"result_cache_entries\": %d, \
     \"solver_cache_entries\": %d, \"stats\": %s}"
    (Manifest.json_string protocol_version)
    (Unix.gettimeofday () -. st.t_start)
    (Hashtbl.length st.inflight) (Queue.length st.queue)
    (Hashtbl.length st.conns) (Memo.length st.results) (Memo.entry_count ())
    (Stats.to_json ())

(* A line of only the whitespace [String.trim] strips is skipped; this
   check reads the request in place instead of copying it. *)
let blank line =
  String.for_all (function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false) line

let handle_line st conn line =
  Stats.incr "server.requests";
  match Manifest.Json.parse line with
  | Error msg -> bad_request conn (Printf.sprintf "unparseable request: %s" msg)
  | Ok j -> (
      match Manifest.Json.str_mem "op" j ~default:"compile" with
      | "compile" -> handle_compile st conn j
      | "stats" -> respond conn (push_slot conn) (stats_json st)
      | "ping" ->
          respond conn (push_slot conn)
            (Printf.sprintf "{\"op\": \"pong\", \"protocol\": %s}"
               (Manifest.json_string protocol_version))
      | "shutdown" ->
          respond conn (push_slot conn) "{\"op\": \"shutting-down\"}";
          st.draining := true
      | op -> bad_request conn (Printf.sprintf "unknown op %S" op))

(* -------------------------------- socket IO ------------------------------- *)

let close_conn st conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove st.conns conn.fd
  end

let read_chunk = Bytes.create 65536

let conn_readable st conn =
  match
    Fault.unix_error "server.read" Unix.EIO "read";
    Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk)
  with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn st conn
  | 0 -> close_conn st conn
  | n ->
      if conn.closing then
        (* input after a protocol error is discarded; reading on just
           detects the client hanging up *)
        ()
      else begin
        Buffer.add_subbytes conn.inbuf read_chunk 0 n;
        (* split complete lines off the front of the buffer; a handled line
           may close or start closing the connection mid-loop (bad request,
           shutdown), after which the rest of the bytes are dead *)
        let data = Buffer.contents conn.inbuf in
        let dlen = String.length data in
        let start = ref 0 in
        let scanning = ref true in
        while !scanning && conn.alive && not conn.closing do
          match String.index_from_opt data !start '\n' with
          | Some nl ->
              let line = String.sub data !start (nl - !start) in
              start := nl + 1;
              if not (blank line) then handle_line st conn line
          | None -> scanning := false
        done;
        if conn.alive && not conn.closing then begin
          Buffer.clear conn.inbuf;
          if !start < dlen then
            Buffer.add_substring conn.inbuf data !start (dlen - !start);
          (* bound [inbuf]: a newline-free request longer than the cap can
             never complete, so reject it instead of buffering forever *)
          if Buffer.length conn.inbuf > st.cfg.max_request_bytes then begin
            bad_request conn
              (Printf.sprintf
                 "request line exceeds the %d-byte limit (--max-request-bytes)"
                 st.cfg.max_request_bytes);
            begin_close conn
          end
        end
      end

let conn_writable st conn =
  if conn.out_pos >= String.length conn.out_data then begin
    (* flatten the staged Buffer exactly once per drained chunk *)
    conn.out_data <- Buffer.contents conn.out;
    conn.out_pos <- 0;
    Buffer.clear conn.out
  end;
  let len = String.length conn.out_data - conn.out_pos in
  if len > 0 then
    match
      Fault.unix_error "server.write" Unix.EIO "write";
      Unix.write_substring conn.fd conn.out_data conn.out_pos len
    with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn st conn
    | n ->
        (* partial writes only advance the offset — no O(n²) re-copying *)
        conn.out_pos <- conn.out_pos + n;
        if conn.out_pos >= String.length conn.out_data then begin
          conn.out_data <- "";
          conn.out_pos <- 0
        end

(* Accept one pending connection; [true] when something was accepted (the
   caller loops until the nonblocking listener runs dry). *)
let accept_conn st listener =
  match
    Fault.unix_error "server.accept" Unix.EMFILE "accept";
    Unix.accept listener
  with
  | exception Unix.Unix_error _ -> false
  | fd, _ ->
      if Hashtbl.length st.conns >= st.cfg.max_connections then begin
        (* over the connection cap: still answer with a structured busy
           line (best-effort — the socket buffer is empty, one line fits)
           so the client knows to back off instead of seeing a bare RST *)
        Stats.incr "server.busy_rejections";
        let line =
          busy_line ~name:"<connect>"
            (Printf.sprintf "connection limit (%d) reached"
               st.cfg.max_connections)
          ^ "\n"
        in
        (try ignore (Unix.write_substring fd line 0 (String.length line))
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        true
      end
      else begin
        Stats.incr "server.connections";
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        Hashtbl.replace st.conns fd
          {
            fd;
            inbuf = Buffer.create 4096;
            out = Buffer.create 4096;
            out_data = "";
            out_pos = 0;
            slots = Queue.create ();
            alive = true;
            closing = false;
            stalled = false;
          };
        true
      end

let rec accept_all st listener =
  if accept_conn st listener then accept_all st listener

(* ------------------------------- listeners -------------------------------- *)

let bind_unix path =
  if Sys.file_exists path then begin
    (* stale socket file from a dead daemon?  probe before stealing it *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "plutod: a daemon is already listening on %s" path);
    (try Sys.remove path with Sys_error _ -> ())
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1024;
  fd

let bind_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 1024;
  fd

(* -------------------------------- main loop ------------------------------- *)

let run cfg =
  (* a client gone mid-write must be an EPIPE error on our write, not death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* forked workers inherit the budget, so their tables stay bounded too;
     the journals they ship back are deltas, re-trimmed on absorb *)
  Option.iter Memo.set_budget cfg.solver_cache_entries;
  let listeners =
    bind_unix cfg.socket_path
    :: (match cfg.tcp_port with Some p -> [ bind_tcp p ] | None -> [])
  in
  List.iter
    (fun fd -> try Unix.set_nonblock fd with Unix.Unix_error _ -> ())
    listeners;
  let st =
    {
      cfg;
      t_start = Unix.gettimeofday ();
      conns = Hashtbl.create 64;
      inflight = Hashtbl.create 16;
      queue = Queue.create ();
      running = [];
      n_running = 0;
      results = result_table cfg;
      draining = ref false;
    }
  in
  let remove_socket () =
    try Sys.remove cfg.socket_path with Sys_error _ -> ()
  in
  (* belt and braces: if some later layer installs the {!Pool.Cleanup}
     signal handlers over ours, the socket file still gets removed *)
  let cleanup_id = Pool.Cleanup.register remove_socket in
  (* graceful drain on the first SIGTERM/SIGINT; a second one means "now" *)
  let on_signal _ =
    if !(st.draining) then begin
      remove_socket ();
      Unix._exit 130
    end
    else st.draining := true
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (* last-resort guard: one request must never take the daemon (and every
     other client) down.  Anything that escapes a dispatch is counted and
     the offending connection closed; ["server.crashes"] staying 0 under
     the load suite is the proof the guard is dead code in practice. *)
  let guard ?conn st f =
    try f ()
    with
    | Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exn ->
        Stats.incr "server.crashes";
        prerr_endline
          (Printf.sprintf "plutod: dispatch error: %s"
             (Printexc.to_string exn));
        (match conn with Some c -> close_conn st c | None -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        listeners;
      iter_conns st (fun c ->
          try Unix.close c.fd with Unix.Unix_error _ -> ());
      remove_socket ();
      Pool.Cleanup.release cleanup_id)
    (fun () ->
      let finished () =
        !(st.draining)
        && Queue.is_empty st.queue
        && st.running = []
        && Hashtbl.fold (fun _ c acc -> acc && pending_out c = 0) st.conns
             true
      in
      while not (finished ()) do
        spawn_ready st;
        kill_expired st;
        (* sweep: closing connections whose every claimed slot has been
           answered and whose output has drained can finally close *)
        let done_closing =
          Hashtbl.fold
            (fun _ c acc ->
              if c.closing && Queue.is_empty c.slots && pending_out c = 0
              then c :: acc
              else acc)
            st.conns []
        in
        List.iter (fun c -> close_conn st c) done_closing;
        let now = Unix.gettimeofday () in
        let conn_reads =
          Hashtbl.fold
            (fun fd c acc ->
              (* backpressure: a connection whose unread output exceeds the
                 budget stops being read from — its requests (and its
                 bytes) wait in the kernel until it drains what it asked
                 for.  Closing connections are still read (and discarded)
                 to notice hangups. *)
              if
                (not c.closing)
                && pending_out c > st.cfg.max_output_bytes
              then begin
                if not c.stalled then begin
                  c.stalled <- true;
                  Stats.incr "server.slow_reader_stalls"
                end;
                acc
              end
              else begin
                c.stalled <- false;
                fd :: acc
              end)
            st.conns []
        in
        let reads =
          (if !(st.draining) then [] else listeners)
          @ conn_reads
          @ List.filter_map
              (fun j -> Option.bind j.j_handle Pool.handle_fd)
              st.running
        in
        let writes =
          Hashtbl.fold
            (fun fd c acc -> if pending_out c > 0 then fd :: acc else acc)
            st.conns []
        in
        let timeout =
          (* wake for the next deadline, and periodically to notice the
             drain flag flipped by a signal *)
          List.fold_left
            (fun acc j ->
              match j.j_deadline with
              | Some d ->
                  Float.min acc (Float.max 0.001 (d +. Deadline.grace_s -. now))
              | None -> acc)
            0.5 st.running
        in
        match Unix.select reads writes [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) ->
            (* a connection closed by a mid-iteration dispatch can leave a
               dead fd in this iteration's sets; the next loop rebuilds
               them from live state *)
            ()
        | ready_r, ready_w, _ ->
            List.iter
              (fun fd ->
                if List.memq fd listeners then
                  (* accept everything ready, not one per wakeup: the
                     nonblocking listener raises EAGAIN when drained *)
                  guard st (fun () -> accept_all st fd)
                else
                  match Hashtbl.find_opt st.conns fd with
                  | Some conn ->
                      guard ~conn st (fun () -> conn_readable st conn)
                  | None -> (
                      match
                        List.find_opt
                          (fun j ->
                            Option.bind j.j_handle Pool.handle_fd
                            = Some fd)
                          st.running
                      with
                      | Some job ->
                          guard st (fun () ->
                              match Pool.pump (Option.get job.j_handle) with
                              | `Pending -> ()
                              | `Done o -> finish_job st job o)
                      | None -> ()))
              ready_r;
            List.iter
              (fun fd ->
                match Hashtbl.find_opt st.conns fd with
                | Some conn ->
                    guard ~conn st (fun () -> conn_writable st conn)
                | None -> ())
              ready_w
      done)
