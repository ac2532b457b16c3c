(** The phases that drive the built programs from outside: [plutocc --batch]
    over a persistent store, and a [plutod] daemon under a closed loop of
    requests.  Every output is compared with the in-process reference code
    of its base kernel. *)

let now = Unix.gettimeofday

(* ------------------------------- processes -------------------------------- *)

(* Children get TMPDIR inside the benchmark's own directory, so nothing they
   create lands outside the checkout. *)
let child_env ~tmp =
  let abs = if Filename.is_relative tmp then Filename.concat (Sys.getcwd ()) tmp else tmp in
  Array.append
    [| "TMPDIR=" ^ abs |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
          (Array.to_list (Unix.environment ()))))

(* Every child still running.  Each leads its own process group, so the
   workers it forks go with it: on an exit path that did not stop them
   (an exception, a signal) the groups are killed and the leaders reaped
   before the scratch directory is removed. *)
let children : int list ref = ref []

let forget pid = children := List.filter (fun p -> p <> pid) !children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let spawn ~tmp ~stdout ~stderr prog args =
  let open_log f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let out = open_log stdout and err = open_log stderr in
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ out; err; inp ])
    (fun () ->
      let env = child_env ~tmp in
      match Unix.fork () with
      | 0 -> (
          try
            ignore (Unix.setsid ());
            Unix.dup2 inp Unix.stdin;
            Unix.dup2 out Unix.stdout;
            Unix.dup2 err Unix.stderr;
            Unix.execve prog (Array.of_list (prog :: args)) env
          with _ -> Unix._exit 127)
      | pid ->
          children := pid :: !children;
          pid)

let rec wait pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
  | _, status -> (
      forget pid;
      match status with
      | Unix.WEXITED c -> c
      | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
  | st -> st.Unix.st_size

(** Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | s ->
      List.find_map
        (fun line ->
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          else None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:nan

let counters_of_stats_json j =
  match Manifest.Json.mem "counters" j with
  | Some (Manifest.Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, int_of_float f)) (Manifest.Json.num v))
        fields
  | _ -> []

let parse_json_file path =
  match Manifest.Json.parse (read_file path) with
  | Ok j -> Some j
  | Error _ -> None
  | exception Sys_error _ -> None

let get k counters = Option.value ~default:0 (List.assoc_opt k counters)

(* Outputs checked and failures found; only the first 50 messages are kept. *)
type check = { mutable attempted : int; mutable failed : int; mutable messages : string list }

let new_check () = { attempted = 0; failed = 0; messages = [] }

let fail c fmt =
  Printf.ksprintf
    (fun m ->
      c.failed <- c.failed + 1;
      if c.failed <= 50 then c.messages <- m :: c.messages)
    fmt

(* The benchmark's scratch space: a fresh directory under .perfbench/ in the
   current directory, removed on every exit path. *)
let with_scratch f =
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "run.%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    kill_children ();
    rm_rf dir;
    try Unix.rmdir root with Unix.Unix_error _ -> ()
  in
  let id = Pool.Cleanup.register cleanup in
  Fun.protect
    ~finally:(fun () ->
      Pool.Cleanup.release id;
      cleanup ())
    (fun () -> f dir)

(* --------------------------------- batch ---------------------------------- *)

type pass = {
  wall_s : float;
  compile_s_sum : float;  (** Σ per-file [elapsed_s] from the manifest *)
  counters : (string * int) list;  (** from --stats-json *)
}

type batch_round = { cold : pass; warm : pass; store_bytes : int }

let batch_pass ~plutocc ~tmp ~flags ~files ~refs ~chk ~cache ~tag =
  let out = Filename.concat tmp (tag ^ ".out") in
  let stats = Filename.concat tmp (tag ^ ".stats.json") in
  let manifest = Filename.concat tmp (tag ^ ".manifest.json") in
  let log = Filename.concat tmp "plutocc.log" in
  let args =
    ("--batch" :: files)
    @ [ "-o"; out; "--jobs"; "2"; "--cache-dir"; cache; "--stats-json"; stats;
        "--batch-manifest"; manifest ]
    @ flags
  in
  let t0 = now () in
  let code = wait (spawn ~tmp ~stdout:log ~stderr:log plutocc args) in
  let wall_s = now () -. t0 in
  if code <> 0 then fail chk "%s pass: plutocc --batch exited %d (see %s)" tag code log;
  let entries =
    match Option.bind (parse_json_file manifest) (Manifest.Json.mem "entries") with
    | Some (Manifest.Json.Arr es) -> es
    | _ ->
        fail chk "%s pass: no manifest" tag;
        []
  in
  let compile_s_sum =
    List.fold_left
      (fun acc e ->
        let file = Manifest.Json.str_mem "file" e ~default:"?" in
        chk.attempted <- chk.attempted + 1;
        let kernel = Filename.remove_extension (Filename.basename file) in
        (match Manifest.Json.str_mem "status" e ~default:"?" with
        | "ok" -> (
            let path = Filename.concat out (Batch.output_name file) in
            match (List.assoc_opt kernel refs, read_file path) with
            | Some want, got when got = want -> ()
            | _ -> fail chk "%s pass: %s differs from the in-process code" tag kernel
            | exception Sys_error _ -> fail chk "%s pass: %s has no output" tag kernel)
        | st -> fail chk "%s pass: %s has status %s" tag kernel st);
        acc +. Manifest.Json.num_mem "elapsed_s" e ~default:0.0)
      0.0 entries
  in
  if List.length entries <> List.length files then
    fail chk "%s pass: %d entries for %d files" tag (List.length entries) (List.length files);
  let counters =
    Option.fold ~none:[] ~some:counters_of_stats_json (parse_json_file stats)
  in
  rm_rf out;
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ stats; manifest ];
  { wall_s; compile_s_sum; counters }

(** Write the corpus as source files.  The list is in name order, as a
    shell glob gives it, so the pool's schedule is the same in every round
    and run. *)
let batch_inputs ~tmp kernels =
  let src = Filename.concat tmp "src" in
  Unix.mkdir src 0o755;
  List.sort compare
    (List.map
       (fun (k : Kernels.t) ->
         let f = Filename.concat src (k.Kernels.name ^ ".c") in
         write_file f k.Kernels.source;
         f)
       kernels)

(** A cold pass on an empty store, then a warm pass on the same store. *)
let batch_round ~plutocc ~tmp ~flags ~files ~refs ~chk i =
  let cache = Filename.concat tmp (Printf.sprintf "store.%d" i) in
  let pass tag = batch_pass ~plutocc ~tmp ~flags ~files ~refs ~chk ~cache ~tag in
  let cold = pass "cold" in
  let store_bytes = du cache in
  let warm = pass "warm" in
  rm_rf cache;
  { cold; warm; store_bytes }

(* --------------------------------- daemon --------------------------------- *)

type request = { kernel : string; line : string }

let request ~options (k : Kernels.t) source =
  { kernel = k.Kernels.name;
    line =
      Client.compile_request ~options ~name:(k.Kernels.name ^ ".c") ~source () ^ "\n" }

(* A unique variant appends a newline and 24 spaces/tabs spelling the
   variant number XOR a seed-derived mask: a new digest (a real compile)
   for the same program, at a constant request size. *)
let variant ~mask ~source v =
  let bits = v lxor mask in
  source ^ "\n" ^ String.init 24 (fun i -> if (bits lsr i) land 1 = 1 then '\t' else ' ')

(** The seeded request stream.  Every block of [4 × kernels] requests holds
    each kernel three times verbatim (hot: answered from the result cache)
    and once as a never-repeated variant (a compile), in seeded order — a
    75/25 mix that holds in every block, not just on average. *)
let request_stream ~seed ~options ~(kernels : Kernels.t list) =
  let mask = Random.State.bits (Random.State.make [| seed; 7 |]) land 0xFFFFFF in
  let hot = List.map (fun (k : Kernels.t) -> (k, request ~options k k.Kernels.source)) kernels in
  let pending = ref [] and block = ref 0 and variants = ref 0 in
  fun () ->
    (match !pending with
    | [] ->
        let reqs =
          List.concat_map
            (fun (k : Kernels.t) ->
              let v = !variants in
              incr variants;
              request ~options k (variant ~mask ~source:k.Kernels.source v)
              :: List.init 3 (fun _ -> List.assq k hot))
            kernels
        in
        pending := Corpus.shuffle (Random.State.make [| seed; 1000 + !block |]) reqs;
        incr block
    | _ -> ());
    match !pending with
    | r :: rest ->
        pending := rest;
        r
    | [] -> assert false

(* Only what the metrics need: holding the request lines would make the
   benchmark's own heap grow with the request count. *)
type reply = { ms : float; cached : bool }

let rec send_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> send_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> send_all fd s off

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable inflight : (request * float) option }

let chunk = Bytes.create 65536

(* Take one complete line out of the connection's buffer, if there is one. *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some nl ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (nl + 1) (String.length s - nl - 1));
      Some (String.sub s 0 nl)

(** A closed loop over [conns] connections: each sends its next request
    only after the previous reply arrived.  [next] returns [None] once the
    caller wants no more requests; the loop then drains what is in flight.
    A dropped connection, an unparseable line, a busy rejection, a failed
    compile or code that differs from the reference all count as failures. *)
let closed_loop ~socket ~conns ~next ~refs ~chk =
  let replies = ref [] in
  let open_conn () =
    match Client.connect socket with
    | Some fd -> Some { fd; buf = Buffer.create 8192; inflight = None }
    | None ->
        fail chk "cannot connect to %s" socket;
        None
  in
  let cs = ref (List.filter_map (fun _ -> open_conn ()) (List.init conns Fun.id)) in
  let drop c why =
    (match c.inflight with
    | Some (r, _) -> fail chk "request for %s: %s" r.kernel why
    | None -> ());
    Client.close c.fd;
    cs := List.filter (fun c' -> c' != c) !cs
  in
  let send_next c =
    match next () with
    | None -> ()
    | Some r -> (
        chk.attempted <- chk.attempted + 1;
        c.inflight <- Some (r, now ());
        match send_all c.fd r.line 0 with
        | () -> ()
        | exception Unix.Unix_error (e, _, _) -> drop c ("send: " ^ Unix.error_message e))
  in
  let answer c line =
    match c.inflight with
    | None -> fail chk "unsolicited response line"
    | Some (r, t0) -> (
        let ms = 1000.0 *. (now () -. t0) in
        c.inflight <- None;
        match Client.parse_response line with
        | Error msg -> fail chk "request for %s: %s" r.kernel msg
        | Ok resp ->
            let e = resp.Client.r_entry in
            if Client.is_busy resp then fail chk "request for %s: server-busy" r.kernel
            else if e.Manifest.e_status <> Manifest.Success then
              fail chk "request for %s: status %s" r.kernel
                (Manifest.status_name e.Manifest.e_status)
            else if e.Manifest.e_code <> List.assoc_opt r.kernel refs then
              fail chk "request for %s: code differs from the in-process code" r.kernel
            else replies := { ms; cached = resp.Client.r_cached } :: !replies)
  in
  List.iter send_next !cs;
  let busy () = List.filter (fun c -> c.inflight <> None) !cs in
  while busy () <> [] do
    match Unix.select (List.map (fun c -> c.fd) (busy ())) [] [] 5.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | ready, _, _ ->
        List.iter
          (fun c ->
            if List.memq c.fd ready then
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error (e, _, _) -> drop c (Unix.error_message e)
              | 0 -> drop c "connection closed by the daemon"
              | n -> (
                  Buffer.add_subbytes c.buf chunk 0 n;
                  match take_line c with
                  | Some line ->
                      answer c line;
                      send_next c
                  | None -> ()))
          (busy ())
  done;
  List.iter (fun c -> Client.close c.fd) !cs;
  List.rev !replies

let server_counters ~socket =
  match Client.stats ~socket with
  | Error _ -> []
  | Ok line -> (
      match Manifest.Json.parse line with
      | Ok j -> (
          match Manifest.Json.mem "stats" j with
          | Some s -> counters_of_stats_json s
          | None -> [])
      | Error _ -> [])

let start_daemon ~plutod ~tmp ~socket ~chk =
  let log = Filename.concat tmp "plutod.log" in
  let pid = spawn ~tmp ~stdout:log ~stderr:log plutod [ "--socket"; socket; "--jobs"; "2" ] in
  let deadline = now () +. 30.0 in
  let rec ready () =
    if Client.ping ~socket then true
    else if now () > deadline then false
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.sleepf 0.005;
          ready ()
      | _ -> false
  in
  if not (ready ()) then fail chk "plutod did not answer a ping";
  pid

let stop_daemon ~socket pid =
  ignore (Client.shutdown ~socket);
  let deadline = now () +. 30.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (wait pid)
    | _ -> forget pid
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> forget pid
  in
  reap ()

type daemon = {
  pid : int;
  socket : string;
  setup_s : float list;  (** spawn → ping → hot fill, per start-up *)
  before : (string * int) list;  (** server counters after the hot fill *)
  stream : unit -> request;
  mutable digest : string;  (** of the request lines sent by the loop *)
  mutable sent : int;
  mutable replies : reply list;
  mutable loop_s : float;
  mutable running : bool;
}

(** Start [plutod --jobs 2] [setups] times, each time until it answered a
    ping and compiled every kernel once (the hot fill), and keep the last
    one running. *)
let daemon_start ~plutod ~tmp ~options ~seed ~kernels ~refs ~setups ~chk =
  let socket = Filename.concat tmp "plutod.sock" in
  let hot_fill () =
    let pending = ref kernels in
    let next () =
      match !pending with
      | [] -> None
      | (k : Kernels.t) :: rest ->
          pending := rest;
          Some (request ~options k k.Kernels.source)
    in
    ignore (closed_loop ~socket ~conns:2 ~next ~refs ~chk)
  in
  let rec start i acc =
    let t0 = now () in
    let pid = start_daemon ~plutod ~tmp ~socket ~chk in
    hot_fill ();
    let acc = (now () -. t0) :: acc in
    if i + 1 < setups then begin
      stop_daemon ~socket pid;
      start (i + 1) acc
    end
    else (pid, List.rev acc)
  in
  let pid, setup_s = start 0 [] in
  { pid; socket; setup_s; before = server_counters ~socket;
    stream = request_stream ~seed ~options ~kernels; digest = Digest.string "";
    sent = 0; replies = []; loop_s = 0.0; running = true }

(** Run the closed loop over two connections for [seconds], or until the
    loop has sent [max_requests] in total. *)
let daemon_slice d ~refs ~chk ~seconds ~max_requests =
  let t0 = now () in
  let next () =
    if d.sent >= max_requests || now () -. t0 >= seconds then None
    else begin
      let r = d.stream () in
      d.sent <- d.sent + 1;
      d.digest <- Digest.string (d.digest ^ r.line);
      Some r
    end
  in
  let replies = closed_loop ~socket:d.socket ~conns:2 ~next ~refs ~chk in
  d.loop_s <- d.loop_s +. (now () -. t0);
  d.replies <- List.rev_append replies d.replies

(** Server counter deltas over the loop and plutod's peak RSS, read before
    the daemon is shut down. *)
let daemon_stop d =
  let after = server_counters ~socket:d.socket in
  let rss = peak_rss_mb d.pid in
  if d.running then stop_daemon ~socket:d.socket d.pid;
  d.running <- false;
  (List.map (fun (k, v) -> (k, v - get k d.before)) after, rss)
