(* See pool.mli.  The design target is crash isolation: a worker that dies,
   hangs past its budget, or writes a truncated payload must surface as a
   structured per-task error (and bounded retries), never as a parent
   exception.

   Protocol: each worker is a [Unix.fork] with a dedicated pipe.  The worker
   resets {!Stats}, runs the task, marshals [(result, stats snapshot)] up
   the pipe and hard-exits with [Unix._exit] (so the parent's buffered
   output is never flushed twice).  The parent drains every worker's pipe
   with [select] *before* reaping it — a payload larger than the pipe
   buffer (batch workers ship whole generated C files) would otherwise
   deadlock worker-write against parent-wait — and then parses the
   accumulated bytes with [Marshal.from_string], mapping any parse failure
   or abnormal exit to the structured crash path.  A worker past its
   per-task budget is SIGKILLed by the parent: no signal is ever delivered
   into the task itself.

   Crashed tasks are requeued with exponential backoff (0.05 s, doubling
   per attempt).

   Fault injection ({!Fault}): the parent decides per spawn whether the
   child should SIGKILL itself ("pool.worker.kill") or truncate its payload
   ("pool.payload.truncate") — decided parent-side so the per-site call
   index advances once per spawn and retries draw fresh decisions — and the
   pipe-read path can be hit with EINTR storms ("pool.read.eintr"), which
   are retried like real EINTRs. *)

type 'r outcome = {
  value : ('r, Diag.t) result;
  retried : bool;
  elapsed_s : float;
}

let timeout_diag s =
  Diag.errorf ~code:"pool-timeout"
    "worker task exceeded its %gs wall-clock budget; the worker was killed" s

let exn_diag msg = Diag.errorf ~code:"worker-exception" "worker task raised: %s" msg

let crash_diag ~attempts status =
  let how =
    match status with
    | Some (Unix.WEXITED n) -> Printf.sprintf "exited with code %d" n
    | Some (Unix.WSIGNALED s) -> Printf.sprintf "killed by signal %d" s
    | Some (Unix.WSTOPPED s) -> Printf.sprintf "stopped by signal %d" s
    | None -> "produced no parseable result"
  in
  Diag.errorf ~code:"worker-crashed"
    "worker %s without a complete result payload (%d attempt%s)" how attempts
    (if attempts = 1 then "" else "s")

(* ------------------------------ sequential ------------------------------- *)

(* jobs <= 1 without a timeout: run in-process, but with the same stats
   accounting as a forked worker (reset before the task, merge the delta
   after), so per-task counters read by [f] and the parent's totals are
   mode-independent. *)
let run_sequential ~f x =
  let parent = Stats.snapshot () in
  Stats.reset ();
  let restore () =
    let task = Stats.snapshot () in
    Stats.reset ();
    Stats.merge parent;
    Stats.merge task
  in
  let t0 = Unix.gettimeofday () in
  let value =
    match f x with
    | v -> Ok v
    | exception ((Out_of_memory | Sys.Break) as e) ->
        restore ();
        raise e
    | exception e -> Error (exn_diag (Printexc.to_string e))
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  restore ();
  { value; retried = false; elapsed_s }

(* --------------------------- signal-safe cleanup -------------------------- *)

(* A registry of cleanup closures run when the process dies via SIGINT or
   SIGTERM, so temp dirs and daemon sockets don't outlive their owner.
   Handlers are installed lazily on first registration; the previous
   handler (if any) is chained, otherwise the default disposition is
   restored and the signal re-raised so the exit status stays honest.
   Cleanups belong to the registering process only: a forked child that
   inherits the table must not delete its parent's resources, so both the
   handler and [register] compare the owner pid. *)
module Cleanup = struct
  let cleanups : (int, unit -> unit) Hashtbl.t = Hashtbl.create 8
  let next_id = ref 0
  let owner : int option ref = ref None
  let prev_int = ref Sys.Signal_default
  let prev_term = ref Sys.Signal_default

  let run_all () =
    Hashtbl.iter (fun _ f -> try f () with _ -> ()) cleanups;
    Hashtbl.reset cleanups

  let handler prev signum =
    if !owner = Some (Unix.getpid ()) then run_all ();
    match !prev with
    | Sys.Signal_handle f -> f signum
    | _ ->
        Sys.set_signal signum Sys.Signal_default;
        Unix.kill (Unix.getpid ()) signum

  let mine_int : Sys.signal_behavior option ref = ref None
  let mine_term : Sys.signal_behavior option ref = ref None

  let install () =
    owner := Some (Unix.getpid ());
    let inst signum prev mine =
      let h = Sys.Signal_handle (handler prev) in
      let old = Sys.signal signum h in
      (* After a fork the displaced disposition may be this module's own
         handler inherited from the parent process: chaining to it would
         recurse forever, and the parent's cleanups are not ours to run —
         treat it as default so the re-kill terminates the process. *)
      prev :=
        (match (!mine, old) with
        | Some (Sys.Signal_handle m), Sys.Signal_handle o when m == o ->
            Sys.Signal_default
        | _ -> old);
      mine := Some h
    in
    inst Sys.sigint prev_int mine_int;
    inst Sys.sigterm prev_term mine_term

  let register f =
    (* first registration in this process (post-fork included): claim the
       registry — inherited entries belong to the parent, drop them here *)
    if !owner <> Some (Unix.getpid ()) then begin
      Hashtbl.reset cleanups;
      install ()
    end;
    incr next_id;
    Hashtbl.replace cleanups !next_id f;
    !next_id

  let release id = Hashtbl.remove cleanups id
end

(* ------------------------------ worker handles ---------------------------- *)

(* A handle wraps one forked worker: the daemon's event loop drives single
   handles through [pump]/[kill], and [map] below is a loop over them. *)
type 'r handle = {
  h_pid : int;
  h_fd : Unix.file_descr;
  h_buf : Buffer.t;
  h_t0 : float;
  h_attempt : int;  (* 1 for a first attempt *)
  mutable h_done : 'r outcome option;
  mutable h_crashed : bool;  (* [h_done] is a crash, which [map] retries *)
}

let spawn ~attempt ~f x =
  let r, w = Unix.pipe ~cloexec:false () in
  (* fault decisions are drawn in the parent, one per spawn, so a retry of
     a killed worker is a fresh draw rather than a guaranteed repeat *)
  let kill_child = Fault.fire "pool.worker.kill" in
  let truncate_payload = Fault.fire "pool.payload.truncate" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* worker *)
      Unix.close r;
      (* don't inherit the parent's termination handlers (daemon drain,
         cleanup registry): a signaled worker should just die *)
      Sys.set_signal Sys.sigint Sys.Signal_default;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Stats.reset ();
      if kill_child then Unix.kill (Unix.getpid ()) Sys.sigkill;
      let res =
        match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      (try
         let payload = Marshal.to_string (res, Stats.snapshot ()) [] in
         let payload =
           if truncate_payload then
             String.sub payload 0 (String.length payload / 2)
           else payload
         in
         let oc = Unix.out_channel_of_descr w in
         output_string oc payload;
         flush oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close w;
      Stats.incr "pool.spawned";
      {
        h_pid = pid;
        h_fd = r;
        h_buf = Buffer.create 4096;
        h_t0 = Unix.gettimeofday ();
        h_attempt = attempt;
        h_done = None;
        h_crashed = false;
      }

let start ~f x =
  Stats.incr "pool.tasks";
  spawn ~attempt:1 ~f x

let handle_fd h = if h.h_done = None then Some h.h_fd else None

let reap pid =
  match Unix.waitpid [] pid with
  | _, st -> Some st
  | exception Unix.Unix_error _ -> None

let finish h ?(crashed = false) value =
  let o =
    { value; retried = h.h_attempt > 1; elapsed_s = Unix.gettimeofday () -. h.h_t0 }
  in
  h.h_done <- Some o;
  h.h_crashed <- crashed;
  o

(* EINTR (real or injected) is a retry, never end-of-stream; any other read
   error means the payload can't complete — treat it as EOF so the
   truncated-payload crash path takes over. *)
let rec read_pipe fd chunk =
  if Fault.fire "pool.read.eintr" then begin
    Stats.incr "pool.eintr_retries";
    read_pipe fd chunk
  end
  else
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        Stats.incr "pool.eintr_retries";
        read_pipe fd chunk
    | exception Unix.Unix_error _ -> 0

let pump h =
  match h.h_done with
  | Some o -> `Done o
  | None ->
      (* a fresh buffer per read: its allocation also paces the daemon's
         major GC, which a shared buffer leaves idle long enough to raise
         the daemon's peak RSS by about a tenth *)
      let chunk = Bytes.create 65536 in
      let n = read_pipe h.h_fd chunk in
      if n > 0 then begin
        Buffer.add_subbytes h.h_buf chunk 0 n;
        `Pending
      end
      else begin
        (* EOF: the worker exited (or crashed); reap and parse *)
        Unix.close h.h_fd;
        let status = reap h.h_pid in
        match
          (Marshal.from_string (Buffer.contents h.h_buf) 0
            : ('r, string) result * Stats.snapshot)
        with
        | res, snap ->
            Stats.merge snap;
            `Done (finish h (Result.map_error exn_diag res))
        | exception _ ->
            Stats.incr "pool.crashes";
            `Done
              (finish h ~crashed:true
                 (Error (crash_diag ~attempts:h.h_attempt status)))
      end

(* SIGKILL and reap a running worker; its exit status. *)
let terminate h =
  (try Unix.kill h.h_pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close h.h_fd with Unix.Unix_error _ -> ());
  reap h.h_pid

let kill h =
  if h.h_done = None then
    ignore (finish h (Error (crash_diag ~attempts:h.h_attempt (terminate h))))

(* ------------------------------- fork pool ------------------------------- *)

let backoff_base_s = 0.05

let map ~jobs ?task_timeout_s ?(retries = 1) ~f tasks =
  Stats.add "pool.tasks" (List.length tasks);
  if jobs <= 1 && task_timeout_s = None then List.map (run_sequential ~f) tasks
  else begin
    (* only a forked worker can be killed, so a timeout always forks *)
    let jobs = max 1 jobs in
    let tasks = Array.of_list tasks in
    let results = Array.make (Array.length tasks) None in
    (* (index, attempts spent, earliest start) *)
    let pending = ref (List.init (Array.length tasks) (fun i -> (i, 0, 0.0))) in
    let running = ref [] in
    let kill_at (_, h) = Option.map (fun s -> h.h_t0 +. s) task_timeout_s in
    let settle ((i, h) as w) o =
      running := List.filter (fun w' -> w' != w) !running;
      if h.h_crashed && h.h_attempt <= retries then begin
        (* a crashed worker is retried on a fresh one, backed off *)
        Stats.incr "pool.retries";
        Stats.incr "pool.backoff_waits";
        let backoff = backoff_base_s *. (2.0 ** float_of_int (h.h_attempt - 1)) in
        pending := (i, h.h_attempt, Unix.gettimeofday () +. backoff) :: !pending
      end
      else results.(i) <- Some o
    in
    while !pending <> [] || !running <> [] do
      let now = Unix.gettimeofday () in
      let due, waiting = List.partition (fun (_, _, at) -> at <= now) !pending in
      (* oldest attempts first, in index order, for deterministic spawning *)
      let rec launch = function
        | (i, spent, _) :: rest when List.length !running < jobs ->
            running := (i, spawn ~attempt:(spent + 1) ~f tasks.(i)) :: !running;
            launch rest
        | rest -> rest
      in
      pending :=
        launch (List.sort (fun (i, _, a) (j, _, b) -> compare (a, i) (b, j)) due)
        @ waiting;
      (* the hard backstop: a worker past its budget is killed *)
      Option.iter
        (fun s ->
          List.iter
            (fun ((_, h) as w) ->
              if now >= h.h_t0 +. s then begin
                Stats.incr "pool.timeouts";
                ignore (terminate h);
                settle w (finish h (Error (timeout_diag s)))
              end)
            !running)
        task_timeout_s;
      let wake =
        List.fold_left Float.min infinity
          (List.map (fun (_, _, at) -> at) waiting
          @ List.filter_map kill_at !running)
      in
      let timeout =
        if wake = infinity then -1.0 else Float.max 0.001 (wake -. now)
      in
      let fds = List.map (fun (_, h) -> h.h_fd) !running in
      if fds = [] then (if timeout > 0.0 then Unix.sleepf timeout)
      else
        match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
            List.iter
              (fun fd ->
                let w = List.find (fun (_, h) -> h.h_fd = fd) !running in
                match pump (snd w) with `Pending -> () | `Done o -> settle w o)
              ready
    done;
    Array.to_list (Array.map Option.get results)
  end

(* --------------------------- temp directories ---------------------------- *)

(* mkdtemp-style: create a fresh directory directly and atomically (mkdir
   fails with EEXIST instead of racing a name probe), retrying with a new
   name on collision.  This replaces the temp_file/remove/mkdir dance whose
   TOCTOU window let concurrent batch/tune runs collide. *)
let temp_counter = ref 0

let fresh_temp_dir ?(prefix = "pluto") () =
  let base = Filename.get_temp_dir_name () in
  let rec create tries =
    if tries > 1000 then
      failwith "Pool.fresh_temp_dir: cannot create a fresh temporary directory"
    else begin
      incr temp_counter;
      let name =
        Printf.sprintf "%s.%d.%d.%06x" prefix (Unix.getpid ()) !temp_counter
          (Hashtbl.hash (Unix.gettimeofday (), !temp_counter) land 0xFFFFFF)
      in
      let dir = Filename.concat base name in
      match Unix.mkdir dir 0o700 with
      | () -> dir
      | exception Unix.Unix_error ((Unix.EEXIST | Unix.EINTR), _, _) ->
          create (tries + 1)
    end
  in
  create 0

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let with_temp_dir ?prefix f =
  let dir = fresh_temp_dir ?prefix () in
  (* registered for signal exit too: a SIGINT/SIGTERM mid-[f] must not leak
     the directory (Fun.protect only covers normal return and exceptions) *)
  let id = Cleanup.register (fun () -> rm_rf dir) in
  Fun.protect
    ~finally:(fun () ->
      Cleanup.release id;
      rm_rf dir)
    (fun () -> f dir)
