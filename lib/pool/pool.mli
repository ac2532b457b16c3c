(** Reusable crash-isolated worker pool over [Unix.fork].

    Extracted from the autotuner and generalized so every layer that fans
    work out across processes — the tuner's candidate evaluations, the batch
    compilation driver, the compile daemon, tests — shares one pool with one
    failure story:

    - a worker that dies (signal, [_exit], OOM-kill) or writes a truncated
      payload yields a structured {!Diag.t} (code ["worker-crashed"]) after
      its retries are exhausted — never a parent exception;
    - crashed tasks are retried on fresh workers with exponential backoff
      (0.05 s, doubling per attempt);
    - a task still running past its wall-clock budget is SIGKILLed by the
      parent and yields code ["pool-timeout"].  No signal is delivered into
      the task: the budget is a backstop for a worker that stopped
      answering, while a compile that should finish in time degrades on its
      own {!Deadline};
    - an exception raised by the task function yields code
      ["worker-exception"] (deterministic failures are not retried);
    - an [EINTR]'d pipe read (real, or injected via {!Fault} site
      ["pool.read.eintr"]) is retried, never mistaken for end-of-stream;
    - the in-flight set is bounded by [jobs]; remaining work queues.

    Workers ship a {!Stats.snapshot} alongside their result and the parent
    merges it, so counters and timers ([--stats]) are accurate regardless of
    [jobs].  The sequential path ([jobs <= 1], no timeout) uses the same
    reset/merge accounting, so a task can read its own per-task counters in
    either mode and totals are mode-independent.

    Results are keyed by task index and returned in input order: scheduling
    cannot affect what the caller sees.  Task inputs and outputs cross the
    fork boundary via [Marshal], so both must be pure data (no closures, no
    custom blocks); keep payloads self-contained.

    Fault injection ({!Fault}): per spawn, the parent draws whether the
    child SIGKILLs itself (site ["pool.worker.kill"]) or truncates its
    result payload (["pool.payload.truncate"]); both exercise exactly the
    crash/retry machinery above.

    Counters: ["pool.tasks"], ["pool.spawned"], ["pool.crashes"],
    ["pool.retries"], ["pool.backoff_waits"], ["pool.timeouts"],
    ["pool.eintr_retries"]. *)

type 'r outcome = {
  value : ('r, Diag.t) result;
      (** the task's result, or the structured failure described above *)
  retried : bool;  (** at least one crashed attempt preceded this outcome *)
  elapsed_s : float;  (** wall-clock of the final attempt *)
}

(** [map ~jobs ?task_timeout_s ?retries ~f tasks] — run [f] on every task,
    at most [jobs] concurrently on forked workers.  With [task_timeout_s],
    a worker still running that many seconds after it started is killed;
    such a task always runs on a forked worker, even at [jobs <= 1], since
    only a worker can be killed.  Without it, [jobs <= 1] runs in-process.
    Crashed tasks are retried on a fresh worker up to [retries] times
    (default 1).  Outcomes are in input order.  {!map} drives the same
    handles as {!start}/{!pump}/{!kill}. *)
val map :
  jobs:int ->
  ?task_timeout_s:float ->
  ?retries:int ->
  f:('a -> 'r) ->
  'a list ->
  'r outcome list

(** {1 Single asynchronous tasks}

    The compile daemon multiplexes many in-flight compiles over [select];
    it needs workers it can start, poll, and kill individually.  A handle
    wraps exactly one forked worker running one task: the owner adds
    {!handle_fd} to its select set and calls {!pump} whenever it is
    readable.  There are no retries on this path — a crashed worker is
    reported as its ["worker-crashed"] outcome and the caller decides. *)

type 'r handle

(** [start ~f x] — fork one worker running [f x], with the same
    stats-shipping protocol and fault sites as {!map} workers.  The worker
    has no budget of its own: the handle's owner enforces one with
    {!kill}. *)
val start : f:('a -> 'r) -> 'a -> 'r handle

(** The worker's pipe, to select on; [None] once the task is done. *)
val handle_fd : 'r handle -> Unix.file_descr option

(** Read available payload bytes.  Returns [`Done outcome] after worker
    EOF (the worker is reaped and its stats delta merged, exactly like
    {!map}); further calls return the same outcome. *)
val pump : 'r handle -> [ `Pending | `Done of 'r outcome ]

(** SIGKILL the worker and reap it; the handle becomes [`Done] with a
    ["worker-crashed"] outcome.  No-op if already done.  The daemon uses it
    as the backstop behind each request's deadline. *)
val kill : 'r handle -> unit

(** {1 Signal-exit cleanup}

    Cleanup closures run when the process dies via SIGINT or SIGTERM — so
    temp directories ({!with_temp_dir}) and daemon socket files don't
    outlive their owner.  Handlers are installed lazily on first
    [register]; any previously installed handler is chained, otherwise the
    default disposition is restored and the signal re-raised, preserving
    the exit status.  The registry is per-process: forked children never
    run (or keep) their parent's cleanups. *)
module Cleanup : sig
  (** [register f] — run [f] on signal exit, until {!release}d.  Returns a
      token. *)
  val register : (unit -> unit) -> int

  val release : int -> unit
end

(** [with_temp_dir ?prefix f] — run [f dir] on a freshly created private
    temporary directory, removing it afterwards — including when the
    process dies via SIGINT/SIGTERM mid-[f] (see {!Cleanup}).  The
    directory is created atomically ([mkdir] with a fresh name, retried on
    [EEXIST]) — the mkdtemp discipline — so concurrent processes can never
    race a probe-then-create window. *)
val with_temp_dir : ?prefix:string -> (string -> 'a) -> 'a

(** [fresh_temp_dir ?prefix ()] — just the atomic creation; the caller owns
    cleanup. *)
val fresh_temp_dir : ?prefix:string -> unit -> string
