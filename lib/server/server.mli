(** Compilation-as-a-service: the [plutod] daemon core.

    A long-lived server that answers compile requests over a Unix-domain
    socket (and optionally TCP on localhost), amortizing everything a
    standalone [plutocc] pays per run: process startup, cold in-memory
    solver caches, and store round-trips.

    {2 Protocol}

    Newline-delimited JSON, one object per line in each direction.
    Requests carry an ["op"]:

    - [{"op": "compile", "name": f, "source": src, "options": {...},
        "strict": b, "verify": b, "deadline_s": s}] — compile [src].
      [options] uses the canonical encoding of {!Manifest.options_to_json};
      omitted fields (or the whole object) default to
      {!Driver.default_options}, and a wrongly typed, out-of-range or
      unknown field is answered with a [bad-request] entry
      ({!Manifest.options_of_json}).  The response is exactly a batch-manifest entry
      ({!Manifest.entry_to_json} — same encoder, so batch manifests and
      daemon responses can never drift) extended with ["code"] (the
      rendered C), ["cached"], ["coalesced"], and ["stats"] (the worker's
      per-request counter delta, fresh compiles only).
    - [{"op": "stats"}] — aggregate daemon observability: uptime, in-flight
      count, and the full {!Stats.to_json} tables (workers' deltas merged).
    - [{"op": "ping"}] — liveness probe, answered with [{"op": "pong"}].
    - [{"op": "shutdown"}] — begin a graceful drain, as if SIGTERMed.

    {2 Semantics}

    Each compile is one forked {!Pool} worker ({!Pool.start}), so a crash
    costs exactly that request.  A request's deadline (its ["deadline_s"],
    else [default_deadline_s]) is the compile's {!Deadline}: the worker
    gets what is left of it, and a compile still searching when it passes
    degrades to the original program order with a ["deadline"] warning.
    Only a worker still running {!Deadline.grace_s} past the deadline is
    killed and answered with ["pool-timeout"] (counter
    ["server.deadline_expired"]).  Requests are deduped
    by digest of (protocol version, canonical options, strict, verify,
    source): an identical request arriving while a compile is in flight
    joins it — one compile, every waiter answered from the single result
    (counter ["server.dedup_coalesced"]).  Finished results enter a
    {!Memo} table bounded by [result_cache_entries] and backed by the
    persistent {!Store} (kind ["server-result"], sub-versioned by
    {!protocol_version}), so a restarted daemon serves warm from disk.  A
    result that hit its deadline is never cached: it depends on timing, and
    the digest does not cover the deadline.
    Workers inherit the daemon's hot in-memory solver caches by fork and
    journal what they add ({!Memo.take_journal}); the daemon absorbs each
    delta, so the caches heat up monotonically across requests without
    ever marshaling whole tables.

    SIGTERM/SIGINT (or [{"op": "shutdown"}]) starts a graceful drain: stop
    accepting, finish and answer every accepted request, remove the socket
    file, return.  A second signal exits immediately (still removing the
    socket).  Fault sites ["server.accept"], ["server.read"],
    ["server.write"] let the chaos harness hit every socket boundary.

    {2 Bounded resources (DESIGN.md §15)}

    Every per-client and global resource has a configured cap, and
    overflow is answered, never absorbed:

    - [max_connections]: connections over the cap are accepted, answered
      with one structured [server-busy] entry, and closed.
    - [max_pipeline]: a connection with that many unanswered requests gets
      [server-busy] for further ones until responses drain.
    - [max_queue]: a compile that would queue a {e new} job (cache hits
      and coalesced joins are exempt) gets [server-busy] when the queue is
      full.
    - [max_request_bytes]: a newline-free request longer than this gets a
      [bad-request] entry and the connection enters a draining close.
    - [max_output_bytes]: a connection whose unread output exceeds this is
      excluded from the read set until it drains — real backpressure; the
      daemon's memory per slow reader stays bounded.
    - [solver_cache_entries]: entry budget for the absorbed [Milp] and
      [Polyhedra] hot caches ({!Memo.set_budget}); LRU eviction,
      counted by ["server.cache_evicted"].

    A [server-busy]/[bad-request] rejection is a normal Failed manifest
    entry whose diagnostic carries that code, so clients can fall back
    locally ({!Client.is_busy}).

    Counters: the ["server.*"] family documented in {!Stats}. *)

(** Version stamp of the wire protocol and of stored results.  Bump when
    the request digest inputs or the response encoding change: a restarted
    daemon then re-keys its store entries instead of serving skew. *)
val protocol_version : string

type config = {
  socket_path : string;
  tcp_port : int option;  (** also listen on 127.0.0.1:port *)
  jobs : int;  (** max concurrent compile workers *)
  default_deadline_s : float option;
      (** per-request wall-clock deadline when the request names none; the
          compile degrades when it passes, and a worker still running
          {!Deadline.grace_s} later is killed and answered with the
          structured ["pool-timeout"] diagnostic *)
  result_cache_entries : int;  (** in-memory result table capacity *)
  max_connections : int;
      (** connection cap (default 768 — [Unix.select] tops out at 1024
          descriptors); overflow gets one [server-busy] line and a close *)
  max_pipeline : int;  (** outstanding requests per connection *)
  max_queue : int;  (** queued (not yet running) compile jobs, globally *)
  max_request_bytes : int;
      (** upper bound on one request line (and thus on a connection's
          input buffer); longer is [bad-request] + close *)
  max_output_bytes : int;
      (** per-connection unread-output budget before the daemon stops
          reading from that connection (backpressure) *)
  solver_cache_entries : int option;
      (** entry budget for each absorbed solver-cache table; [None] keeps
          the library default (100k per table) *)
}

val default_config : socket_path:string -> config

(** Compute the dedup/result-cache digest of a request — exposed so tests
    and tools can predict cache keys. *)
val request_digest :
  options:Driver.options -> strict:bool -> verify:bool -> source:string ->
  string

(** Run the daemon until a graceful drain completes.  Binds the socket
    (replacing a stale socket file left by a dead daemon; refuses to start
    when a live daemon already listens — [Failure]), serves, and removes
    the socket file on every exit path, including SIGINT/SIGTERM. *)
val run : config -> unit
