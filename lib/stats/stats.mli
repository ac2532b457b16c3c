(** Global pass/solver counters and timers — cheap observability for the
    whole pipeline.

    Layers bump named counters ({!incr}, {!add}) and wrap phases in {!time};
    the CLI renders everything as JSON ([plutocc --stats]) and the autotuner
    folds the numbers into its search report.  Counters are process-global
    and monotonic between {!reset}s; all operations are O(1) hashtable
    updates, so leaving the hooks enabled costs nothing measurable next to
    the ILP solves they count.

    Established keys (grep for callers before renaming):
    - ["milp.solves"], ["milp.bb_nodes"] — ILP calls / branch-and-bound nodes;
    - ["milp.pivots"] — simplex pivots (primal and dual);
    - ["milp.cold_builds"] — simplex dictionaries built from scratch;
    - ["milp.warm_starts"] — branch-and-bound nodes and lexmin coordinates
      served by re-optimizing an inherited dictionary;
    - ["milp.dual_stalls"] — warm dictionaries abandoned after the
      dual-simplex pivot cap (fell back to a cold solve);
    - ["milp.feasible_cache_hits"] / ["milp.feasible_cache_misses"] — memoized
      integer-feasibility probes;
    - ["milp.lp_cache_hits"] / ["milp.lp_cache_misses"] — memoized rational
      LP calls;
    - ["milp.cache_evictions"] — entries LRU-evicted from the in-memory
      LP/feasibility {!Memo} tables past the {!Memo.set_budget} entry
      budget;
    - ["poly.empty_cache_hits"] / ["poly.empty_cache_misses"] — memoized
      emptiness tests on canonicalized systems;
    - ["poly.cache_evictions"] — the same eviction counter for the
      emptiness {!Memo} table;
    - ["fm.eliminations"], ["fm.rows_eliminated"] — Fourier–Motzkin steps and
      the rows they removed;
    - ["machine.simulations"], ["machine.l1_misses"], ["machine.l2_misses"],
      ["machine.mem_accesses"] — performance-model cache events;
    - ["tune.evaluated"], ["tune.cache_hits"], ["tune.pruned"] — autotuner;
      cache hits are evaluations read back from the store (kind
      ["tune-eval"]) — the tuner computes in batches on the fork pool, so
      it skips {!Memo}'s in-memory layer;
    - ["pool.tasks"], ["pool.spawned"], ["pool.crashes"], ["pool.retries"],
      ["pool.timeouts"], ["pool.backoff_waits"], ["pool.eintr_retries"] —
      the shared fork worker pool ([lib/pool]; spawned counts forked
      workers only, so it is the one family of counters that legitimately
      differs between [--jobs 1] and [--jobs N]; backoff_waits counts
      retries that waited out an exponential-backoff delay, eintr_retries
      counts interrupted pipe reads that were resumed);
    - ["store.hits"] / ["store.misses"] / ["store.writes"] /
      ["store.evictions"] — the persistent on-disk solver store
      ([--cache-dir]; an eviction is a corrupt or version-skewed entry
      deleted and recomputed);
    - ["store.write_failures"] — publishes abandoned because an I/O step
      failed (the tmp file is cleaned up and the result simply not cached);
    - ["store.lru_evictions"] — entries removed to fit the [--cache-size]
      byte budget; ["store.gc_orphans"] — files collected by {!Store.gc}
      (orphaned tmps from crashed writers, stale lock and legacy files);
    - ["fastpath.attempts"] / ["fastpath.accepts"] / ["fastpath.rejects"] —
      the fast fusion/dimension-matching scheduling rung ([--fast-schedule],
      the default): attempts counts entries into the rung, accepts counts
      translation-validated schedules actually used, rejects counts clean
      fall-throughs to the exact ILP (matcher give-up, unprofitable band
      shape, validation failure, or crash — every reject is also a
      ["fastpath-rejected"] warning);
    - ["fastpath.ilp_avoided"] — a lower-bound estimate of the ILP solves
      an accept saved: one hyperplane-lexmin solve per loop level of the
      accepted schedule (the exact search solves at least that many);
    - ["fault.injected"] and per-site ["fault.<site>"] — faults fired by
      the deterministic injection harness ([lib/fault], [PLUTO_FAULT_*]);
      always 0 unless a fault config is installed;
    - ["server.connections"] / ["server.requests"] — the compile daemon
      ([plutod], [lib/server]): accepted client connections and protocol
      lines received (every op, well-formed or not);
    - ["server.compiles"] — compile jobs actually dispatched onto a forked
      worker (a request answered from a cache, the store, or an in-flight
      duplicate does not count);
    - ["server.dedup_coalesced"] — requests that joined an identical
      in-flight compile instead of starting their own (N clients sending
      the same program+options while it compiles → 1 compile, N−1
      coalesced);
    - ["server.result_cache_hits"] / ["server.result_cache_misses"] — the
      daemon's in-memory {!Memo} table of finished compile results, keyed
      by the request digest; misses then consult the persistent store
      (["server.result_store_hits"] when that saves the compile);
    - ["server.cache_absorbed"] — in-memory solver-cache entries journaled
      by workers and replayed into the daemon's hot tables
      ({!Memo.absorb});
    - ["server.failures"] — compile requests answered with status
      ["error"] (the backstop kills below included);
    - ["server.deadline_expired"] — backstop kills: requests whose worker
      was still running {!Deadline.grace_s} past the per-request deadline
      (a compile that merely runs out of time degrades instead, so this
      stays 0 while every compile reaches its deadline checks);
    - ["server.busy_rejections"] — requests (or whole connections, over
      [--max-connections]) answered with the structured ["server-busy"]
      entry at admission: pipeline window full ([--max-pipeline]) or
      job queue full ([--max-queue]); clients fall back to local
      compilation ({!Client.is_busy});
    - ["server.bad_requests"] — protocol lines answered with the
      structured ["bad-request"] entry (unparseable JSON, unknown op,
      missing source, or a request line over [--max-request-bytes] —
      the last also closes the connection);
    - ["server.slow_reader_stalls"] — connections taken out of the read
      set because their unread responses exceeded [--max-output-bytes]
      (re-admitted once the client drains; counts stall transitions,
      not polls);
    - ["server.cache_evicted"] — solver-cache entries evicted while
      absorbing worker journals under [--solver-cache-entries] (the
      absorption-side aggregate of ["milp.cache_evictions"] +
      ["poly.cache_evictions"]);
    - ["server.jobs_abandoned"] — queued compile jobs dropped unstarted
      because every waiting client had already disconnected;
    - ["server.crashes"] — unexpected event-loop exceptions caught by
      the daemon's last-resort guard (the offending connection is
      closed, the daemon survives; 0 in every healthy run — the load
      suite enforces it);
    - timers ["pass.deps"], ["pass.transform"], ["pass.codegen"] (wall
      clock, see {!time}). *)

(** Forget all counters and timers (tests and the tuner's workers use this to
    scope measurements). *)
val reset : unit -> unit

(** [incr k] — add 1 to counter [k] (created at 0 on first use). *)
val incr : string -> unit

(** [add k n] — add [n] to counter [k]. *)
val add : string -> int -> unit

(** [time k f] — run [f ()], adding its wall-clock duration (seconds of
    [Unix.gettimeofday], the clock {!Deadline} runs on) to timer [k] and
    bumping its call count.  Exceptions propagate; the time still gets
    recorded. *)
val time : string -> (unit -> 'a) -> 'a

val counter : string -> int

(** All counters, sorted by name. *)
val counters : unit -> (string * int) list

(** {2 Cross-process aggregation}

    A {!snapshot} is plain marshalable data.  The worker-pool protocol is:
    the forked worker calls {!reset} first (dropping the counters inherited
    from the parent's address space), runs its task, ships [snapshot ()]
    with the result, and the parent {!merge}s it — so [--stats] totals are
    identical whether a task ran in-process or on a forked worker. *)

type snapshot

(** Capture every counter and timer as a marshalable value. *)
val snapshot : unit -> snapshot

(** Add a snapshot's counters and timers into the live tables. *)
val merge : snapshot -> unit

(** Read one counter out of a snapshot (0 when absent). *)
val snapshot_counter : snapshot -> string -> int

(** All counters of a snapshot, sorted by name (the daemon uses this to
    embed a worker's per-request delta in its response). *)
val snapshot_counters : snapshot -> (string * int) list

(** All timers, sorted by name: (name, total seconds, calls). *)
val timers : unit -> (string * float * int) list

(** Everything as one JSON object:
    [{"counters": {...}, "timers": {"k": {"seconds": s, "calls": n}}}]. *)
val to_json : unit -> string
