(** Sharded, self-healing persistent cache store for the solver substrate.

    The in-memory {!Memo} tables (the solver caches of {!Polyhedra} and
    {!Milp}, the daemon's result cache) die with the process; they read
    through to this store, so their answers survive across processes —
    repeated [plutocc] runs, the batch driver's forked workers, CI reruns —
    and a warm rerun answers repeated integer-emptiness/feasibility/LP
    probes from disk instead of re-solving.  The autotuner's candidate
    evaluations live here too (kind ["tune-eval"]).

    {2 Layout}

    Entries live in 256 hash-prefix shard subdirectories
    ([DIR/ab/kind-<digest>.store], [ab] = first two hex digits of the
    digest), so a hot store never piles hundreds of thousands of files into
    one directory.  An entry file is [MD5(payload) ^ payload] where the
    payload marshals [(version-stamp, full key, value)]; the checksum, the
    stamp and the un-hashed key are all verified on read, so bit rot, a
    torn read, a version skew or a digest collision is detected, counted as
    an eviction, deleted and reported as a miss — corruption can never
    produce a wrong answer, only wasted work.

    {2 Crash safety}

    Publishing an entry is write-to-private-tmp → [fsync] → [rename]: a
    reader can never observe a partial entry.  Every failure path deletes
    the tmp file (counted in ["store.write_failures"]); a writer that dies
    mid-publish leaves an orphaned [.tmp] which the startup/on-demand
    garbage collector ({!gc}, run automatically by {!set_dir}) removes once
    it is old enough to be provably dead.  Concurrent writers race
    benignly — last rename wins, and every racer wrote the same value
    because entries are pure functions of their key.

    {2 Eviction}

    With a byte budget ({!set_budget}; [plutocc --cache-size]) the store
    evicts least-recently-used entries whenever its footprint exceeds the
    budget.  Recency is tracked by an atime-style sidecar touch file per
    entry (bumped on every hit — entry files themselves are immutable), and
    eviction runs under an on-disk lock with stale-lock takeover, so any
    number of concurrent processes can share one budgeted cache directory.

    Counters (see {!Stats}): ["store.hits"], ["store.misses"],
    ["store.writes"], ["store.write_failures"], ["store.evictions"]
    (corrupt/stale entries dropped on read), ["store.lru_evictions"]
    (budget), ["store.gc_orphans"] (tmp/touch/legacy files collected).

    Fault injection ({!Fault}) is threaded through every syscall boundary
    in this module (sites ["store.read.*"], ["store.write.*"]); the chaos
    suite drives compilations through hundreds of seeded fault schedules
    and asserts that none of them can change an answer.

    The store is process-global and disabled by default; [plutocc
    --cache-dir DIR] enables it.  Callers must use distinct [kind] strings
    per value type: the type of the marshaled value is trusted only because
    (version, kind, key) triples are written by exactly one call site. *)

(** Substrate version stamp baked into every entry.  Bump it whenever the
    semantics of any cached value changes (canonical form, solver behaviour,
    value representation): old entries then read as misses. *)
val version : string

(** [set_dir (Some dir)] enables the store (the directory is created on
    first write) and runs a startup {!gc}; [set_dir None] disables it. *)
val set_dir : string option -> unit

val dir : unit -> string option
val enabled : unit -> bool

(** [set_budget (Some bytes)] caps the store's on-disk footprint: writes
    trigger LRU eviction down to the budget (checked every
    [~budget/8] written bytes, and exactly by {!evict_to_budget}).
    [set_budget None] disables eviction. *)
val set_budget : int option -> unit

val budget : unit -> int option

(** [read ~kind ~key] — the stored value, or [None] on any miss (disabled
    store, absent entry, checksum/version/key mismatch, I/O error).  A hit
    refreshes the entry's LRU touch file.  The value type is whatever
    [write] stored under this [kind]; each [kind] must be used at a single
    monomorphic type. *)
val read : kind:string -> key:string -> 'a option

(** [write ~kind ~key v] — persist [v] crash-safely (best-effort: an I/O
    failure deletes the tmp file, counts ["store.write_failures"] and
    degrades to a pure in-memory run). *)
val write : kind:string -> key:string -> 'a -> unit

(** Like {!read}/{!write}, but with a per-kind sub-version appended to the
    entry stamp (["...:kind@version"]): entries written under a different
    sub-version (or none) verify as stamp mismatches — evicted and reported
    as misses — so a call site can re-key all of its entries (e.g. the fast
    scheduler bumping its matcher version, [Pluto.Fastmatch.version])
    without a global store flag day. *)
val read_versioned : version:string -> kind:string -> key:string -> 'a option

val write_versioned :
  version:string -> kind:string -> key:string -> 'a -> unit

(** [gc ?max_tmp_age_s ()] — remove orphaned [.tmp] files older than
    [max_tmp_age_s] seconds (default 600: a live writer's tmp is seconds
    old, a crashed writer's is forever), touch files whose entry is gone,
    and legacy pre-shard entries at the store root.  Safe to run
    concurrently with readers and writers. *)
val gc : ?max_tmp_age_s:float -> unit -> unit

(** Run LRU eviction now, bringing the footprint under the budget (no-op
    without a directory or budget).  Batch runs call this once at the end
    so a manifest is never published over budget. *)
val evict_to_budget : unit -> unit

(** Total size in bytes of all entry files currently in the store (0 when
    disabled).  Touch files and tmps are not counted — the budget governs
    payload bytes. *)
val usage_bytes : unit -> int
