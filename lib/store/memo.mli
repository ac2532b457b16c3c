(** One memo table for every in-memory cache: the emptiness cache of
    {!Polyhedra}, the LP and integer-feasibility caches of {!Milp}, and the
    compile daemon's result cache.

    A table maps digest keys to values of one type and owns the whole
    caching policy:

    - {b Lookup order.}  Memory first, then the persistent {!Store} (under
      the table's [kind], and [version] when given), then the compute
      function.  A store hit or a fresh answer is installed in memory; a
      fresh answer is also written back to the store.
    - {b Failures are never cached.}  When the compute function raises, the
      exception propagates and nothing is recorded: no memory entry, no
      store entry, no journal entry.  A later lookup computes again.
    - {b Trim policy.}  Every entry carries a recency tick, bumped on each
      hit.  An insert that takes the table past its entry budget evicts the
      least-recently-used entries down to [budget - budget/8], so the
      O(n log n) trim runs once per [budget/8] inserts, not on every one.
    - {b Counters.}  Each table bumps the {!Stats} counters it was created
      with: memory [hits] and [misses], the optional [store_hits] (a memory
      miss the store answered), and the optional [evictions].

    Side effects of one install happen in a fixed order: replace the
    entry, trim, then journal it.

    {2 The solver pool}

    A table created without [~budget] joins the solver pool: the hot
    caches a compile daemon keeps across forked workers.  Pool tables share
    one entry budget ({!set_budget}, per table), are counted by
    {!entry_count}, and record what they install in the journal while
    journaling is on.  A worker takes the journal ({!take_journal}), ships
    it to its parent as plain data (no closures; values are not
    re-marshaled), and the parent replays it with {!absorb}.

    Pool tables are registered by [kind], and a journal entry is replayed
    into the table of the same kind at that table's value type, so each
    kind must name exactly one table — the same rule {!Store} has. *)

type 'v t

(** [create ~kind ~hits ~misses ()] — an empty table whose store entries
    live under [kind] (and [version], via {!Store.read_versioned}).
    [~budget] gives the table a private entry budget and keeps it out of
    the solver pool.
    @raise Invalid_argument when a pool table of the same [kind] exists. *)
val create :
  ?version:string ->
  ?budget:int ->
  ?store_hits:string ->
  ?evictions:string ->
  kind:string ->
  hits:string ->
  misses:string ->
  unit ->
  'v t

(** [lookup t key compute] — the value for [key] from memory, the store,
    or [compute ()], in that order (see the lookup rules above). *)
val lookup : 'v t -> string -> (unit -> 'v) -> 'v

(** [find t key] — the memory and store steps of {!lookup}, for callers
    whose compute is asynchronous (the daemon's forked compiles). *)
val find : 'v t -> string -> 'v option

(** [add t key v] — write [v] to the store and install it in memory: the
    last step of {!lookup}. *)
val add : 'v t -> string -> 'v -> unit

(** Drop every memory entry (the store is untouched). *)
val clear : 'v t -> unit

(** Live memory entries. *)
val length : 'v t -> int

(** {2 The solver pool} *)

(** [set_budget n] caps {e each} pool table at [n] entries (clamped to at
    least 16; default 100_000). *)
val set_budget : int -> unit

(** Live entries across every pool table. *)
val entry_count : unit -> int

type journal

(** [set_journal on] turns journaling of pool installs on or off and
    empties the journal. *)
val set_journal : bool -> unit

(** The entries journaled since journaling was turned on (or the last
    take); empties the journal. *)
val take_journal : unit -> journal

val journal_length : journal -> int

(** Replay a journal into the pool tables: existing keys win, then every
    pool table is trimmed once.  Returns how many entries that trim
    evicted. *)
val absorb : journal -> int
