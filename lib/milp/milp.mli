(** Exact linear and integer linear programming.

    This module replaces PipLib in the original Pluto tool-chain.  It provides
    an exact rational primal simplex (two-phase, Bland's anti-cycling rule), a
    branch-and-bound integer solver on top of it, and the lexicographic
    minimization used to pick transformation coefficients (eq. (5) of the
    paper).

    Variables are free by default; with [~nonneg:true] they are constrained to
    be non-negative (Pluto's coefficient search uses this, per §4.2 of the
    paper).  Branch-and-bound terminates only on polyhedra whose integer
    optimum is attained in a bounded region; callers are expected to supply
    bounding constraints (the Pluto search bounds coefficients, the dependence
    tester fixes structure parameters).

    {2 Warm-started solving}

    By default the solver is incremental: a branch-and-bound child inherits
    its parent's optimal simplex dictionary, appends the one new bound row
    and repairs feasibility with dual-simplex pivots, and {!lexmin_order}
    fixes coordinates on one living dictionary instead of solving [n]
    independent ILPs.  Warm and cold starts return the same optimal values
    (exact arithmetic; the LP/ILP optimum is path-independent), though
    witness points of degenerate optima may differ within the optimal class.
    [set_warm false] — or [~warm:false] per call — forces the historical
    cold-start behaviour; the property tests use it as the reference oracle.

    Observability counters (see {!Stats}): [milp.solves], [milp.bb_nodes],
    [milp.pivots], [milp.cold_builds], [milp.warm_starts],
    [milp.dual_stalls], [milp.feasible_cache_hits]/[..._misses]. *)

(** Result of rational linear programming. *)
type lp_result =
  | Lp_optimal of Q.t * Q.t array  (** optimal value and a minimizing point *)
  | Lp_infeasible
  | Lp_unbounded

(** [lp ?nonneg sys obj] minimizes [obj·x] over the rational points of [sys].
    [obj] has length [sys.nvars].  Memoized on (system digest, objective)
    unless [set_warm false]; with the persistent {!Store} enabled
    ([--cache-dir]) memoized answers additionally survive across processes.
    Codegen's LP-redundancy pruning ({!Codegen.prune_lp}) issues all its
    probes through here, so code generation shares both caches. *)
val lp : ?nonneg:bool -> Polyhedra.t -> Q.t array -> lp_result

(** Result of integer linear programming. *)
type ilp_result =
  | Ilp_optimal of Bigint.t * Bigint.t array
  | Ilp_infeasible
  | Ilp_unbounded

(** Resource budget for branch-and-bound: a node-count limit.  When
    exhausted the solver raises [Diag.Budget_exceeded] instead of running
    unboundedly — callers at layer boundaries catch it and degrade
    (conservative answer or a lower rung of the scheduling ladder).  Time is
    not part of the budget: every node calls {!Deadline.check}, so a solve
    inside {!Deadline.within} stops with [Deadline.Expired] once the
    caller's deadline has passed. *)
type budget = { max_nodes : int }

(** 200_000 nodes. *)
val default_budget : budget

(** [set_warm false] disables warm starts globally (every node re-solves
    cold and {!feasible_cached} stops caching); [true] restores the default.
    Benchmarks use it to measure the cold path. *)
val set_warm : bool -> unit

(** [ilp ?nonneg ?budget ?warm sys obj] minimizes the integer objective
    [obj·x] over the integer points of [sys].  [warm] overrides the global
    {!set_warm} toggle for this call.
    @raise Diag.Budget_exceeded when the branch-and-bound tree exceeds the
    budget's node limit.
    @raise Deadline.Expired past the enclosing {!Deadline.within}. *)
val ilp :
  ?nonneg:bool -> ?budget:budget -> ?warm:bool -> Polyhedra.t -> Vec.t ->
  ilp_result

(** [feasible ?nonneg sys] decides whether [sys] contains an integer point and
    returns a witness.
    @raise Diag.Budget_exceeded like {!ilp}. *)
val feasible :
  ?nonneg:bool -> ?budget:budget -> ?warm:bool -> Polyhedra.t ->
  Bigint.t array option

(** [feasible_cached ?nonneg sys] is {!feasible} memoized on the canonical
    form of [sys] (integer tightening — sound only when every variable is
    integral, which holds for all dependence systems).  Budget overruns
    propagate uncached; with [set_warm false] the cache is bypassed.  With
    the persistent {!Store} enabled ([--cache-dir]), in-memory misses
    consult and populate the on-disk store, so feasibility answers survive
    across processes. *)
val feasible_cached :
  ?nonneg:bool -> ?budget:budget -> Polyhedra.t -> Bigint.t array option

(** Drop all memoized LP and feasibility results.  Both caches are
    solver-pool {!Memo} tables (store kinds ["milp-lp"] and
    ["milp-feasible"], eviction counter [milp.cache_evictions]), so they
    obey {!Memo.set_budget} and the daemon's journal. *)
val clear_caches : unit -> unit

(** [lexmin ?nonneg sys] is the lexicographically smallest integer point of
    [sys] (minimizing variable 0 first, then variable 1, ...), or [None] if
    empty.
    @raise Diag.Diagnostic with code ["unbounded"] if some coordinate is
    unbounded below.
    @raise Diag.Budget_exceeded like {!ilp}. *)
val lexmin :
  ?nonneg:bool -> ?budget:budget -> ?warm:bool -> Polyhedra.t ->
  Bigint.t array option

(** [lexmin_order ?nonneg sys order] generalizes {!lexmin} to an explicit
    priority order over a subset of the variables; variables not listed are
    left unoptimized (any feasible value). *)
val lexmin_order :
  ?nonneg:bool -> ?budget:budget -> ?warm:bool -> Polyhedra.t -> int list ->
  Bigint.t array option
