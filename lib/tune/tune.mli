(** Model-guided empirical autotuner for tile sizes and transform options.

    The paper fixes tile sizes by a rough cache model and names empirical
    tile-size search as future work (§6.3).  This subsystem performs that
    search safely and reproducibly, using the two ingredients the original
    tool lacked: a deterministic cost oracle (the {!Machine} performance
    simulator) and a verified compile pipeline
    ({!Driver.compile_robust}[ ~verify:true] — every candidate's output is
    re-proved legal by the independent translation validator before its cost
    is trusted).

    A search:

    + enumerates a structured candidate space — per-band tile sizes (powers
      of two and rectangular mixes), tile/no-tile, fusion choice (RAR
      dependences in the cost function, which decides e.g. the MVT fusion of
      §7), and an unroll-jam factor for the innermost parallel loop;
    + prunes candidates whose tile data footprint provably exceeds the
      modeled cache;
    + draws the evaluation order and any budget-driven subsampling from one
      pinned {!Random.State.t} (the [PLUTO_FUZZ_SEED] protocol), so a run is
      reproduced exactly by its seed;
    + evaluates candidates — compile, verify, simulate at the given
      parameter values — on a [Unix.fork] worker pool ([~jobs]), each
      compile under a {!Deadline} on which it degrades down the driver's
      ladder;
    + memoizes evaluations in the persistent {!Store} (kind ["tune-eval"],
      keyed by program digest, candidate, machine config, parameters and
      every option: the canonical wire encoding of
      {!Driver.option_fields} plus the search configuration) whenever a
      store is enabled ([plutocc --cache-dir]), so a warm rerun performs
      zero evaluations.  A worker crash is never cached, nor an evaluation
      whose compile hit its deadline (its cost depends on timing).

    The result is the best *verified* variant, plus a full report. *)

(** One point of the configuration space. *)
type candidate = {
  c_tile : bool;  (** tile permutable bands at all *)
  c_sizes : int array option;
      (** per-band-level tile sizes, outermost first (the last entry repeats
          for deeper bands); [None] = the paper's rough cache model *)
  c_fuse_rar : bool;  (** include read-after-read deps in the cost function *)
  c_unroll : int;  (** unroll-jam factor for the innermost parallel loop *)
}

(** The paper-default configuration (model tile sizes, RAR on, no unroll):
    always candidate 0 of a search, so the report's baseline cost and the
    tuned cost come from the same oracle. *)
val default_candidate : candidate

(** The [T = 64] uniform configuration EXPERIMENTS.md hardcodes — always
    candidate 1, so "tuned vs. T=64" is directly answerable. *)
val t64_candidate : candidate

val pp_candidate : Format.formatter -> candidate -> unit
val candidate_to_string : candidate -> string

(** [candidate_options base c] — driver options for evaluating [c], starting
    from [base] (which supplies parallelization, wavefront depth, solver
    budgets, ...). *)
val candidate_options : Driver.options -> candidate -> Driver.options

(** {1 Footprint pruning} *)

(** [footprint_bytes ~narrays ~band_width sizes] — upper estimate of one
    tile's data footprint: every array touched once per point of a
    [band_width]-deep tile of the given sizes, 8 bytes per element. *)
val footprint_bytes : narrays:int -> band_width:int -> int array -> int

(** [prunes ~machine ~narrays ~band_width c] — true when [c]'s tile
    footprint provably exceeds the modeled (shared L2) cache, so evaluating
    it would be wasted work. *)
val prunes :
  machine:Machine.machine_config -> narrays:int -> band_width:int ->
  candidate -> bool

(** {1 Outcomes and reports} *)

type outcome = {
  o_index : int;  (** position in the search's candidate list *)
  o_cand : candidate;
  o_cycles : float;  (** simulated cycles; [infinity] when failed *)
  o_gflops : float;
  o_degraded : bool;  (** a fallback rung produced the code *)
  o_from_cache : bool;
  o_failed : string option;  (** why no verified code/cost exists *)
}

type report = {
  r_name : string;  (** program name (or digest prefix) *)
  r_digest : string;  (** MD5 of the printed program *)
  r_params : (string * int) list;  (** evaluation parameter binding *)
  r_seed : int;
  r_jobs : int;
  r_generated : int;  (** candidates enumerated before pruning *)
  r_pruned : int;  (** dropped by the footprint model *)
  r_evaluated : int;  (** actually compiled+simulated this run *)
  r_cache_hits : int;
  r_default_cycles : float;  (** cost of {!default_candidate} *)
  r_t64_cycles : float;  (** cost of {!t64_candidate} *)
  r_best : outcome option;  (** cheapest verified candidate *)
  r_outcomes : outcome list;  (** in candidate order — deterministic *)
  r_elapsed_s : float;  (** wall clock; not part of the deterministic state *)
}

val report_to_json : report -> string
val pp_report_summary : Format.formatter -> report -> unit

(** {1 Search} *)

(** [search program] explores the space and returns the report plus the best
    verified compile result (recompiled in the calling process, so the
    artifact never crosses the fork boundary).

    @param options base driver options (default {!Driver.default_options})
    @param machine the cost oracle's machine (default
      {!Machine.default_machine})
    @param jobs fork-pool width (default 1); with [candidate_time_s <= 0]
      and [jobs <= 1] candidates are evaluated in-process
    @param budget max candidates to evaluate after pruning (default 24);
      the default and T=64 anchors are always kept
    @param candidate_time_s each candidate's compile deadline in seconds
      (default 20.; [<= 0]: none).  A compile still searching when it
      passes degrades down the ladder; a worker still running
      {!Deadline.grace_s} later is killed and that candidate fails.
    @param seed search-order seed (default {!Putil.Seed.default}; the CLI
      passes the [PLUTO_FUZZ_SEED] resolution)
    @param params parameter values for the oracle; parameters of the program
      not bound here default to 64 *)
val search :
  ?options:Driver.options ->
  ?machine:Machine.machine_config ->
  ?jobs:int ->
  ?budget:int ->
  ?candidate_time_s:float ->
  ?seed:int ->
  ?params:(string * int) list ->
  Ir.program ->
  report * Driver.result option

(** Internal entry points exposed for the test suite. *)
module For_tests : sig
  val cache_key :
    program_repr:string -> machine:Machine.machine_config ->
    params:(string * int) list -> options:Driver.options -> candidate ->
    string

  val enumerate :
    machine:Machine.machine_config -> narrays:int -> band_width:int ->
    candidate list * int
  (** (surviving candidates, pruned count) for the full space. *)
end
