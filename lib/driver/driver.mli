(** End-to-end driver: the programmatic equivalent of running the [plutocc]
    tool.  Wires together dependence analysis, the transformation search,
    tiling, parallelization and code generation with the policy described in
    the paper (§5–§6):

    - find hyperplanes (Auto.transform);
    - tile every permutable band of width >= [min_band_tile] (Algorithm 1),
      with tile sizes from the rough cache model unless given;
    - if the outermost tile loop is parallel, mark it for OpenMP; otherwise
      extract [wavefront] degrees of pipelined parallelism (Algorithm 2);
    - optionally move an intra-tile parallel loop innermost (§5.4) for
      vectorization. *)

type options = {
  tile : bool;
  tile_size : int option;  (** uniform tile size; [None] = rough model *)
  tile_sizes : int array option;
      (** rectangular tiles: per-band-level sizes, outermost first, the last
          entry repeated for deeper bands; takes precedence over
          [tile_size].  The tuner's search space lives here. *)
  parallelize : bool;
  wavefront : int;  (** degrees of pipelined parallelism to extract *)
  intra_reorder : bool;  (** §5.4 post-pass *)
  unroll_jam : int;
      (** unroll-jam factor applied to innermost parallel/vectorized loops
          ({!Codegen.with_unroll_innermost}); 1 = off *)
  min_band_tile : int;  (** minimum band width worth tiling *)
  auto : Pluto.Auto.config;
  fast_schedule : bool;
      (** try the fast fusion/dimension-matching scheduler
          ({!Pluto.Fastmatch}) before the exact ILP in {!compile_robust};
          accepted schedules are translation-validated first, rejections
          fall back to the ILP with a ["fastpath-rejected"] warning.
          Default on ([--no-fast-schedule] turns it off). *)
  break_fastpath : bool;
      (** testing hook ([--break-fastpath]): deliberately corrupt any
          accepted fast schedule before validation, proving the rejection
          path end to end.  Poisoned results are never cached. *)
  reductions : bool;
      (** reduction-aware compilation ([--reductions], default off):
          associative/commutative self-updates are detected and their
          self-dependences marked ({!Deps.compute}), the schedulers relax
          marked edges (parallelizing dot products, histograms and the
          accumulation dimensions of lu/mvt), parallel loops that carry a
          marked reduction get OpenMP [reduction(op:array)] clauses, and the
          translation validator switches to legality modulo reassociation
          for the marked edges only.  Execution of such programs matches the
          original order up to floating-point reassociation
          ({!Machine.equivalent} [~tolerance]), not bit-exactly. *)
}

(** The paper's main experimental setting: tile + parallelize with one
    degree of pipelined parallelism, intra-tile reordering on. *)
val default_options : options

(** {1 The option table}

    Every field a user can set — on plutocc's command line, in a batch
    manifest or on the daemon's wire — is declared once, as one row of
    {!option_fields}: its JSON key, its kind, the least value its integers
    may take, and its plutocc spelling with the [--help] text.  From the
    table come plutocc's option flags, {!Manifest.options_to_json} /
    {!Manifest.options_of_json} (and through them the daemon's request
    digest), and the tuner's store key.  The default of every field is
    its value in {!default_options}.  The search configuration [auto]
    (other than [input_deps]) is not a row: nothing outside the library
    sets it. *)

type _ kind =
  | Bool : bool kind
  | Int : int kind
  | Int_opt : int option kind  (** [null] on the wire: unset *)
  | Ints_opt : int array option kind

(** How plutocc spells a field; a [None] flag is the JSON key itself. *)
type cli =
  | Value of { flag : string option; docv : string; doc : string }
      (** [--flag V] for an integer field; [docv] is the metavariable *)
  | Switches of (string option * bool * string) list
      (** for a [bool] field: each [(flag, v, doc)] is a [--flag] that sets
          it to [v]; an empty [doc] hides the flag from [--help] *)

type 'a field = {
  key : string;  (** JSON key; rows are in canonical wire order *)
  kind : 'a kind;
  min : int;  (** least allowed value of each integer in the field *)
  cli : cli option;  (** [None]: not settable from plutocc's command line *)
  get : options -> 'a;
  set : options -> 'a -> options;
}

type option_field = Field : 'a field -> option_field

val option_fields : option_field list

(** Every integer option is at most [int_max] (2{^30}): larger values mean
    nothing to any option, and the float-typed wire carries them exactly. *)
val int_max : int

(** ["[min, int_max]"], for error messages. *)
val int_range : min:int -> string

(** [cli_flag f flag] — the flag name a [cli] entry of [f] spells. *)
val cli_flag : 'a field -> string option -> string

type result = {
  program : Ir.program;
  deps : Deps.t list;
  transform : Pluto.Types.transform;
  target : Pluto.Types.target;
  code : Codegen.t;
}

(** [compile ?options program] runs the full pipeline.
    @raise Pluto.Auto.No_transform if the search fails. *)
val compile : ?options:options -> Ir.program -> result

(** [compile_feautrier ?options program] — the scheduling-based scheme of
    §7 end to end: the Feautrier schedule with Griebl's FCO completion
    ({!Pluto.Feautrier}, under [options.auto]'s solver budget but with
    {!Pluto.Auto.default_config}'s variable bounds) over the
    dependences without read-read edges, time-tiled only when the completion
    satisfied the FCO condition.  The degradation ladder's middle rung.
    @raise Pluto.Feautrier.No_schedule if no schedule is found. *)
val compile_feautrier : ?options:options -> Ir.program -> result

(** [compile_with_transform ?options program deps transform] skips the search
    and applies tiling/parallelization/codegen to an externally supplied
    transformation (used by the baseline schemes). *)
val compile_with_transform :
  ?options:options -> Ir.program -> Deps.t list -> Pluto.Types.transform -> result

(** The identity (original program order) pipeline — the "native compiler"
    baseline; no tiling or parallelization. *)
val compile_original : ?options:options -> Ir.program -> result

(** {1 Robust compilation: the graceful-degradation ladder}

    [compile_robust] never raises (other than genuine out-of-memory /
    interrupt): every failure of a scheduling rung — [No_transform], solver
    budget exhaustion ([Diag.Budget_exceeded]), an expired deadline
    ([Deadline.Expired]), or any unexpected exception — is recorded as a
    warning diagnostic and the next rung is tried:

    + the fast fusion/dimension-matching scheduler ({!Pluto.Fastmatch}),
      when [options.fast_schedule] — zero ILP solves, and its output only
      counts if the translation validator accepts it (an accept is recorded
      as a ["fastpath-accepted"] note, a fall-through as a
      ["fastpath-rejected"] warning — which is {e not} a degradation:
      {!degraded} stays false and the CLI still exits 0);
    + the Pluto automatic transformation ({!compile});
    + the Feautrier + Griebl-FCO baseline schedule ({!compile_feautrier}), with
      the same solver budget;
    + the untiled identity schedule ({!compile_original}).

    The identity rung can only fail if dependence analysis itself fails, in
    which case no semantically-safe code can be emitted and the whole
    compilation is a hard error.

    With [strict:true] the ladder is disabled: the first failure returns
    [Error] immediately (the CLI's [--strict]). *)

(** [compile_robust ?options ?strict ?verify ?deadline_s p] —
    [Ok (result, warnings)] where the warnings record each degradation step
    (codes ["degraded-feautrier"], ["degraded-identity"] plus the demoted
    failure reasons), or [Error diagnostics] when no rung could emit code.

    With [verify:true] every rung's output is additionally checked by the
    translation validator ({!Verify.validate}); a rung whose output fails
    validation is treated exactly like a rung that crashed (code
    ["verify-failed"]) and the ladder degrades to the next rung.

    With [deadline_s], the fast, Pluto and Feautrier rungs run inside one
    {!Deadline.within}: each spends what the rungs before it left, and a
    rung still searching when the deadline passes fails with code
    ["deadline"].  The identity rung searches nothing and runs outside the
    deadline, so an expired deadline yields the degraded original-order
    result, never a missing one. *)
val compile_robust :
  ?options:options ->
  ?strict:bool ->
  ?verify:bool ->
  ?deadline_s:float ->
  Ir.program ->
  (result * Diag.t list, Diag.t list) Stdlib.result

(** [compile_source_robust ?options ?strict ?verify ?deadline_s ?name src] —
    parse first (collecting all frontend diagnostics), then
    {!compile_robust}. *)
val compile_source_robust :
  ?options:options ->
  ?strict:bool ->
  ?verify:bool ->
  ?deadline_s:float ->
  ?name:string ->
  string ->
  (result * Diag.t list, Diag.t list) Stdlib.result

(** [degraded ds] — does the diagnostic list record a degradation step? (The
    CLI maps this to exit code 2.) *)
val degraded : Diag.t list -> bool

(** [attempt ~what f] — the ladder's exception wall: run [f], converting any
    failure ([Diag.Budget_exceeded], [Deadline.Expired] as code
    ["deadline"], [Diag.Diagnostic], scheduler give-ups, stack overflow,
    anything unexpected) into an [Error] diagnostic prefixed with [what].
    Only genuine out-of-memory/interrupt conditions propagate.  Exposed for
    tests and embedders building their own rungs. *)
val attempt : what:string -> (unit -> 'a) -> ('a, Diag.t) Stdlib.result

(** [verify ?params r] — run the independent translation validator
    ({!Verify.validate}) on a compilation result: re-proves schedule
    legality over the dependence polyhedra and that the generated AST scans
    exactly the original iteration domains. *)
val verify : ?params:int array -> result -> Verify.report
