(** The Pluto automatic transformation algorithm (§3–§4 of the paper).

    Iteratively finds statement-wise affine hyperplanes by solving, at each
    level, the integer program

      lexmin (u, w, u', w', ..., c_S's, ...)

    subject to, for every dependence edge [e] of the DDG:

    - the tiling legality constraints (2): δₑ(s,t) = φ_dst(t) − φ_src(s) >= 0
      for all [(s,t)] in the dependence polyhedron, for every legality
      (flow/anti/output) dependence not yet dismissed;
    - the communication-volume bounding constraints (4):
      δₑ(s,t) <= u·p + w for dependences not yet satisfied, and two-sided
      bounds for input (read-after-read) dependences (§4.1) — against both
      the shared bound (u, w), exactly as in the paper, and a secondary
      bound (u', w') minimized afterwards, which breaks cost ties in favour
      of smaller reuse distances (this makes the MVT fusion of §7
      deterministic; see DESIGN.md §4);

    plus per-statement linear independence with previously found rows
    (eq. (6), via integer orthogonal complements) and the trivial-solution
    avoidance Σ cᵢ >= 1 over non-negative coefficients (§4.2).

    Constraints quantified over dependence polyhedra are linearized with the
    affine form of the Farkas lemma and the multipliers eliminated by
    Gaussian/Fourier–Motzkin elimination ({!Farkas}).

    When no hyperplane exists at a level, the DDG restricted to unsatisfied
    dependences is cut between strongly connected components (a scalar
    dimension: loop distribution), or, failing that, satisfied dependences
    are dismissed and a new band of permutable loops begins.  A final scalar
    dimension orders any statements still tied at every level. *)

type config = {
  coeff_bound : int;  (** upper bound for iterator coefficients (default 4) *)
  shift_bound : int;  (** upper bound for the constant coefficient c₀ *)
  u_bound : int;  (** upper bound for each component of [u] *)
  w_bound : int;  (** upper bound for [w] *)
  input_deps : bool;  (** include read-read dependences in the cost function *)
  use_cost_bound : bool;
      (** apply the communication-volume bounding objective (4); disabling it
          leaves a legality-only search (an ablation of the paper's central
          design choice) *)
  budget : Milp.budget;
      (** resource budget for each hyperplane-search ILP; exhaustion degrades
          the search (cut / dismiss / {!No_transform}) instead of diverging.
          Time is bounded by the caller's {!Deadline}, checked before every
          level's ILP and at every branch-and-bound node. *)
}

val default_config : config

(** {1 The level loop}

    One loop builds every searched schedule, Pluto's and the fast path's
    ({!Fastmatch}) alike: per level it asks a row finder for one row per
    statement, records which dependences the rows satisfy and whether the
    level is parallel, and when the finder has no row it cuts the DDG of
    unsatisfied dependences between SCCs, or else dismisses satisfied
    dependences and starts a new permutable band.  Every emptiness test it
    makes goes to the caller's oracle. *)

(** A dependence as the loop sees it.  Only hard dependences
    ({!Deps.is_hard}) are ever satisfied or dismissed. *)
type dep_state = private {
  dep : Deps.t;
  mutable satisfied : int option;
      (** the level that satisfies it (strongly, or weakly by the whole
          prefix when it was dismissed by the fallback) *)
  mutable dismissed : bool;  (** dropped when a previous band completed *)
}

(** Why the loop stopped short of full rank. *)
type stuck =
  | No_row of { level : int; live : int }
      (** no row, no useful cut, nothing to dismiss at [level], with [live]
          hard dependences unsatisfied *)
  | Cyclic_residual
      (** at full rank, dependences tied at every level form a cycle *)

(** [search p deps ~find_rows ~nonempty] runs the loop.  [find_rows states
    hmats] returns the next level's row per statement (width depth+1), or
    [None]; [states] are [deps] in order, [hmats.(id)] the rows found so far
    that raised statement [id]'s rank.  An all-zero answer counts as
    [None].  [nonempty sys] answers whether [sys] has an integer point; a
    "yes" is always the conservative answer.  The Pluto search and
    {!annotate} pass {!Deps.nonempty}.
    @raise Invalid_argument when statement ids are not [0 .. n-1] in order. *)
val search :
  Ir.program ->
  Deps.t list ->
  find_rows:(dep_state list -> int array list array -> int array array option) ->
  nonempty:(Polyhedra.t -> bool) ->
  (Types.transform, stuck) result

(** {1 The ILP layout}

    The integer program's variables: [blocks] bound blocks (u, w) — u one
    column per parameter — then each statement's iterator coefficients and
    constant.  The Pluto search uses two blocks, a schedule search
    ({!Feautrier}) one. *)

type layout = private {
  nilp : int;  (** number of ILP variables *)
  np : int;  (** number of parameters *)
  blocks : int;
  stmt_off : int array;  (** per statement id: first iterator coefficient *)
  stmt_depth : int array;
}

(** [make_layout ?blocks p] (default two blocks). *)
val make_layout : ?blocks:int -> Ir.program -> layout

(** [delta_form lay d] — δ(s,t) = φ_dst(t) − φ_src(s) as a symbolic form
    over [d]'s variables, ready for {!Farkas.constraints}. *)
val delta_form : layout -> Deps.t -> Farkas.symbolic_form

(** Upper bounds on every ILP variable: [u_bound], [w_bound] on each bound
    block, [coeff_bound] and [shift_bound] on each statement's row. *)
val bounds_constraints : config -> layout -> Polyhedra.t

(** Linear independence of the next row from the rows found so far
    ([hmats.(id)], per statement), and Σ cᵢ >= 1 for statements with none
    (eq. 6, §4.2).  Statements at full rank are left free. *)
val independence_constraints : layout -> int array list array -> Polyhedra.t

(** The lexmin order: the bound blocks, then per statement the iterator
    coefficients innermost first, then the constant. *)
val lexmin_priority : layout -> int list

(** Per statement, the row (iterator coefficients and constant) an ILP
    point assigns. *)
val rows_of_solution : layout -> Bigint.t array -> int array array

(** {1 The Pluto search} *)

exception No_transform of string

(** [transform ?config p deps] runs the search and returns the statement-wise
    transformation (rows, level kinds, satisfaction levels).
    @raise No_transform if the search gets stuck (e.g. a dependence cycle
    requiring coefficients outside the non-negative search space).
    @raise Deadline.Expired past the enclosing {!Deadline.within}. *)
val transform :
  ?config:config -> Ir.program -> Deps.t list -> Types.transform

(** [annotate p deps ~rows ~scalar] rebuilds satisfaction bookkeeping, band
    structure and per-level parallelism flags for an externally supplied
    transformation ([rows.(stmt_id).(level)] of width depth+1; [scalar.(l)]
    marks static levels).  Its emptiness tests are {!Deps.nonempty}.  Used by the baseline schemes and the identity
    transformation. *)
val annotate :
  Ir.program ->
  Deps.t list ->
  rows:int array array array ->
  scalar:bool array ->
  Types.transform

(** [identity_transform p deps] is the original-execution-order scattering
    (the classic 2d+1 form), annotated with parallelism information — the
    "native compiler" view of the program. *)
val identity_transform : Ir.program -> Deps.t list -> Types.transform

val pp_transform : Format.formatter -> Types.transform -> unit
