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
  ctx : int;  (** parameter value used by concrete satisfaction tests *)
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
    marks static levels).  Used by the baseline schemes and the identity
    transformation. *)
val annotate :
  ?config:config ->
  Ir.program ->
  Deps.t list ->
  rows:int array array array ->
  scalar:bool array ->
  Types.transform

(** [identity_transform p deps] is the original-execution-order scattering
    (the classic 2d+1 form), annotated with parallelism information — the
    "native compiler" view of the program. *)
val identity_transform :
  ?config:config -> Ir.program -> Deps.t list -> Types.transform

val pp_transform : Format.formatter -> Types.transform -> unit

(** Internal entry points exposed for profiling and tests. *)
module For_tests : sig
  type dep_state

  val dep_states : Ir.program -> Deps.t list -> dep_state list
end
