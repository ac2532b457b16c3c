(** Independent translation validation for the whole pipeline.

    Given a computed transformation and the generated loop AST, this module
    re-proves — per compilation, from scratch, and deliberately {e not}
    through the Farkas-dual machinery of {!Pluto.Auto} that produced the
    schedule — the two facts the compiler's correctness rests on:

    {b Legality (schedule).}  For every legality (flow/anti/output) dependence
    edge [e] of the DDG with polyhedron [P_e], the per-level satisfaction form
    δ_l(s,t) = φ_dst,l(t) − φ_src,l(s) must be {e lexicographically positive}
    over every integer point of [P_e]: writing Z_k for the prefix hypothesis
    δ_0 = … = δ_{k−1} = 0,

    - for every level [k]: [P_e ∧ Z_k ∧ δ_k ≤ −1] has no integer point, and
    - [P_e ∧ Z_nlevels] (every component zero: the pair would be unordered)
      has no integer point.

    Each obligation is discharged by a direct integer-emptiness test on the
    {e instance space} ({!Deps.integer_point}: {!Polyhedra} + {!Milp}
    branch-and-bound) with every structure parameter in [[1, 10]] — a
    witness is a
    concrete pair of statement instances executed in the wrong order, which is
    reported in the failure message.  Because the schedule must be legal for
    {e all} parameter values, any witness is a genuine miscompilation.

    In addition the transform's own {e claims} are re-checked in the
    parameter context of {!Deps.pin} — by construction the one the search
    used to justify them: a dependence recorded as strongly satisfied at level [L] must have
    [δ_l ≥ 0] for [l < L] and [δ_L ≥ 1] over all of [P_e], and a level marked
    parallel must carry no dependence — [P_e ∧ Z_l ∧ (δ_l ≥ 1 ∨ δ_l ≤ −1)]
    empty for every dependence not yet satisfied before [l].

    {b Legality modulo reassociation (reductions).}  Dependence edges marked
    [reduction] are exempt from the order obligations above — reassociating
    an associative/commutative accumulation is exactly the freedom the
    [--reductions] pipeline exploits — so the {e marking} becomes the proof
    obligation instead: each marked edge must be a self-dependence of a
    syntactic self-update whose endpoints are the accumulator access, and no
    other read of the accumulator's array may alias the accumulator cell
    anywhere in the domain (an integer-emptiness test per read, parameters
    in [[1, 10]]; failures carry code ["reduction"]).
    With reductions off no edge is marked and validation is exactly the
    bit-strict check above.

    {b Domain coverage (code generation).}  The generated AST must scan
    exactly the original iteration domain of every statement: walking the AST
    (bounds, guards and statement arguments evaluated through
    {!Codegen.Eval}, the same integer semantics the interpreter executes) and
    collecting every visited instance must produce, per statement, each point
    of the statement's domain {e exactly once} — compared point-by-point
    against an enumeration of the domain obtained independently of both the
    code generator and the interpreter's Fourier–Motzkin scan (coordinate
    bounds from rational LP, box scan, membership by
    {!Polyhedra.sat_point}). *)

(** One failed (or undischargeable) proof obligation. *)
type failure = {
  f_code : string;
      (** stable code: ["legality"], ["unordered"], ["satisfaction"],
          ["parallelism"], ["reduction"], ["coverage"], ["budget"],
          ["internal"] *)
  f_message : string;
}

type report = {
  legality_obligations : int;
      (** integer-emptiness obligations discharged for schedule legality *)
  claim_obligations : int;
      (** obligations discharged for satisfaction/parallelism claims *)
  instances_checked : int;
      (** statement instances compared in the coverage check *)
  failures : failure list;
}

val ok : report -> bool

(** [validate_transform p deps t] discharges the legality obligations
    (parameters in [[1, 10]]) and the claim obligations (parameters pinned
    by {!Deps.pin}).  Budget exhaustion and unexpected errors become
    failures with codes ["budget"] / ["internal"]; only [Out_of_memory], an
    interrupt and {!Deadline.Expired} propagate. *)
val validate_transform : Ir.program -> Deps.t list -> Pluto.Types.transform -> report

(** [validate_coverage ~params p cg] checks that the AST scans each
    statement's domain exactly once at the given concrete parameter values
    (each at least 1, the parameter lower bound the code generator
    assumes). *)
val validate_coverage : params:int array -> Ir.program -> Codegen.t -> report

(** [validate ?params p deps t cg] — both checks; [params] defaults to every
    parameter set to 6. *)
val validate :
  ?params:int array ->
  Ir.program ->
  Deps.t list ->
  Pluto.Types.transform ->
  Codegen.t ->
  report

val pp_report : Format.formatter -> report -> unit

(** Schedule mutations for exercising the rejection path (the test suite and
    plutocc's [--break-schedule]); not part of the stable API. *)
module For_tests : sig
  (** Negate every statement's row at the first genuine loop level (loop
      reversal) — illegal whenever that level carries a dependence.  [None]
      if the transform has no loop level. *)
  val reverse_first_loop :
    Pluto.Types.transform -> Pluto.Types.transform option
end
