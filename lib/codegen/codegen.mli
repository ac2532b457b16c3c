(** Polyhedra scanning under statement-wise scattering functions — the
    repository's CLooG substitute — plus the OpenMP C emitter.

    Given a {!Pluto.Types.target} (per-statement extended domains and
    scattering rows), produces a loop AST that visits every statement instance
    exactly once, in the lexicographic order of its scattering vector:

    - each scattering level becomes a loop whose bounds come from exact
      Fourier–Motzkin projection of the statement's extended polyhedron
      (with LP-based redundancy pruning);
    - scalar (static) levels separate statements into sequential groups;
    - when several statements share a loop, the loop spans the union of their
      ranges and per-statement affine guards select the right instances;
    - statement instances are recovered from scattering values by inverting
      the (full-rank) scattering; non-unimodular scatterings yield exact
      divisions and modulo guards (CLooG's strides);
    - loops marked parallel by the transformation carry an OpenMP annotation.

    The same AST is consumed by the performance simulator ({!Machine}) and by
    {!print_c}. *)

(** Integer expressions over scattering variables and parameters.  [Affine]
    rows have fixed width [nlevels + nparams + 1] (constant last). *)
type iexpr =
  | Affine of int array
  | Floord of iexpr * int
  | Ceild of iexpr * int
  | Emin of iexpr list
  | Emax of iexpr list

type guard =
  | Ge0 of int array  (** affine row >= 0, width [nlevels + nparams + 1] *)
  | Mod0 of int array * int  (** affine row ≡ 0 (mod d) *)

type ast =
  | For of {
      level : int;
      parallel : bool;
      lb : iexpr;
      ub : iexpr;
      body : ast list;
    }
  | Leaf of {
      stmt_idx : int;  (** index into the target's statement list *)
      guards : guard list;
      args : (int array * int) array;
          (** per extended iterator: (affine row, divisor) — the iterator's
              value is row·(c, p, 1) / divisor (exact when guards hold) *)
    }

type t = {
  target : Pluto.Types.target;
  nlevels : int;
  nparams : int;
  body : ast list;
  unroll : int array;
      (** per-level unroll-jam factor (all 1 from {!generate}); a purely
          cost-model/pragma annotation — iteration order and semantics are
          unchanged, so validation is unaffected.  The C printer emits
          [#pragma unroll(f)] and the {!Machine} simulator amortizes loop
          control overhead over [f] (and charges a remainder-loop cost per
          entry), pricing the classic unroll-jam trade-off. *)
  reductions : (string * string) list array;
      (** per-level [reduction(op:array)] clauses (all empty from
          {!generate}; the driver attaches them under [--reductions]): a
          parallel loop at that level carries a marked reduction whose
          accumulator lives in [array], so the C printer appends whole-array
          OpenMP reduction clauses to the loop's pragma.  Like [unroll] this
          is annotation only — the sequential interpreter and the validator
          see the same iteration order either way. *)
}

exception Codegen_error of string

(** [generate target] scans the union of statement polyhedra under the target
    scattering, assuming every structure parameter is at least 1 (CLooG's
    context).
    @raise Codegen_error on non-full-rank scatterings or unbounded loops. *)
val generate : Pluto.Types.target -> t

(** [with_unroll_innermost t ~factor] marks every innermost loop whose level
    is a parallel loop (or a §5.4 forced-vectorization level) with unroll
    factor [factor] — the loops the tuner's unroll-jam knob targets.  Returns
    [t] unchanged if [factor <= 1] or no loop is eligible. *)
val with_unroll_innermost : t -> factor:int -> t

(** The levels currently carrying an unroll factor > 1. *)
val unrolled_levels : t -> int list

(** [with_reductions t clauses] — attach per-level [(op, array)] reduction
    clauses ([clauses] must have length [nlevels]).
    @raise Invalid_argument on a length mismatch. *)
val with_reductions : t -> (string * string) list array -> t

(** [print_c fmt t] emits compilable C with OpenMP pragmas, [floord]/[ceild]/
    [min]/[max] macros, array declarations and a [main] driver.  With
    [instrument:true] the driver deterministically initializes every array,
    times the loop nest with [clock_gettime] and prints per-array position-
    weighted checksums — the native-execution validation/benchmark mode used
    by {!Runner}. *)
val print_c : ?instrument:bool -> Format.formatter -> t -> unit

(** [print_loop_nest fmt t] emits only the transformed loop nest (the part a
    source-to-source tool would splice back). *)
val print_loop_nest : Format.formatter -> t -> unit

(** Count of AST nodes, for tests and reporting. *)
val size : t -> int

(** Internal entry points exposed for the test suite; not part of the stable
    API. *)
module For_tests : sig
  val pp_iexpr : string array -> Format.formatter -> iexpr -> unit
end

(** The single definition of what the emitted C computes for loop bounds,
    guards and statement arguments.  Every executor of the AST — the
    {!Machine} interpreter/simulator and the [Verify] domain-coverage
    checker — evaluates through here, so a disagreement between them can only
    come from the AST itself, never from divergent evaluators.

    Environments [env] have width [nlevels + nparams] (scattering variables
    then parameters); affine rows have width [nlevels + nparams + 1]. *)
module Eval : sig
  val floord : int -> int -> int
  val ceild : int -> int -> int

  (** [affine row env] evaluates [row·(env, 1)]. *)
  val affine : int array -> int array -> int

  val iexpr : iexpr -> int array -> int
  val guard : guard -> int array -> bool

  (** [leaf_iters args env m] recovers the [m] original-iterator values of a
      statement instance from its leaf [args] (the original iterators are the
      trailing [m] extended iterators).
      @raise Failure if a divisor does not divide exactly (a missing stride
      guard in the AST). *)
  val leaf_iters : (int array * int) array -> int array -> int -> int array
end
