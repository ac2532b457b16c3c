(** Constraint-representation polyhedra with exact arithmetic.

    This is the repository's PolyLib substitute.  A system is a conjunction of
    affine equalities and inequalities over [nvars] variables; each constraint
    stores [nvars + 1] big-integer coefficients, the last one being the
    constant term.  A constraint [{kind = Ge; coefs}] means
    [coefs·(x, 1) >= 0]; [Eq] means [= 0].

    Projection is Fourier–Motzkin elimination over the rationals, which is the
    correct semantics for both of its uses here: eliminating (rational) Farkas
    multipliers and computing loop bounds (where the [floord]/[ceild] in
    generated code performs the integer rounding). *)

type kind = Eq | Ge

type constr = { kind : kind; coefs : Vec.t }

type t = { nvars : int; cs : constr list }

(** {1 Constructors} *)

val ge : Vec.t -> constr
val eq : Vec.t -> constr

(** [ge_ints l] / [eq_ints l] build a constraint from native-int coefficients
    (constant last). *)
val ge_ints : int list -> constr

val eq_ints : int list -> constr

(** [universe n] is the unconstrained system over [n] variables. *)
val universe : int -> t

val of_constrs : int -> constr list -> t

(** [add t c] conjoins one constraint. *)
val add : t -> constr -> t

(** [meet a b] conjoins two systems over the same variable count. *)
val meet : t -> t -> t

(** {1 Structural operations} *)

(** [insert_vars t ~at ~count] inserts [count] fresh unconstrained variables
    before position [at], shifting later columns. *)
val insert_vars : t -> at:int -> count:int -> t

(** [drop_vars t ~at ~count] removes columns; all removed columns must have
    zero coefficients in every constraint.
    @raise Invalid_argument otherwise. *)
val drop_vars : t -> at:int -> count:int -> t

(** [rename t perm] permutes columns: new column [i] takes old column
    [perm.(i)] (the constant column is fixed). *)
val rename : t -> int array -> t

(** {1 Normalization} *)

(** [normalize_constr ~integer c] divides by the content; with [integer:true],
    inequality constants are additionally tightened by flooring and an
    equality whose variable-part gcd does not divide its constant is reported
    as unsatisfiable (both valid only when all variables are integral).
    Returns [Ok None] if the constraint is trivially true, [Error ()] if it is
    unsatisfiable (proving the enclosing system empty). *)
val normalize_constr : integer:bool -> constr -> (constr option, unit) result

(** [simplify ?integer t] normalizes all constraints, removes syntactic
    duplicates and dominated inequalities.  Returns [None] if a constraint is
    trivially false. *)
val simplify : ?integer:bool -> t -> t option

(** [canon ?integer t] is {!simplify} followed by a canonical ordering: the
    sign of each equality is fixed, rows are sorted (equalities first) and
    exact duplicates removed.  Two systems describing the same constraint set
    up to permutation, duplication and scaling canonicalize identically. *)
val canon : ?integer:bool -> t -> t option

(** [digest t] is a stable hex digest of the constraint set as stored.
    Meaningful as an identity key after {!canon}. *)
val digest : t -> string

(** Total order on constraints used by {!canon}: equalities before
    inequalities, then coefficient-lexicographic. *)
val compare_constr : constr -> constr -> int

(** {1 Projection and emptiness} *)

(** Default Fourier–Motzkin size budget (constraints) for {!eliminate}. *)
val default_max_constrs : int

(** [eliminate ?max_constrs t v] projects out variable [v] (rational
    Fourier–Motzkin for inequalities, exact substitution for equalities).
    The variable count is unchanged; column [v] becomes all-zero.  Returns
    [None] if the projection is discovered empty.
    @raise Diag.Budget_exceeded if the elimination would produce more than
    [max_constrs] constraints (row explosion guard). *)
val eliminate : ?max_constrs:int -> t -> int -> t option

(** [eliminate_many ?max_constrs t vars] projects out several variables.
    @raise Diag.Budget_exceeded on row explosion, like {!eliminate}. *)
val eliminate_many : ?max_constrs:int -> t -> int list -> t option

(** [is_empty_rational t] tests rational emptiness by full elimination.
    Rational emptiness implies integer emptiness; the converse is checked by
    the ILP layer where needed. *)
val is_empty_rational : t -> bool

(** [is_empty_cached ?integer t] is {!is_empty_rational} on the {!canon}-ical
    form of [t], memoized globally by digest (counters
    [poly.empty_cache_hits]/[poly.empty_cache_misses]).  With [integer:true]
    the canonical form uses integer tightening, so the test may prove empty
    systems that still have rational points — only sound when every variable
    of [t] ranges over the integers.

    The cache is a solver-pool {!Memo} table (store kind ["poly-empty"],
    eviction counter [poly.cache_evictions]): it reads through to the
    persistent {!Store} when one is enabled, and obeys {!Memo.set_budget}
    and the daemon's journal. *)
val is_empty_cached : ?integer:bool -> t -> bool

(** [set_empty_cache false] disables the memoized emptiness cache (used by
    benchmarks to measure the cold path); [true] re-enables it. *)
val set_empty_cache : bool -> unit

(** Drop all memoized emptiness results. *)
val clear_caches : unit -> unit

(** {1 Queries} *)

(** [bounds_on t v] partitions the inequalities by their sign on variable [v]:
    [(lower, upper, rest)] where [lower] are constraints with positive
    coefficient on [v] (giving lower bounds), [upper] negative. Equalities
    involving [v] appear in both lists (as the two implied inequalities). *)
val bounds_on : t -> int -> constr list * constr list * constr list

(** [involves c v] is true iff constraint [c] has a non-zero coefficient on
    variable [v]. *)
val involves : constr -> int -> bool

(** [sat_point t p] checks an integer point [p] (length [nvars]) against all
    constraints — used heavily by property tests. *)
val sat_point : t -> Bigint.t array -> bool

(** [constr_value c p] evaluates [coefs·(p, 1)]. *)
val constr_value : constr -> Bigint.t array -> Bigint.t

val equal_constr : constr -> constr -> bool

(** {1 Printing} *)

(** [pp ?names] prints the system with the given variable names (defaults to
    [x0, x1, ...]). *)
val pp : ?names:string array -> Format.formatter -> t -> unit

val pp_constr : ?names:string array -> Format.formatter -> constr -> unit
