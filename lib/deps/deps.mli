(** Polyhedral dependence analysis (the LooPo dependence-tester substitute).

    Computes the Data Dependence Graph of §2.1 of the paper: for every pair of
    accesses to the same array — flow (RAW), anti (WAR), output (WAW) and
    optionally input (RAR) — and for every syntactic ordering level, a
    candidate {e dependence polyhedron} over
    [src_iters @ dst_iters @ params] is built from:

    - both statements' iteration domains,
    - equality of the affine access functions,
    - the original-execution-order constraints at that level (carried at a
      common loop, or loop-independent between syntactically ordered
      statements).

    Candidate polyhedra that contain no integer point in the parameter
    context ({!nonempty}) are discarded.  This is the memory-based exact
    dependence model the paper uses (including all of anti/output/input; no
    conversion to single assignment). *)

type kind = Flow | Anti | Output | Input

type t = {
  id : int;
  src : Ir.stmt;
  dst : Ir.stmt;
  kind : kind;
  level : int option;
      (** [Some l]: carried by common loop [l] (0-based); [None]:
          loop-independent *)
  poly : Polyhedra.t;  (** over [src.iters @ dst.iters @ params] *)
  src_acc : Ir.access;
  dst_acc : Ir.access;
  reduction : bool;
      (** a self flow/anti/output edge between two instances of a verified
          associative/commutative self-update's accumulator access: legal to
          relax during scheduling (order of combination is immaterial up to
          floating-point reassociation), still real for locality bounding.
          Only ever true when [compute] ran with [reductions:true]. *)
}

(** [is_legality d] — input dependences do not constrain legality (§4.1). *)
val is_legality : t -> bool

(** [is_hard d] — must the schedule preserve this edge's order?  Legality
    edges minus marked reduction edges: the predicate every legality /
    satisfaction / parallelism constraint in the scheduler and validator is
    built from when reductions are enabled (with them off no edge is marked,
    so [is_hard] = [is_legality]). *)
val is_hard : t -> bool

val kind_name : kind -> string

(** [compute ?input_deps ?reductions program] builds the DDG edge list,
    keeping each candidate polyhedron that is {!nonempty}.  With
    [reductions:true] (default false), self-dependences of associative/commutative self-update
    statements whose accumulator cell is provably not aliased by any other
    read of the same array ({!Ir.reduction_of_stmt} plus a per-read
    polyhedral emptiness test) are marked [reduction]. *)
val compute : ?input_deps:bool -> ?reductions:bool -> Ir.program -> t list

(** [nvars d] is the variable count of [d.poly]. *)
val nvars : t -> int

(** [matched_dims d] — subscript-aligned dimension pairs for the fast
    scheduler's dimension matching (Acharya–Bondhugula style): for every
    subscript of the access pair that is an affine function of exactly one
    iterator on each side with equal coefficients, the pair
    [(src_dim, dst_dim)].  E.g. [a[i][j] -> a[k][l]] yields [[(0,0); (1,1)]]
    when [i,j] are the source dims and [k,l] the destination dims.  Input
    (read–read) dependences participate: reuse votes drive fusion. *)
val matched_dims : t -> (int * int) list

(** [satisfaction_row program d row_src row_dst] builds the affine form
    δ = φ_dst(t) − φ_src(s) over the dependence polyhedron's variables, given
    per-statement transformation rows (each over own iters + const, width
    depth+1).  The result row has width [nvars d + 1]. *)
val satisfaction_row : Ir.program -> t -> int array -> int array -> Vec.t

(** The sign of a δ row ({!satisfaction_row}) as one constraint over the
    same variables: [δ >= 1], [δ <= -1] and [δ <= 0]. *)
val delta_ge_1 : Vec.t -> Polyhedra.constr

val delta_le_minus_1 : Vec.t -> Polyhedra.constr
val delta_le_0 : Vec.t -> Polyhedra.constr

(** {1 The integer-point test}

    Every dependence-shaped question the scheduler, the code generator and
    the validator ask — does this system have an integer point? — goes
    through these functions.  Their variables are iteration counters
    followed by the structure parameters, the parameters last. *)

(** [integer_point sys] — an integer point of [sys], or [None] when it has
    none: an integer-tightened Fourier–Motzkin emptiness prefilter, then the
    memoized ILP ({!Milp.feasible_cached}).
    @raise Diag.Budget_exceeded when a solver budget runs out. *)
val integer_point : Polyhedra.t -> Bigint.t array option

(** [pin ~np sys] adds [p_j = 100] for each of the trailing [np] parameter
    columns: the one parameter context in which the dependence tester, the
    scheduler, the reduction-clause marker and the validator's claim checks
    all decide emptiness. *)
val pin : np:int -> Polyhedra.t -> Polyhedra.t

(** [nonempty ~np sys] — has [pin ~np sys] an integer point?  Solver budget
    exhaustion answers [true], the conservative answer for every caller: it
    keeps a dependence, or withholds a satisfaction, parallelism or
    dismissal claim. *)
val nonempty : np:int -> Polyhedra.t -> bool

val pp : Format.formatter -> t -> unit
