(** Structured diagnostics for the whole pipeline.

    Every layer (frontend, solver, scheduler, driver, CLI) reports problems
    as {!t} values — severity, stable error code, optional source span and a
    human message — instead of ad-hoc exceptions.  The CLI renders them with
    source excerpts; the driver collects them while walking the
    graceful-degradation ladder, so a compilation can finish with warnings
    rather than die on the first failure.

    Two escape hatches are defined as exceptions: {!Budget_exceeded}, the
    resource-budget signal raised by the solvers ({!Milp} branch-and-bound
    node limit, {!Polyhedra} Fourier–Motzkin row-explosion guard), and
    {!Diagnostic}, which carries a structured diagnostic out of a library
    layer.  Both are caught at layer boundaries and converted into
    diagnostics.  Time limits are not budgets: see {!Deadline}. *)

type severity = Error | Warning | Note

(** A source position (1-based line and column) in a named input. *)
type span = { file : string; line : int; col : int }

type t = {
  sev : severity;
  code : string;  (** stable machine-readable code, e.g. "parse", "budget" *)
  span : span option;
  message : string;
}

(** Raised by resource-bounded algorithms when their budget is exhausted.
    The payload says which budget and where. *)
exception Budget_exceeded of string

(** Raised by library layers that hit a structured, reportable failure (for
    example an unbounded lexmin coordinate in {!Milp}).  Like
    {!Budget_exceeded} it is caught at layer boundaries — the driver's
    [attempt] wrapper converts it into its payload so the degradation ladder
    can continue instead of crashing. *)
exception Diagnostic of t

val span : ?file:string -> line:int -> col:int -> unit -> span

val error : ?span:span -> code:string -> string -> t
val warning : ?span:span -> code:string -> string -> t
val note : ?span:span -> code:string -> string -> t

val errorf :
  ?span:span -> code:string -> ('a, unit, string, t) format4 -> 'a

val warningf :
  ?span:span -> code:string -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool

(** [has_errors ds] — does the list contain at least one [Error]? *)
val has_errors : t list -> bool

(** [has_code ds code] — is there a diagnostic with this code? *)
val has_code : t list -> string -> bool

val severity_name : severity -> string

(** One-line rendering: [file:line:col: severity[code]: message]. *)
val pp : Format.formatter -> t -> unit

(** Like {!pp} but followed by a source excerpt with a caret marking the
    span, gcc/rustc style, when the diagnostic has a span inside [src]. *)
val pp_with_source : src:string -> Format.formatter -> t -> unit

(** Render a whole list (with excerpts when [src] is given), sorted by
    source position, errors and warnings interleaved in source order. *)
val pp_all : ?src:string -> Format.formatter -> t list -> unit

(** Sort by span (diagnostics without spans last), stable otherwise. *)
val by_position : t list -> t list
