(** One wall-clock deadline for every time budget.

    A compile that must answer in time runs inside {!within}; the work
    under it calls {!check} at its natural steps (every {!Milp}
    branch-and-bound node, every level of the Pluto and Feautrier searches,
    the start of every ladder rung) and stops with {!Expired} once the
    deadline has passed.  The
    driver's degradation ladder catches it and falls through to the
    identity schedule, which runs outside the deadline, so an expired
    deadline costs optimization, never the answer.

    {!Expired} is deliberately not {!Diag.Budget_exceeded}: the solvers'
    conservative handlers swallow a budget overrun and carry on with a
    weaker answer, and such an answer may be cached under a key that does
    not include the deadline.  An expired deadline must instead unwind to
    the ladder.  Catch-all handlers below the ladder re-raise it, as they
    do [Out_of_memory].

    The clock is [Unix.gettimeofday]: wall time, which keeps running while
    the process sleeps or blocks. *)

(** Raised by {!check} once the deadline has passed. *)
exception Expired

(** [within allowance f] runs [f ()] with a deadline [allowance] seconds
    from now ([None]: no new deadline).  An enclosing deadline that falls
    earlier still wins — a deadline can only tighten — and the previous
    deadline is restored when [f] returns or raises. *)
val within : float option -> (unit -> 'a) -> 'a

(** [check ()] raises {!Expired} when a deadline is set and now is at or
    past it (a zero allowance trips at once).  Without a deadline it is one
    reference read. *)
val check : unit -> unit

(** Seconds between a cooperative deadline and the hard backstop: a caller
    that gives a compile [t] seconds kills its worker at [t +. grace_s]. *)
val grace_s : float
