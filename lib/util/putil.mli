(** Small shared helpers used across the Pluto libraries. *)

(** Non-negative gcd; [gcd_int 0 0 = 0]. *)
val gcd_int : int -> int -> int

val lcm_int : int -> int -> int

(** [range n] is [[0; 1; ...; n-1]]. *)
val range : int -> int list

val sum_by : ('a -> int) -> 'a list -> int

(** @raise Invalid_argument on the empty list. *)
val list_max : int list -> int

val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list
val concat_map_i : (int -> 'a -> 'b list) -> 'a list -> 'b list

(** @raise Invalid_argument on length mismatch. *)
val array_for_all2 : ('a -> 'b -> bool) -> 'a array -> 'b array -> bool

(** [pp_list sep pp] formats a list with separator [sep]; [sep] is
    interpreted as a format string, so break hints like ["@,"] work.
    @raise Scanf.Scan_failure if [sep] contains formatting directives. *)
val pp_list :
  string -> (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a list -> unit

val string_of_format : (Format.formatter -> 'a -> unit) -> 'a -> string

(** [fixpoint step x] applies [step] until it returns [None]. *)
val fixpoint : ('a -> 'a option) -> 'a -> 'a

(** The single source of deterministic randomness: every randomized component
    (fuzz suites, differential tester, autotuner search order) derives its
    [Random.State.t] from one seed resolved here, so [PLUTO_FUZZ_SEED]
    reproduces any run exactly.  No library calls [Random.self_init]. *)
module Seed : sig
  (** 20080613 (PLDI'08) — the pinned default. *)
  val default : int

  (** [of_env ?var ~default ()] — the seed from [var] (default
      ["PLUTO_FUZZ_SEED"]), or [default] when unset/empty.
      @raise Failure when the variable is set but not an integer. *)
  val of_env : ?var:string -> default:int -> unit -> int

  (** A fresh state from a seed. *)
  val state : int -> Random.State.t
end

module Fresh : sig
  type t

  val create : string -> t
  val next : t -> string
end
