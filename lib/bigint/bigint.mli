(** Arbitrary-precision signed integers.

    This module is the repository's substitute for GMP: exact, overflow-free
    integer arithmetic used by the linear-algebra, polyhedral and ILP layers.
    Values are immutable.

    A value in [[-(2^61-1), 2^61-1]] is an immediate native integer, and
    operations on such values run overflow-checked native arithmetic with no
    allocation.  Any other value is a sign-and-magnitude record with the
    magnitude stored little-endian in base [2^30].  Every value has exactly
    one form, so {!equal}, polymorphic [=], [Hashtbl.hash] and [Marshal]
    agree.  Marshaled values carry this layout: a store holding them must be
    versioned by it.

    Division conventions: {!divmod} truncates toward zero (like OCaml's [/]
    and [mod]); {!fdiv}/{!fmod} round toward negative infinity; {!cdiv} rounds
    toward positive infinity. The latter two implement the [floord]/[ceild]
    operators of generated polyhedral code. *)

type t

val zero : t
val one : t
val minus_one : t

(** [of_int n] converts a native integer exactly. *)
val of_int : int -> t

(** [to_int t] converts back to a native integer.
    @raise Failure if the value does not fit. *)
val to_int : t -> int

(** [to_int_opt t] is [Some n] iff the value fits in a native [int]. *)
val to_int_opt : t -> int option

val of_string : string -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [sign t] is [-1], [0] or [1]. *)
val sign : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val is_zero : t -> bool
val is_one : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] truncated toward zero and
    [sign r = sign a] (or [r = 0]).
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** Truncating division, [fst (divmod a b)]. *)
val div : t -> t -> t

(** Truncating remainder, [snd (divmod a b)]. *)
val rem : t -> t -> t

(** Floor division: largest [q] with [q*b <= a] (for [b > 0]). *)
val fdiv : t -> t -> t

(** Floor remainder: [a - b * fdiv a b]; non-negative when [b > 0]. *)
val fmod : t -> t -> t

(** Ceiling division: smallest [q] with [q*b >= a] (for [b > 0]). *)
val cdiv : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)
val gcd : t -> t -> t

(** [lcm a b] is the non-negative least common multiple. *)
val lcm : t -> t -> t

val min : t -> t -> t
val max : t -> t -> t

(** [mul_int t n] multiplies by a native integer. *)
val mul_int : t -> int -> t

(** [add_int t n] adds a native integer. *)
val add_int : t -> int -> t

(** [pow t n] raises to a non-negative native power.
    @raise Invalid_argument on negative exponent. *)
val pow : t -> int -> t

(** Infix and comparison operators, intended for local [open Bigint.Ops]. *)
module Ops : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( ! ) : int -> t
end
