(** Small shared helpers used across the Pluto libraries. *)

(** [gcd_int a b] is the non-negative greatest common divisor of [a] and [b].
    [gcd_int 0 0 = 0]. *)
let rec gcd_int a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd_int b (a mod b)

(** [lcm_int a b] is the non-negative least common multiple. *)
let lcm_int a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd_int a b

(** [range n] is [[0; 1; ...; n-1]]. *)
let range n = List.init n (fun i -> i)

(** [sum_by f l] sums [f x] over the elements of [l]. *)
let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

(** [list_max l] is the maximum element of a non-empty integer list. *)
let list_max = function
  | [] -> invalid_arg "Putil.list_max: empty list"
  | x :: rest -> List.fold_left max x rest

(** [take n l] is the first [n] elements of [l] (or all of [l] if shorter). *)
let rec take n l =
  match (n, l) with
  | 0, _ | _, [] -> []
  | n, x :: rest -> x :: take (n - 1) rest

(** [drop n l] is [l] without its first [n] elements. *)
let rec drop n l =
  match (n, l) with
  | 0, l -> l
  | _, [] -> []
  | n, _ :: rest -> drop (n - 1) rest

(** [concat_map_i f l] maps [f i x] over [l] with indices and concatenates. *)
let concat_map_i f l = List.concat (List.mapi f l)

(** [array_for_all2 p a b] checks [p a.(i) b.(i)] for all indices; the arrays
    must have equal length. *)
let array_for_all2 p a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Putil.array_for_all2";
  let rec loop i = i >= n || (p a.(i) b.(i) && loop (i + 1)) in
  loop 0

(** [pp_list sep pp] formats a list with separator [sep], interpreted as a
    format string so break hints like ["@,"] work. *)
let pp_list sep pp fmt l =
  let sep_fmt = Scanf.format_from_string sep "" in
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt sep_fmt) pp fmt l

(** [string_of_format f] renders a formatter-based printer to a string. *)
let string_of_format pp x = Format.asprintf "%a" pp x

(** Fixed-point iteration: applies [step] until it returns [None], threading
    the state; returns the final state. *)
let rec fixpoint step state =
  match step state with None -> state | Some state' -> fixpoint step state'

(** A counter-based fresh-name generator. *)
(* The single source of deterministic randomness for the whole repository:
   the fuzz suites, the differential tester and the autotuner's search order
   all derive their [Random.State.t] from here, so one environment variable
   (PLUTO_FUZZ_SEED) reproduces any randomized run exactly.  Nothing in the
   libraries may call [Random.self_init]. *)
module Seed = struct
  let default = 20080613 (* PLDI'08 *)

  let of_env ?(var = "PLUTO_FUZZ_SEED") ~default () =
    match Sys.getenv_opt var with
    | None | Some "" -> default
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n -> n
        | None -> failwith (Printf.sprintf "%s=%S is not an integer" var s))

  let state seed = Random.State.make [| seed |]
end

module Fresh = struct
  type t = { prefix : string; mutable next : int }

  let create prefix = { prefix; next = 0 }

  let next t =
    let name = Printf.sprintf "%s%d" t.prefix t.next in
    t.next <- t.next + 1;
    name
end
