(** Order statistics over wall-clock samples: every timing the benchmark
    reports is a median with its quartiles and sample count. *)

type summary = { median : float; p25 : float; p75 : float; n : int }

(* Linear interpolation between closest ranks (position q·(n-1)), the
   numpy/R-7 default. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let summarize xs =
  { median = median xs; p25 = quantile xs 0.25; p75 = quantile xs 0.75;
    n = List.length xs }

(* A value measured once (a count or a deterministic ratio). *)
let exact v = { median = v; p25 = v; p75 = v; n = 1 }

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* Relative interquartile spread, the noise measure [--compare] holds
   against each metric's bound. *)
let spread s = if s.median = 0.0 then 0.0 else (s.p75 -. s.p25) /. Float.abs s.median
