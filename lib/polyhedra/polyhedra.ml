type kind = Eq | Ge

type constr = { kind : kind; coefs : Vec.t }

type t = { nvars : int; cs : constr list }

let check_len nvars (v : Vec.t) =
  if Vec.length v <> nvars + 1 then
    invalid_arg
      (Printf.sprintf "Polyhedra: constraint width %d, expected %d"
         (Vec.length v) (nvars + 1))

let ge coefs = { kind = Ge; coefs }
let eq coefs = { kind = Eq; coefs }
let ge_ints l = ge (Vec.of_int_list l)
let eq_ints l = eq (Vec.of_int_list l)
let universe nvars = { nvars; cs = [] }

let of_constrs nvars cs =
  List.iter (fun c -> check_len nvars c.coefs) cs;
  { nvars; cs }

let add t c =
  check_len t.nvars c.coefs;
  { t with cs = c :: t.cs }

let meet a b =
  if a.nvars <> b.nvars then invalid_arg "Polyhedra.meet: dimension mismatch";
  { a with cs = a.cs @ b.cs }

let insert_vars t ~at ~count =
  if at < 0 || at > t.nvars || count < 0 then invalid_arg "Polyhedra.insert_vars";
  let widen c =
    let coefs =
      Array.init
        (t.nvars + count + 1)
        (fun j ->
          if j < at then c.coefs.(j)
          else if j < at + count then Bigint.zero
          else c.coefs.(j - count))
    in
    { c with coefs }
  in
  { nvars = t.nvars + count; cs = List.map widen t.cs }

let drop_vars t ~at ~count =
  if at < 0 || at + count > t.nvars || count < 0 then invalid_arg "Polyhedra.drop_vars";
  let narrow c =
    for j = at to at + count - 1 do
      if not (Bigint.is_zero c.coefs.(j)) then
        invalid_arg "Polyhedra.drop_vars: variable still constrained"
    done;
    let coefs =
      Array.init
        (t.nvars - count + 1)
        (fun j -> if j < at then c.coefs.(j) else c.coefs.(j + count))
    in
    { c with coefs }
  in
  { nvars = t.nvars - count; cs = List.map narrow t.cs }

let rename t perm =
  if Array.length perm <> t.nvars then invalid_arg "Polyhedra.rename";
  let permute c =
    let coefs =
      Array.init (t.nvars + 1) (fun j ->
          if j = t.nvars then c.coefs.(t.nvars) else c.coefs.(perm.(j)))
    in
    { c with coefs }
  in
  { t with cs = List.map permute t.cs }

let involves c v = not (Bigint.is_zero c.coefs.(v))

let constr_value c p =
  let n = Array.length c.coefs - 1 in
  if Array.length p <> n then invalid_arg "Polyhedra.constr_value";
  let acc = ref c.coefs.(n) in
  for j = 0 to n - 1 do
    acc := Bigint.add !acc (Bigint.mul c.coefs.(j) p.(j))
  done;
  !acc

let sat_point t p =
  List.for_all
    (fun c ->
      let v = constr_value c p in
      match c.kind with Eq -> Bigint.is_zero v | Ge -> Bigint.sign v >= 0)
    t.cs

let equal_constr a b = a.kind = b.kind && Vec.equal a.coefs b.coefs

(* A constraint whose variable part is all-zero is trivially decidable. *)
let var_part_zero c =
  let n = Array.length c.coefs - 1 in
  let rec loop j = j >= n || (Bigint.is_zero c.coefs.(j) && loop (j + 1)) in
  loop 0

let normalize_constr ~integer c =
  if var_part_zero c then begin
    let k = c.coefs.(Array.length c.coefs - 1) in
    let sat =
      match c.kind with Eq -> Bigint.is_zero k | Ge -> Bigint.sign k >= 0
    in
    if sat then Ok None else Error ()
  end
  else begin
    let n = Array.length c.coefs - 1 in
    (* content of the variable part only *)
    let g = ref Bigint.zero in
    for j = 0 to n - 1 do
      g := Bigint.gcd !g c.coefs.(j)
    done;
    let g = !g in
    if Bigint.is_one g then Ok (Some c)
    else
      match c.kind with
      | Eq ->
          if Bigint.is_zero (Bigint.rem c.coefs.(n) g) then
            Ok (Some { c with coefs = Array.map (fun x -> Bigint.div x g) c.coefs })
          else if integer then
            (* g divides every variable term but not the constant, so the
               left-hand side is ≡ k (mod g) with k ≠ 0 at every integer
               point: the equality — and the whole system — is unsatisfiable.
               (Over the rationals the row is still fine, hence the gate.) *)
            Error ()
          else Ok (Some { c with coefs = Vec.normalize c.coefs })
      | Ge ->
          if integer then
            Ok
              (Some
                 { c with
                   coefs =
                     Array.mapi
                       (fun j x ->
                         if j = n then Bigint.fdiv x g else Bigint.div x g)
                       c.coefs
                 })
          else Ok (Some { c with coefs = Vec.normalize c.coefs })
  end

exception Empty

let simplify ?(integer = false) t =
  try
    let cs =
      List.filter_map
        (fun c ->
          match normalize_constr ~integer c with
          | Ok r -> r
          | Error () -> raise Empty)
        t.cs
    in
    (* Dedup; for inequalities with identical variable parts keep the tightest
       constant (largest lower bound means smallest constant ... for
       row·x + k >= 0 the tightest is the smallest k).  One hash pass keyed by
       the variable part (full row for equalities) instead of the old
       quadratic pairwise scan — this runs after every Fourier–Motzkin step,
       so projection chains no longer re-derive dominated rows. *)
    let n = t.nvars in
    let key c =
      let b = Buffer.create 32 in
      Buffer.add_char b (match c.kind with Eq -> 'e' | Ge -> 'g');
      let upto = match c.kind with Eq -> n | Ge -> n - 1 in
      for j = 0 to upto do
        Buffer.add_string b (Bigint.to_string c.coefs.(j));
        Buffer.add_char b ','
      done;
      Buffer.contents b
    in
    let items : (string, (int * constr) ref) Hashtbl.t = Hashtbl.create 64 in
    let keys = ref [] in
    List.iteri
      (fun i c ->
        let k = key c in
        match Hashtbl.find_opt items k with
        | None ->
            Hashtbl.add items k (ref (i, c));
            keys := k :: !keys
        | Some r ->
            (* same variable part: an equality duplicate is dropped, an
               inequality survives as the strictly tighter of the two (the
               tighter row keeps its own position) *)
            let _, kept = !r in
            if c.kind = Ge && Bigint.compare c.coefs.(n) kept.coefs.(n) < 0
            then r := (i, c))
      cs;
    let survivors = List.rev_map (fun k -> !(Hashtbl.find items k)) !keys in
    let survivors =
      List.sort (fun (i, _) (j, _) -> Stdlib.compare i j) survivors
    in
    Some { t with cs = List.map snd survivors }
  with Empty -> None

(* ---------------------------- canonical form ---------------------------- *)

(* Equalities sort before inequalities; within a kind, rows are ordered by
   their (normalized) coefficient vectors. *)
let compare_constr a b =
  match (a.kind, b.kind) with
  | Eq, Ge -> -1
  | Ge, Eq -> 1
  | Eq, Eq | Ge, Ge -> Vec.compare a.coefs b.coefs

(* An equality row is sign-ambiguous (c = 0 iff -c = 0); fix the sign so the
   first non-zero variable coefficient is positive. *)
let sign_fix_eq c =
  match c.kind with
  | Ge -> c
  | Eq ->
      let n = Array.length c.coefs - 1 in
      let rec first j =
        if j >= n then Bigint.sign c.coefs.(n)
        else
          let s = Bigint.sign c.coefs.(j) in
          if s <> 0 then s else first (j + 1)
      in
      if first 0 < 0 then { c with coefs = Vec.neg c.coefs } else c

let canon ?(integer = false) t =
  match simplify ~integer t with
  | None -> None
  | Some s ->
      let cs = List.map sign_fix_eq s.cs in
      Some { s with cs = List.sort_uniq compare_constr cs }

let digest t =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int t.nvars);
  Buffer.add_char b '|';
  List.iter
    (fun c ->
      Buffer.add_char b (match c.kind with Eq -> 'e' | Ge -> 'g');
      Array.iter
        (fun x ->
          Buffer.add_string b (Bigint.to_string x);
          Buffer.add_char b ',')
        c.coefs)
    t.cs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Substitute variable [v] away using equality [e] (with nonzero coef on v)
   in constraint [c]: scale so the v-coefficients cancel, keeping the
   inequality direction (multiply c by |a_e| and e by ∓a_c appropriately). *)
let subst_eq e v c =
  let ae = e.coefs.(v) and ac = c.coefs.(v) in
  if Bigint.is_zero ac then c
  else begin
    (* c' = |ae| * c - (ac * sign(ae)/1) * e  gives coefficient
       |ae|*ac - ac*sign(ae)*ae = ac*(|ae| - sign(ae)*ae) = 0 on v. *)
    let s = Bigint.of_int (Bigint.sign ae) in
    let c_scaled = Vec.scale (Bigint.abs ae) c.coefs in
    let e_scaled = Vec.scale (Bigint.mul s ac) e.coefs in
    { c with coefs = Vec.sub c_scaled e_scaled }
  end

(* Fourier-Motzkin can square the constraint count at every elimination; the
   guard bounds the system size so a pathological input degrades (via
   [Diag.Budget_exceeded], caught at layer boundaries) instead of exhausting
   memory. *)
let default_max_constrs = 200_000

let eliminate ?(max_constrs = default_max_constrs) t v =
  if v < 0 || v >= t.nvars then invalid_arg "Polyhedra.eliminate";
  Stats.incr "fm.eliminations";
  (* Prefer an equality pivot: exact and avoids the quadratic FM blowup. *)
  match List.find_opt (fun c -> c.kind = Eq && involves c v) t.cs with
  | Some e ->
      Stats.incr "fm.rows_eliminated";
      let cs = List.filter (fun c -> c != e) t.cs in
      let cs = List.map (subst_eq e v) cs in
      simplify { t with cs }
  | None ->
      let pos, neg, rest =
        List.fold_left
          (fun (pos, neg, rest) c ->
            let s = Bigint.sign c.coefs.(v) in
            if s > 0 then (c :: pos, neg, rest)
            else if s < 0 then (pos, c :: neg, rest)
            else (pos, neg, c :: rest))
          ([], [], []) t.cs
      in
      let npos = List.length pos and nneg = List.length neg in
      Stats.add "fm.rows_eliminated" (npos + nneg);
      if npos * nneg + List.length rest > max_constrs then
        raise
          (Diag.Budget_exceeded
             (Printf.sprintf
                "Polyhedra.eliminate: Fourier-Motzkin row explosion (%d x %d \
                 products + %d rows exceeds the %d-constraint budget)"
                npos nneg (List.length rest) max_constrs));
      let combos =
        List.concat_map
          (fun p ->
            List.map
              (fun n ->
                (* p: a*v + f >= 0 (a>0);  n: -b*v + g >= 0 (b>0)
                   =>  b*f + a*g >= 0 *)
                let a = p.coefs.(v) and b = Bigint.neg n.coefs.(v) in
                ge (Vec.add (Vec.scale b p.coefs) (Vec.scale a n.coefs)))
              neg)
          pos
      in
      simplify { t with cs = rest @ combos }

let eliminate_many ?max_constrs t vars =
  List.fold_left
    (fun acc v -> match acc with None -> None | Some t -> eliminate ?max_constrs t v)
    (Some t) vars

let is_empty_rational t =
  match eliminate_many t (Putil.range t.nvars) with
  | None -> true
  | Some t' -> (
      (* all columns zero: constraints are constant; simplify decides *)
      match simplify t' with None -> true | Some _ -> false)

(* Memoized rational emptiness, keyed by the digest of the canonical form so
   syntactic permutations and rescalings of the same system share one entry.
   The dependence tester and the verifier probe thousands of near-identical
   systems; this cache answers the repeats without re-running elimination. *)
let empty_cache : bool Memo.t =
  Memo.create ~kind:"poly-empty" ~hits:"poly.empty_cache_hits"
    ~misses:"poly.empty_cache_misses" ~evictions:"poly.cache_evictions" ()

let empty_cache_enabled = ref true
let set_empty_cache b = empty_cache_enabled := b
let clear_caches () = Memo.clear empty_cache

let is_empty_cached ?(integer = false) t =
  match canon ~integer t with
  | None -> true (* canonicalization already proved the system empty *)
  | Some c ->
      if not !empty_cache_enabled then is_empty_rational c
      else
        Memo.lookup empty_cache
          ((if integer then "i:" else "q:") ^ string_of_int c.nvars ^ digest c)
          (fun () -> is_empty_rational c)

let bounds_on t v =
  List.fold_left
    (fun (lower, upper, rest) c ->
      let s = Bigint.sign c.coefs.(v) in
      match (c.kind, s) with
      | _, 0 -> (lower, upper, c :: rest)
      | Ge, s when s > 0 -> (c :: lower, upper, rest)
      | Ge, _ -> (lower, c :: upper, rest)
      | Eq, _ ->
          (* an equality bounds from both sides *)
          let as_ge = { kind = Ge; coefs = c.coefs } in
          let as_le = { kind = Ge; coefs = Vec.neg c.coefs } in
          if s > 0 then (as_ge :: lower, as_le :: upper, rest)
          else (as_le :: lower, as_ge :: upper, rest))
    ([], [], []) t.cs

let default_names n = Array.init n (fun i -> Printf.sprintf "x%d" i)

let pp_constr ?names fmt c =
  let n = Array.length c.coefs - 1 in
  let names = match names with Some a -> a | None -> default_names n in
  let first = ref true in
  for j = 0 to n - 1 do
    let a = c.coefs.(j) in
    if not (Bigint.is_zero a) then begin
      let s = Bigint.sign a in
      let a_abs = Bigint.abs a in
      if !first then begin
        if s < 0 then Format.pp_print_string fmt "-";
        first := false
      end
      else Format.pp_print_string fmt (if s < 0 then " - " else " + ");
      if not (Bigint.is_one a_abs) then Format.fprintf fmt "%a*" Bigint.pp a_abs;
      Format.pp_print_string fmt names.(j)
    end
  done;
  let k = c.coefs.(n) in
  if !first then Format.fprintf fmt "%a" Bigint.pp k
  else if Bigint.sign k > 0 then Format.fprintf fmt " + %a" Bigint.pp k
  else if Bigint.sign k < 0 then Format.fprintf fmt " - %a" Bigint.pp (Bigint.abs k);
  Format.pp_print_string fmt (match c.kind with Eq -> " = 0" | Ge -> " >= 0")

let pp ?names fmt t =
  Format.fprintf fmt "@[<v>{ nvars = %d@," t.nvars;
  List.iter (fun c -> Format.fprintf fmt "  %a@," (pp_constr ?names) c) t.cs;
  Format.fprintf fmt "}@]"
