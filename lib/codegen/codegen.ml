open Pluto.Types

type iexpr =
  | Affine of int array
  | Floord of iexpr * int
  | Ceild of iexpr * int
  | Emin of iexpr list
  | Emax of iexpr list

type guard = Ge0 of int array | Mod0 of int array * int

type ast =
  | For of {
      level : int;
      parallel : bool;
      lb : iexpr;
      ub : iexpr;
      body : ast list;
    }
  | Leaf of {
      stmt_idx : int;
      guards : guard list;
      args : (int array * int) array;
    }

type t = {
  target : Pluto.Types.target;
  nlevels : int;
  nparams : int;
  body : ast list;
  unroll : int array;
  reductions : (string * string) list array;
}

exception Codegen_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

(* ------------------------- LP redundancy pruning ------------------------- *)

(* Drop inequalities implied by the rest of the system (rational test). *)
let prune_lp (sys : Polyhedra.t) =
  let cs = Array.of_list sys.Polyhedra.cs in
  let n = sys.Polyhedra.nvars in
  let kept = Array.map (fun _ -> true) cs in
  Array.iteri
    (fun i (c : Polyhedra.constr) ->
      if c.Polyhedra.kind = Polyhedra.Ge then begin
        let rest =
          List.concat
            (List.mapi
               (fun j k -> if j <> i && kept.(j) then [ k ] else [])
               (Array.to_list cs))
        in
        let obj = Array.init n (fun v -> Q.of_bigint c.Polyhedra.coefs.(v)) in
        match Milp.lp (Polyhedra.of_constrs n rest) obj with
        | Milp.Lp_optimal (v, _) ->
            let vk = Q.add v (Q.of_bigint c.Polyhedra.coefs.(n)) in
            if Q.sign vk >= 0 then kept.(i) <- false
        | Milp.Lp_unbounded | Milp.Lp_infeasible -> ()
      end)
    cs;
  let cs' =
    List.concat
      (List.mapi (fun i k -> if kept.(i) then [ k ] else []) (Array.to_list cs))
  in
  { sys with Polyhedra.cs = cs' }

(* ----------------------- per-statement preparation ----------------------- *)

type stmt_info = {
  si_idx : int;
  si_ts : tstmt;
  si_projs : Polyhedra.t array;  (* level l: over (c_0..c_l live, params) *)
  si_args : (int array * int) array;  (* per ext iterator *)
  si_mod_guards : guard list;
}

(* Choose a full-rank subset of scattering rows and invert it to express the
   extended iterators as (affine in c) / divisor. *)
let invert_scattering ~nlevels ~np (ts : tstmt) =
  let k = Array.length ts.ext_iters in
  let width = nlevels + np + 1 in
  let chosen = ref [] in
  let rank_of rows =
    if rows = [] then 0
    else Mat.rank (Mat.of_int_rows (Array.of_list (List.map (fun l -> Array.sub ts.trows.(l) 0 k) rows)))
  in
  for l = 0 to Array.length ts.trows - 1 do
    if rank_of !chosen < k && rank_of (!chosen @ [ l ]) > rank_of !chosen then
      chosen := !chosen @ [ l ]
  done;
  if rank_of !chosen < k then
    fail "scattering of %s has rank %d < %d extended iterators"
      ts.stmt.Ir.name (rank_of !chosen) k;
  let levels = Array.of_list !chosen in
  let r = Mat.of_int_rows (Array.map (fun l -> Array.sub ts.trows.(l) 0 k) levels) in
  let inv =
    match Mat.inverse r with
    | Some m -> m
    | None -> fail "scattering inversion failed for %s" ts.stmt.Ir.name
  in
  let args =
    Array.init k (fun i ->
        (* x_i = sum_j inv[i][j] * (c_{levels[j]} - const_j) *)
        let d =
          Array.fold_left
            (fun acc q -> Bigint.lcm acc (Q.den q))
            Bigint.one inv.(i)
        in
        let row = Array.make width 0 in
        Array.iteri
          (fun j l ->
            let a =
              Bigint.to_int
                (Bigint.div (Bigint.mul (Q.num inv.(i).(j)) d) (Q.den inv.(i).(j)))
            in
            row.(l) <- row.(l) + a;
            let cst = ts.trows.(l).(k) in
            row.(width - 1) <- row.(width - 1) - (a * cst))
          levels;
        (row, Bigint.to_int d))
  in
  let mod_guards =
    Array.to_list args
    |> List.filter_map (fun (row, d) -> if d > 1 then Some (Mod0 (row, d)) else None)
  in
  (args, mod_guards)

(* CLooG's context: the assumed lower bound on every structure parameter. *)
let context_min = 1

let prepare (tgt : target) =
  let nlevels = tgt.tnlevels in
  let np = List.length tgt.tprogram.Ir.params in
  List.filter_map
    (fun (si_idx, ts) ->
      let ext_n = Array.length ts.ext_iters in
      (* E_S over [c (nlevels); x (ext_n); params (np)] *)
      let nv = nlevels + ext_n + np in
      let dom = Polyhedra.insert_vars ts.ext_domain ~at:0 ~count:nlevels in
      let eqs =
        List.map
          (fun l ->
            let row = Vec.zero (nv + 1) in
            row.(l) <- Bigint.one;
            let tr = ts.trows.(l) in
            for q = 0 to ext_n - 1 do
              row.(nlevels + q) <- Bigint.of_int (-tr.(q))
            done;
            row.(nv) <- Bigint.of_int (-tr.(ext_n));
            Polyhedra.eq row)
          (Putil.range nlevels)
      in
      let context =
        List.map
          (fun j ->
            let row = Vec.zero (nv + 1) in
            row.(nlevels + ext_n + j) <- Bigint.one;
            row.(nv) <- Bigint.of_int (-context_min);
            Polyhedra.ge row)
          (Putil.range np)
      in
      let esys = Polyhedra.meet dom (Polyhedra.of_constrs nv (eqs @ context)) in
      (* eliminate the extended iterators *)
      match
        Polyhedra.eliminate_many esys
          (List.map (fun q -> nlevels + q) (Putil.range ext_n))
      with
      | None -> None (* empty domain: statement never executes *)
      | Some projected -> (
          (* an emptiness discovered anywhere down the projection chain means
             the statement never executes (e.g. a domain empty only by
             integer reasoning): drop it *)
          let exception Empty_statement in
          try
            let projected =
              Polyhedra.drop_vars projected ~at:nlevels ~count:ext_n
            in
            let si_projs = Array.make nlevels projected in
            let rec down l sys =
              si_projs.(l) <- prune_lp sys;
              if l > 0 then
                match Polyhedra.eliminate sys l with
                | None -> raise Empty_statement
                | Some sys' -> down (l - 1) sys'
            in
            (match Polyhedra.simplify ~integer:true projected with
            | None -> raise Empty_statement
            | Some p -> down (nlevels - 1) p);
            let si_args, si_mod_guards = invert_scattering ~nlevels ~np ts in
            Some { si_idx; si_ts = ts; si_projs; si_args; si_mod_guards }
          with Empty_statement -> None))
    (List.mapi (fun i ts -> (i, ts)) tgt.tstmts)

(* ------------------------------ generation ------------------------------- *)

let bigrow_to_int (v : Vec.t) = Array.map Bigint.to_int v

(* lower bound expr from a constraint  a*c_l + rest >= 0, a > 0:
   c_l >= ceild(-rest, a) *)
let lb_expr ~level (c : Polyhedra.constr) =
  let row = bigrow_to_int c.Polyhedra.coefs in
  let a = row.(level) in
  assert (a > 0);
  let rest = Array.mapi (fun j v -> if j = level then 0 else -v) row in
  if a = 1 then Affine rest else Ceild (Affine rest, a)

let ub_expr ~level (c : Polyhedra.constr) =
  let row = bigrow_to_int c.Polyhedra.coefs in
  let a = row.(level) in
  assert (a < 0);
  let rest = Array.mapi (fun j v -> if j = level then 0 else v) row in
  if a = -1 then Affine rest else Floord (Affine rest, -a)

(* drop the extended-iterator columns from the projection row widths: the
   projections are already over (c, params) only, width nlevels+np+1. *)


let rec equal_iexpr a b =
  match (a, b) with
  | Affine x, Affine y -> x = y
  | Floord (x, d), Floord (y, e) | Ceild (x, d), Ceild (y, e) ->
      d = e && equal_iexpr x y
  | Emin xs, Emin ys | Emax xs, Emax ys ->
      List.length xs = List.length ys && List.for_all2 equal_iexpr xs ys
  | _ -> false

let mk_max = function [ e ] -> e | es -> Emax es
let mk_min = function [ e ] -> e | es -> Emin es

(* Minimal leaf guards: constraints of the statement's innermost projection
   that are not implied (rational LP) by the constraints already enforced by
   the enclosing loop bounds.  The projection system is exactly statement
   membership (modulo the stride guards), so this both minimizes and
   completes the per-level guard accumulation. *)
let leaf_guards (si : stmt_info) ~nlevels ~(enforced : Polyhedra.constr list) =
  let full = si.si_projs.(nlevels - 1) in
  let nv = full.Polyhedra.nvars in
  let enforced_sys = Polyhedra.of_constrs nv enforced in
  let implied (c : Polyhedra.constr) =
    List.exists (fun e -> Polyhedra.equal_constr e c) enforced
    ||
    let obj = Array.init nv (fun v -> Q.of_bigint c.Polyhedra.coefs.(v)) in
    match Milp.lp enforced_sys obj with
    | Milp.Lp_optimal (v, _) ->
        Q.sign (Q.add v (Q.of_bigint c.Polyhedra.coefs.(nv))) >= 0
    | Milp.Lp_unbounded | Milp.Lp_infeasible -> false
  in
  List.concat_map
    (fun (c : Polyhedra.constr) ->
      match c.Polyhedra.kind with
      | Polyhedra.Ge -> if implied c then [] else [ Ge0 (bigrow_to_int c.Polyhedra.coefs) ]
      | Polyhedra.Eq ->
          let pos = { c with Polyhedra.kind = Polyhedra.Ge } in
          let neg = { pos with Polyhedra.coefs = Vec.neg c.Polyhedra.coefs } in
          List.filter_map
            (fun g ->
              if implied g then None else Some (Ge0 (bigrow_to_int g.Polyhedra.coefs)))
            [ pos; neg ])
    full.Polyhedra.cs

(* Separation at a loop level: partition the active statements into groups
   whose c_l ranges may overlap; distinct groups are provably disjoint AND
   uniformly ordered (for every shared outer prefix), so they can be emitted
   as consecutive loops while preserving the scattering order. *)
let separate_groups ~l (active : (stmt_info * Polyhedra.constr list) list) =
  match active with
  | [] | [ _ ] -> [ active ]
  | _ ->
      let arr = Array.of_list active in
      let n = Array.length arr in
      let proj i = (fst arr.(i)).si_projs.(l) in
      let nonempty sys = not (Polyhedra.is_empty_rational sys) in
      let overlap i j = nonempty (Polyhedra.meet (proj i) (proj j)) in
      (* [before i j]: every c_l of statement i is strictly below every c_l of
         statement j under any common outer prefix.  Rename j's c_l to a fresh
         column and test emptiness of { c_l(i) >= c_l(j) }. *)
      let before i j =
        let a = proj i and b = proj j in
        let w = a.Polyhedra.nvars in
        let wa = Polyhedra.insert_vars a ~at:w ~count:1 in
        let wb0 = Polyhedra.insert_vars b ~at:w ~count:1 in
        let wb =
          {
            wb0 with
            Polyhedra.cs =
              List.map
                (fun (c : Polyhedra.constr) ->
                  let coefs = Vec.copy c.Polyhedra.coefs in
                  coefs.(w) <- coefs.(l);
                  coefs.(l) <- Bigint.zero;
                  { c with Polyhedra.coefs })
                wb0.Polyhedra.cs;
          }
        in
        let ge =
          let r = Vec.zero (w + 2) in
          r.(l) <- Bigint.one;
          r.(w) <- Bigint.minus_one;
          Polyhedra.ge r
        in
        not (nonempty (Polyhedra.add (Polyhedra.meet wa wb) ge))
      in
      let parent = Array.init n (fun i -> i) in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      let union i j = parent.(find i) <- find j in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if find i <> find j then
            if overlap i j || ((not (before i j)) && not (before j i)) then
              union i j
        done
      done;
      let reps = List.sort_uniq compare (List.map find (Putil.range n)) in
      if List.length reps = 1 then [ active ]
      else begin
        let groups =
          List.map
            (fun r ->
              let members =
                List.concat
                  (List.mapi
                     (fun i entry -> if find i = r then [ (i, entry) ] else [])
                     active)
              in
              members)
            reps
        in
        List.sort
          (fun ga gb ->
            let ia, _ = List.hd ga and ib, _ = List.hd gb in
            if before ia ib then -1 else 1)
          groups
        |> List.map (List.map snd)
      end

let generate (tgt : target) =
  let nlevels = tgt.tnlevels in
  let np = List.length tgt.tprogram.Ir.params in
  let infos = prepare tgt in
  let width = nlevels + np + 1 in
  let context_rows =
    List.map
      (fun j ->
        let row = Vec.zero width in
        row.(nlevels + j) <- Bigint.one;
        row.(width - 1) <- Bigint.of_int (-context_min);
        Polyhedra.ge row)
      (Putil.range np)
  in
  (* [active]: statement plus the constraint rows its enclosing loops enforce *)
  let rec gen l (active : (stmt_info * Polyhedra.constr list) list) : ast list =
    if active = [] then []
    else if l = nlevels then
      List.map
        (fun (si, enforced) ->
          Leaf
            {
              stmt_idx = si.si_idx;
              guards = leaf_guards si ~nlevels ~enforced @ si.si_mod_guards;
              args = si.si_args;
            })
        active
    else begin
      match tgt.tkinds.(l) with
      | Scalar ->
          (* group by the constant scattering value, ascending *)
          let value (si, _) =
            let ts = si.si_ts in
            let k = Array.length ts.ext_iters in
            let row = ts.trows.(l) in
            if Array.exists (fun q -> q <> 0) (Array.sub row 0 k) then
              fail "scalar level %d of %s has iterator coefficients" l
                ts.stmt.Ir.name;
            row.(k)
          in
          let groups = Hashtbl.create 4 in
          List.iter
            (fun entry ->
              let v = value entry in
              Hashtbl.replace groups v
                (entry :: (try Hashtbl.find groups v with Not_found -> [])))
            active;
          let values = List.sort_uniq compare (List.map value active) in
          List.concat_map
            (fun v ->
              let const = Array.make width 0 in
              const.(width - 1) <- v;
              let eq_row = Vec.zero width in
              eq_row.(l) <- Bigint.one;
              eq_row.(width - 1) <- Bigint.of_int (-v);
              let group =
                List.rev (Hashtbl.find groups v)
                |> List.map (fun (si, enf) -> (si, Polyhedra.eq eq_row :: enf))
              in
              [
                For
                  {
                    level = l;
                    parallel = false;
                    lb = Affine const;
                    ub = Affine const;
                    body = gen (l + 1) group;
                  };
              ])
            values
      | Loop _ ->
          (* Quilleré-lite separation: statements whose c_l ranges provably
             never overlap (for any shared outer prefix) are emitted as
             consecutive loops instead of one union loop with guards — this
             is what keeps, e.g., LU's 2-d statement from being scanned by
             the 3-d statement's loops. *)
          let groups = separate_groups ~l active in
          List.concat_map
            (fun group ->
              let with_bounds =
                List.map
                  (fun (si, enforced) ->
                    let lower, upper, _rest =
                      Polyhedra.bounds_on si.si_projs.(l) l
                    in
                    if lower = [] || upper = [] then
                      fail "level %d of %s is unbounded" l
                        si.si_ts.stmt.Ir.name;
                    let lb = mk_max (List.map (lb_expr ~level:l) lower) in
                    let ub = mk_min (List.map (ub_expr ~level:l) upper) in
                    ((si, enforced), (lb, ub, lower @ upper)))
                  group
              in
              let (_, (lb0, ub0, _)) = List.hd with_bounds in
              let all_same =
                List.for_all
                  (fun (_, (lb, ub, _)) ->
                    equal_iexpr lb lb0 && equal_iexpr ub ub0)
                  with_bounds
              in
              let lb, ub =
                if all_same then (lb0, ub0)
                else
                  ( mk_min (List.map (fun (_, (lb, _, _)) -> lb) with_bounds),
                    mk_max (List.map (fun (_, (_, ub, _)) -> ub) with_bounds) )
              in
              let active' =
                if all_same then
                  (* the loop bounds enforce each statement's own rows *)
                  List.map
                    (fun ((si, enforced), (_, _, rows)) ->
                      (si, rows @ enforced))
                    with_bounds
                else begin
                  (* a bound row present in EVERY statement's bound set is
                     still enforced by the union loop *)
                  match with_bounds with
                  | [] -> []
                  | (_, (_, _, rows0)) :: rest ->
                      let shared =
                        List.filter
                          (fun r ->
                            List.for_all
                              (fun (_, (_, _, rows)) ->
                                List.exists (Polyhedra.equal_constr r) rows)
                              rest)
                          rows0
                      in
                      List.map
                        (fun ((si, enforced), _) -> (si, shared @ enforced))
                        with_bounds
                end
              in
              [
                For
                  {
                    level = l;
                    parallel = tgt.tpar.(l) = Par;
                    lb;
                    ub;
                    body = gen (l + 1) active';
                  };
              ])
            groups
    end
  in
  let body = gen 0 (List.map (fun si -> (si, context_rows)) infos) in
  {
    target = tgt;
    nlevels;
    nparams = np;
    body;
    unroll = Array.make nlevels 1;
    reductions = Array.make nlevels [];
  }

let rec ast_size = function
  | For { body; _ } -> 1 + Putil.sum_by ast_size body
  | Leaf _ -> 1

let size t = Putil.sum_by ast_size t.body

(* ------------------------------ unroll-jam ------------------------------- *)

(* A loop is "innermost" when its body contains no further loop; eligible for
   the unroll-jam annotation when its level is a parallel hyperplane or a
   §5.4 forced-vectorization level — the loops whose iterations are
   independent, so jamming is legal by the same argument that justifies the
   OpenMP/ivdep marks already on them. *)
let with_unroll_innermost t ~factor =
  if factor <= 1 then t
  else begin
    let eligible level =
      t.target.tvec.(level)
      || Pluto.Types.is_parallel_loop t.target.tkinds.(level)
      || t.target.tpar.(level) = Pluto.Types.Par
    in
    let unroll = Array.copy t.unroll in
    let marked = ref false in
    let rec walk = function
      | Leaf _ -> ()
      | For { level; body; _ } ->
          let has_inner_for =
            List.exists (function For _ -> true | Leaf _ -> false) body
          in
          if (not has_inner_for) && eligible level then begin
            unroll.(level) <- factor;
            marked := true
          end;
          List.iter walk body
    in
    List.iter walk t.body;
    if !marked then { t with unroll } else t
  end

let unrolled_levels t =
  List.filter (fun l -> t.unroll.(l) > 1) (Putil.range (Array.length t.unroll))

(* --------------------------- reduction clauses --------------------------- *)

let with_reductions t clauses =
  if Array.length clauses <> t.nlevels then
    invalid_arg "Codegen.with_reductions: clause array length";
  { t with reductions = clauses }

(* ------------------------------- C printer ------------------------------- *)

let var_names t =
  Array.append
    (Array.init t.nlevels (fun l -> Printf.sprintf "c%d" (l + 1)))
    (Array.of_list t.target.tprogram.Ir.params)

let rec pp_iexpr names fmt = function
  | Affine row -> Ir.pp_affine_row names fmt row
  | Floord (e, d) -> Format.fprintf fmt "floord(%a,%d)" (pp_iexpr names) e d
  | Ceild (e, d) -> Format.fprintf fmt "ceild(%a,%d)" (pp_iexpr names) e d
  | Emin es -> pp_nested names "min" fmt es
  | Emax es -> pp_nested names "max" fmt es

and pp_nested names f fmt = function
  | [] -> invalid_arg "Codegen.pp_nested: empty"
  | [ e ] -> pp_iexpr names fmt e
  | e :: rest ->
      Format.fprintf fmt "%s(%a,%a)" f (pp_iexpr names) e (pp_nested names f) rest

let pp_guard names fmt = function
  | Ge0 row -> Format.fprintf fmt "%a >= 0" (Ir.pp_affine_row names) row
  | Mod0 (row, d) -> Format.fprintf fmt "pmod(%a,%d) == 0" (Ir.pp_affine_row names) row d

let rec pp_ast t names fmt node =
  match node with
  | For { level; parallel; lb; ub; body } ->
      let v = names.(level) in
      let single = match (lb, ub) with Affine a, Affine b -> a = b | _ -> false in
      if t.target.Pluto.Types.tvec.(level) then
        (* vectorization forced by the transformation framework (§5.4) *)
        Format.fprintf fmt "@,#pragma ivdep";
      if t.unroll.(level) > 1 then
        Format.fprintf fmt "@,#pragma unroll(%d)" t.unroll.(level);
      (* a one-iteration loop prints as a block, which an OpenMP pragma may
         not precede (and one iteration has nothing to share) *)
      if parallel && not single then begin
        let privates =
          List.init (t.nlevels - level - 1) (fun j -> names.(level + 1 + j))
        in
        (* whole-array OpenMP reductions (4.5 C array reductions): each
           thread privatizes the array zero-initialized and the combiner
           folds the per-thread contributions into the live-in values, which
           is exactly what an [x op= e] accumulation computes *)
        let reds =
          List.map
            (fun (op, var) -> Printf.sprintf " reduction(%s:%s)" op var)
            t.reductions.(level)
        in
        Format.fprintf fmt "@,#pragma omp parallel for%s%s"
          (match privates with
          | [] -> ""
          | _ -> Printf.sprintf " private(%s)" (String.concat "," privates))
          (String.concat "" reds)
      end;
      if single then
        Format.fprintf fmt "@,@[<v 2>{ /* %s = constant */@,%s = %a;%a@]@,}" v v
          (pp_iexpr names) lb (pp_body t names) body
      else
        Format.fprintf fmt "@,@[<v 2>for (%s = %a; %s <= %a; %s++) {%a@]@,}" v
          (pp_iexpr names) lb v (pp_iexpr names) ub v (pp_body t names) body
  | Leaf { stmt_idx; guards; args } ->
      let ts = List.nth t.target.tstmts stmt_idx in
      let m = Ir.depth ts.stmt in
      let ext_n = Array.length ts.ext_iters in
      let orig_args = Array.sub args (ext_n - m) m in
      (* the statement macros paste their arguments into subscripts such as
         [A[-x + N - 1]], so every argument is parenthesized *)
      let pp_arg fmt (row, d) =
        if d = 1 then Format.fprintf fmt "(%a)" (Ir.pp_affine_row names) row
        else Format.fprintf fmt "((%a)/%d)" (Ir.pp_affine_row names) row d
      in
      let pp_call fmt () =
        Format.fprintf fmt "%s(%a);" ts.stmt.Ir.name
          (Putil.pp_list ", " pp_arg)
          (Array.to_list orig_args)
      in
      if guards = [] then Format.fprintf fmt "@,%a" pp_call ()
      else
        Format.fprintf fmt "@,@[<v 2>if (%a) {@,%a@]@,}"
          (Putil.pp_list " && " (pp_guard names))
          guards pp_call ()

and pp_body t names fmt body =
  List.iter (fun node -> pp_ast t names fmt node) body

let print_loop_nest fmt t =
  let names = var_names t in
  Format.fprintf fmt "@[<v>";
  List.iter (fun node -> pp_ast t names fmt node) t.body;
  Format.fprintf fmt "@]@."

let array_size_expr param_names (a : Ir.array_info) =
  (* product of "(extent + 2)" factors, as C source *)
  if Array.length a.Ir.extents = 0 then "1"
  else
    String.concat " * "
      (Array.to_list
         (Array.map
            (fun ext ->
              Printf.sprintf "(%s + 2)"
                (Putil.string_of_format (Ir.pp_affine_row param_names) ext))
            a.Ir.extents))

let print_c ?(instrument = false) fmt t =
  let p = t.target.tprogram in
  let names = var_names t in
  Format.fprintf fmt "@[<v>/* Generated by plutocc (OCaml Pluto reproduction) */@,";
  Format.fprintf fmt "#include <stdio.h>@,#include <stdlib.h>@,";
  if instrument then Format.fprintf fmt "#include <time.h>@,";
  Format.fprintf fmt "#ifdef _OPENMP@,#include <omp.h>@,#endif@,";
  Format.fprintf fmt
    "#define floord(n,d) (((n)<0) ? -((-(n)+(d)-1)/(d)) : (n)/(d))@,";
  Format.fprintf fmt
    "#define ceild(n,d)  (((n)<0) ? -((-(n))/(d)) : ((n)+(d)-1)/(d))@,";
  Format.fprintf fmt "#define pmod(n,d)   (((n)%%(d)+(d))%%(d))@,";
  Format.fprintf fmt "#define max(a,b)    (((a)>(b)) ? (a) : (b))@,";
  Format.fprintf fmt "#define min(a,b)    (((a)<(b)) ? (a) : (b))@,@,";
  List.iter
    (fun prm -> Format.fprintf fmt "#ifndef %s@,#define %s 500@,#endif@," prm prm)
    p.Ir.params;
  Format.fprintf fmt "@,";
  let param_names = Array.of_list p.Ir.params in
  List.iter
    (fun (a : Ir.array_info) ->
      if Array.length a.Ir.extents = 0 then
        Format.fprintf fmt "double %s;@," a.Ir.aname
      else begin
        Format.fprintf fmt "double %s" a.Ir.aname;
        Array.iter
          (fun ext ->
            Format.fprintf fmt "[%a + 2]" (Ir.pp_affine_row param_names) ext)
          a.Ir.extents;
        Format.fprintf fmt ";@,"
      end)
    p.Ir.arrays;
  Format.fprintf fmt "@,";
  (* statement macros over original iterator names *)
  List.iter
    (fun s ->
      Format.fprintf fmt "#define %s(%s) { %s }@," s.Ir.name
        (String.concat "," s.Ir.iters)
        s.Ir.text)
    p.Ir.stmts;
  if instrument then begin
    (* deterministic pseudo-random initialization — identical across the
       binaries being compared, which is all that matters *)
    let lines =
      [
        "";
        "static double init_value(long q) {";
        "  long z = (q + 40503) * 69069 % 1073741824;";
        "  z = (z ^ (z >> 13)) * 31337 % 1073741824;";
        "  return (double)(z % 65536) / 65536.0;";
        "}";
      ]
    in
    List.iter (fun l -> Format.fprintf fmt "@,%s" l) lines
  end;
  Format.fprintf fmt "@,@[<v 2>int main() {@,int %s;"
    (String.concat ", "
       (List.init t.nlevels (fun l -> Printf.sprintf "c%d" (l + 1))));
  if instrument then begin
    Format.fprintf fmt "@,long q_;@,struct timespec t0_, t1_;";
    List.iter
      (fun (a : Ir.array_info) ->
        if Array.length a.Ir.extents = 0 then
          Format.fprintf fmt "@,%s = init_value(0);" a.Ir.aname
        else
          Format.fprintf fmt "@,%s"
            (Printf.sprintf
               "for (q_ = 0; q_ < %s; q_++) ((double *)%s)[q_] = init_value(q_);"
               (array_size_expr param_names a) a.Ir.aname))
      p.Ir.arrays;
    Format.fprintf fmt "@,clock_gettime(CLOCK_MONOTONIC, &t0_);"
  end;
  List.iter (fun node -> pp_ast t names fmt node) t.body;
  if instrument then begin
    Format.fprintf fmt "@,clock_gettime(CLOCK_MONOTONIC, &t1_);";
    Format.fprintf fmt "@,%s"
      "printf(\"time %.9f\\n\", (t1_.tv_sec - t0_.tv_sec) + 1e-9 * (t1_.tv_nsec - t0_.tv_nsec));";
    List.iter
      (fun (a : Ir.array_info) ->
        if Array.length a.Ir.extents = 0 then
          Format.fprintf fmt "@,%s"
            (Printf.sprintf "printf(\"checksum %s %%.17g\\n\", %s);" a.Ir.aname
               a.Ir.aname)
        else
          Format.fprintf fmt "@,%s"
            (Printf.sprintf
               "{ double s_ = 0.0; for (q_ = 0; q_ < %s; q_++) s_ += ((double *)%s)[q_] * (double)(q_ %% 97 + 1); printf(\"checksum %s %%.17g\\n\", s_); }"
               (array_size_expr param_names a) a.Ir.aname a.Ir.aname))
      p.Ir.arrays
  end;
  Format.fprintf fmt "@,return 0;@]@,}@]@."

(** Internal entry points exposed for the test suite. *)
module For_tests = struct
  let pp_iexpr = pp_iexpr
end

(* ------------------------- AST evaluation semantics ----------------------- *)

(* The single definition of what the emitted C computes for bounds, guards and
   statement arguments.  Both executors of the AST — the {!Machine}
   interpreter/simulator and the {!Verify} domain-coverage checker — evaluate
   through here, so a disagreement between them can only come from the AST
   itself, not from divergent evaluators. *)
module Eval = struct
  let floord n d = if n >= 0 then n / d else -((-n + d - 1) / d)
  let ceild n d = if n >= 0 then (n + d - 1) / d else -(-n / d)

  (* env has width nlevels + nparams; affine rows have width env+1. *)
  let affine (row : int array) (env : int array) =
    let n = Array.length env in
    let acc = ref row.(n) in
    for j = 0 to n - 1 do
      if row.(j) <> 0 then acc := !acc + (row.(j) * env.(j))
    done;
    !acc

  let rec iexpr (e : iexpr) env =
    match e with
    | Affine row -> affine row env
    | Floord (e, d) -> floord (iexpr e env) d
    | Ceild (e, d) -> ceild (iexpr e env) d
    | Emin es -> List.fold_left (fun acc e -> min acc (iexpr e env)) max_int es
    | Emax es -> List.fold_left (fun acc e -> max acc (iexpr e env)) min_int es

  let guard (g : guard) env =
    match g with
    | Ge0 row -> affine row env >= 0
    | Mod0 (row, d) ->
        let v = affine row env in
        ((v mod d) + d) mod d = 0

  (* Original-iterator values of a statement instance from its leaf [args]
     (per extended iterator: affine row and divisor); the original iterators
     are the trailing [m] extended iterators.
     @raise Failure if a divisor does not divide exactly (the AST is missing
     a stride guard). *)
  let leaf_iters (leaf_args : (int array * int) array) env m =
    let ext_n = Array.length leaf_args in
    Array.init m (fun j ->
        let row, d = leaf_args.(ext_n - m + j) in
        let v = affine row env in
        if d = 1 then v
        else begin
          if ((v mod d) + d) mod d <> 0 then
            failwith
              "Codegen.Eval: non-integral iterator value (missing stride guard?)";
          v / d
        end)
end
