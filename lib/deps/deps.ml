type kind = Flow | Anti | Output | Input

type t = {
  id : int;
  src : Ir.stmt;
  dst : Ir.stmt;
  kind : kind;
  level : int option;
  poly : Polyhedra.t;
  src_acc : Ir.access;
  dst_acc : Ir.access;
  reduction : bool;
}

let is_legality d = d.kind <> Input
let is_hard d = is_legality d && not d.reduction

let kind_name = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

let nvars d = d.poly.Polyhedra.nvars

(* Index of the single iterator with a nonzero coefficient in an access row
   (width m + np + 1), or None when the subscript mixes several iterators or
   none at all.  Rows with a nonzero coefficient on any of the [np] parameter
   columns are rejected too: [A[i+n]] vs [A[i]] is a parametrically long
   distance, not a matched dimension, and letting it vote used to feed the
   fast matcher alignments that ended in avoidable ILP fallbacks. *)
let unit_iter_dim ~m ~np (row : int array) =
  let found = ref None and ok = ref true in
  for j = 0 to m - 1 do
    if row.(j) <> 0 then
      match !found with None -> found := Some j | Some _ -> ok := false
  done;
  for j = m to m + np - 1 do
    if row.(j) <> 0 then ok := false
  done;
  if !ok then !found else None

let matched_dims d =
  let ms = Ir.depth d.src and mt = Ir.depth d.dst in
  let n = Array.length d.src_acc.Ir.map in
  let pairs = ref [] in
  if Array.length d.dst_acc.Ir.map = n then
    for k = n - 1 downto 0 do
      let rs = d.src_acc.Ir.map.(k) and rt = d.dst_acc.Ir.map.(k) in
      let np = Array.length rs - ms - 1 in
      match (unit_iter_dim ~m:ms ~np rs, unit_iter_dim ~m:mt ~np rt) with
      | Some a, Some b when rs.(a) = rt.(b) -> pairs := (a, b) :: !pairs
      | _ -> ()
    done;
  !pairs

(* Widen a row over (m iters + np params + 1) of one statement into the
   combined dependence space (ms + mt + np + 1), placing the iterators at
   [offset]. *)
let embed_row ~m ~np ~offset ~width (coefs : Vec.t) : Vec.t =
  let r = Vec.zero width in
  for j = 0 to m - 1 do
    r.(offset + j) <- coefs.(j)
  done;
  for j = 0 to np - 1 do
    r.(width - 1 - np + j) <- coefs.(m + j)
  done;
  r.(width - 1) <- coefs.(m + np);
  r

let embed_domain ~np ~offset ~width (d : Polyhedra.t) =
  let m = d.Polyhedra.nvars - np in
  List.map
    (fun (c : Polyhedra.constr) ->
      { c with Polyhedra.coefs = embed_row ~m ~np ~offset ~width c.Polyhedra.coefs })
    d.Polyhedra.cs

let embed_int_row ~m ~np ~offset ~width (row : int array) : Vec.t =
  embed_row ~m ~np ~offset ~width (Ir.row_to_vec row)

let satisfaction_row (p : Ir.program) d (row_src : int array)
    (row_dst : int array) : Vec.t =
  let ms = Ir.depth d.src and mt = Ir.depth d.dst in
  let np = Ir.nparams p in
  let width = ms + mt + np + 1 in
  if Array.length row_src <> ms + 1 || Array.length row_dst <> mt + 1 then
    invalid_arg "Deps.satisfaction_row: row widths";
  let r = Vec.zero width in
  for j = 0 to ms - 1 do
    r.(j) <- Bigint.of_int (-row_src.(j))
  done;
  for j = 0 to mt - 1 do
    r.(ms + j) <- Bigint.of_int row_dst.(j)
  done;
  r.(width - 1) <- Bigint.of_int (row_dst.(mt) - row_src.(ms));
  r

(* The sign of δ as one constraint row over the same variables. *)
let delta_ge_1 (delta : Vec.t) =
  let r = Vec.copy delta in
  let w = Array.length r in
  r.(w - 1) <- Bigint.sub r.(w - 1) Bigint.one;
  Polyhedra.ge r

let delta_le_minus_1 (delta : Vec.t) = delta_ge_1 (Vec.neg delta)

let delta_le_0 (delta : Vec.t) = Polyhedra.ge (Vec.neg delta)

(* Ordering constraints "s executed before t" for a given level.
   [level = Some l]: equality on common dims 0..l-1, strict s_l < t_l.
   [level = None]: equality on all common dims (loop-independent); only valid
   when src syntactically precedes dst. *)
let order_constrs ~ms ~width ~level ~common =
  let eq_at k =
    let r = Vec.zero width in
    r.(k) <- Bigint.minus_one;
    r.(ms + k) <- Bigint.one;
    Polyhedra.eq r
  in
  let lt_at k =
    (* t_k - s_k - 1 >= 0 *)
    let r = Vec.zero width in
    r.(k) <- Bigint.minus_one;
    r.(ms + k) <- Bigint.one;
    r.(width - 1) <- Bigint.minus_one;
    Polyhedra.ge r
  in
  match level with
  | Some l ->
      assert (l < common);
      List.map eq_at (Putil.range l) @ [ lt_at l ]
  | None -> List.map eq_at (Putil.range common)

let build_poly (p : Ir.program) src dst ~level src_acc dst_acc =
  let np = Ir.nparams p in
  let ms = Ir.depth src and mt = Ir.depth dst in
  let width = ms + mt + np + 1 in
  let nv = width - 1 in
  let cs_src = embed_domain ~np ~offset:0 ~width src.Ir.domain in
  let cs_dst = embed_domain ~np ~offset:ms ~width dst.Ir.domain in
  let access_eqs =
    if Array.length src_acc.Ir.map <> Array.length dst_acc.Ir.map then
      invalid_arg "Deps: access dimensionality mismatch";
    List.map
      (fun k ->
        let rs = embed_int_row ~m:ms ~np ~offset:0 ~width src_acc.Ir.map.(k) in
        let rt = embed_int_row ~m:mt ~np ~offset:ms ~width dst_acc.Ir.map.(k) in
        Polyhedra.eq (Vec.sub rt rs))
      (Putil.range (Array.length src_acc.Ir.map))
  in
  let common = Ir.common_loops src dst in
  let order = order_constrs ~ms ~width ~level ~common in
  Polyhedra.of_constrs nv (cs_src @ cs_dst @ access_eqs @ order)

(* ------------------------- the integer-point test ------------------------- *)

(* Integer point of a system, or None when it has none.  Every variable is an
   iteration counter or a structure parameter, so the integer-tightened
   canonical emptiness test is a sound prefilter; the memoized ILP settles
   the rest. *)
let integer_point sys =
  if Polyhedra.is_empty_cached ~integer:true sys then None
  else Milp.feasible_cached sys

(* The context every dependence question is asked in: each structure
   parameter pinned to one large value. *)
let context = 100

let pin ~np (poly : Polyhedra.t) =
  let nv = poly.Polyhedra.nvars in
  let fix =
    List.map
      (fun j ->
        let r = Vec.zero (nv + 1) in
        r.(nv - np + j) <- Bigint.one;
        r.(nv) <- Bigint.of_int (-context);
        Polyhedra.eq r)
      (Putil.range np)
  in
  Polyhedra.meet poly (Polyhedra.of_constrs nv fix)

(* On solver budget exhaustion the answer is "nonempty": every caller uses
   emptiness to drop a dependence or justify an optimization, so the
   conservative answer only costs precision, never correctness. *)
let nonempty ~np sys =
  try Option.is_some (integer_point (pin ~np sys))
  with Diag.Budget_exceeded _ -> true

(* Semantic completion of {!Ir.reduction_of_stmt}: the statement is a genuine
   reduction only if no {e other} read of the accumulator's array can touch
   the accumulator cell anywhere in the iteration domain — e.g. LU's
   [a[i][j] -= a[i][k] * a[k][j]] qualifies because its domain has [j > k]
   and [i > k], making both alias systems integer-empty.  A read with a
   syntactically identical map was already rejected by the Ir half;
   everything else gets a polyhedral emptiness test in the same context
   the dependence tester itself uses. *)
let reduction_of_stmt ~np (s : Ir.stmt) =
  match Ir.reduction_of_stmt s with
  | None -> None
  | Some r ->
      let nv = s.Ir.domain.Polyhedra.nvars in
      let may_alias other =
        let eqs =
          List.map
            (fun k ->
              Polyhedra.eq
                (Vec.sub
                   (Ir.row_to_vec other.Ir.map.(k))
                   (Ir.row_to_vec s.Ir.lhs.map.(k))))
            (Putil.range (Array.length other.Ir.map))
        in
        let sys =
          Polyhedra.meet s.Ir.domain (Polyhedra.of_constrs nv eqs)
        in
        nonempty ~np sys
      in
      let others =
        List.filter
          (fun a ->
            String.equal a.Ir.arr s.Ir.lhs.arr
            && not (Ir.same_access a s.Ir.lhs))
          (Ir.reads_of_expr s.Ir.rhs)
      in
      if List.exists may_alias others then None else Some r

let compute ?(input_deps = true) ?(reductions = false) (p : Ir.program) =
  let np = Ir.nparams p in
  let deps = ref [] in
  let next = ref 0 in
  (* per-statement reduction verdict, memoized (the alias check solves ILPs) *)
  let red_cache = Hashtbl.create 7 in
  let reduction_acc (s : Ir.stmt) =
    if not reductions then None
    else
      match Hashtbl.find_opt red_cache s.Ir.id with
      | Some r -> r
      | None ->
          let r = reduction_of_stmt ~np s in
          Hashtbl.add red_cache s.Ir.id r;
          r
  in
  let consider src dst kind src_acc dst_acc =
    if String.equal src_acc.Ir.arr dst_acc.Ir.arr then begin
      let common = Ir.common_loops src dst in
      let levels =
        let carried = List.map (fun l -> Some l) (Putil.range common) in
        let independent =
          if src.Ir.id <> dst.Ir.id && Ir.precedes_at src dst common then
            [ None ]
          else []
        in
        carried @ independent
      in
      (* a self flow/anti/output edge both of whose endpoints are the
         accumulator access of a verified reduction statement is relaxable *)
      let reduction =
        kind <> Input
        && src.Ir.id = dst.Ir.id
        &&
        match reduction_acc src with
        | Some r ->
            Ir.same_access src_acc r.Ir.red_acc
            && Ir.same_access dst_acc r.Ir.red_acc
        | None -> false
      in
      List.iter
        (fun level ->
          let poly = build_poly p src dst ~level src_acc dst_acc in
          if nonempty ~np poly then begin
            let d =
              {
                id = !next;
                src;
                dst;
                kind;
                level;
                poly;
                src_acc;
                dst_acc;
                reduction;
              }
            in
            incr next;
            deps := d :: !deps
          end)
        levels
    end
  in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          (* flow: write(src) -> read(dst) *)
          List.iter
            (fun (k_dst, a_dst) ->
              List.iter
                (fun (k_src, a_src) ->
                  match (k_src, k_dst) with
                  | Ir.Write, Ir.Read -> consider src dst Flow a_src a_dst
                  | Ir.Read, Ir.Write -> consider src dst Anti a_src a_dst
                  | Ir.Write, Ir.Write -> consider src dst Output a_src a_dst
                  | Ir.Read, Ir.Read ->
                      (* Input dependences drive fusion and reuse decisions
                         across statements (the MVT case of §7); within one
                         statement all-pairs RAR edges have parametrically
                         long distances that would mask every other term of
                         the max-bound (4), so, like the paper's tool, we
                         keep only inter-statement read-read pairs (a
                         last-reader approximation; see DESIGN.md). *)
                      if input_deps && src.Ir.id <> dst.Ir.id then
                        consider src dst Input a_src a_dst)
                (Ir.accesses src))
            (Ir.accesses dst))
        p.Ir.stmts)
    p.Ir.stmts;
  List.rev !deps

let pp fmt d =
  let level =
    match d.level with
    | Some l -> Printf.sprintf "loop %d" (l + 1)
    | None -> "loop-independent"
  in
  Format.fprintf fmt "dep %d: %s %s(%s) -> %s(%s) [%s]%s" d.id
    (kind_name d.kind) d.src.Ir.name d.src_acc.Ir.arr d.dst.Ir.name
    d.dst_acc.Ir.arr level
    (if d.reduction then " [reduction]" else "")
