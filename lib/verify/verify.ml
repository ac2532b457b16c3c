(* See verify.mli for the proof obligations.  Everything here goes out of its
   way NOT to share reasoning with the code under test: legality is
   re-established by integer-emptiness tests on the dependence polyhedra
   themselves (never through the Farkas dual the search solved), and domain
   coverage compares the AST's visited instances against an enumeration that
   uses neither the code generator's projections nor the interpreter's
   Fourier-Motzkin scan. *)

type failure = { f_code : string; f_message : string }

type report = {
  legality_obligations : int;
  claim_obligations : int;
  instances_checked : int;
  failures : failure list;
}

let ok r = r.failures = []

let empty_report =
  { legality_obligations = 0; claim_obligations = 0; instances_checked = 0; failures = [] }

let merge a b =
  {
    legality_obligations = a.legality_obligations + b.legality_obligations;
    claim_obligations = a.claim_obligations + b.claim_obligations;
    instances_checked = a.instances_checked + b.instances_checked;
    failures = a.failures @ b.failures;
  }

let failf code fmt = Printf.ksprintf (fun m -> { f_code = code; f_message = m }) fmt

(* ------------------------- constraint construction ------------------------ *)

(* Legality and reduction marks are proved for every parameter value in
   [param_lo, param_hi]. *)
let param_lo = 1
let param_hi = 10

(* p_j in [param_lo, param_hi] for the trailing [np] columns of an
   [nv]-variable system. *)
let param_box ~nv ~np =
  List.concat_map
    (fun j ->
      let col = nv - np + j in
      let ge_lo = Vec.zero (nv + 1) in
      ge_lo.(col) <- Bigint.one;
      ge_lo.(nv) <- Bigint.of_int (-param_lo);
      let le_hi = Vec.zero (nv + 1) in
      le_hi.(col) <- Bigint.minus_one;
      le_hi.(nv) <- Bigint.of_int param_hi;
      [ Polyhedra.ge ge_lo; Polyhedra.ge le_hi ])
    (Putil.range np)

(* -------------------------------- reporting ------------------------------ *)

let pp_point fmt (pt : Bigint.t array) lo hi =
  Format.fprintf fmt "(";
  for j = lo to hi - 1 do
    if j > lo then Format.fprintf fmt ", ";
    Format.fprintf fmt "%s" (Bigint.to_string pt.(j))
  done;
  Format.fprintf fmt ")"

(* A witness point of a dependence polyhedron, split src/dst/params. *)
let describe_witness (p : Ir.program) (d : Deps.t) (pt : Bigint.t array) =
  let ms = Ir.depth d.Deps.src and mt = Ir.depth d.Deps.dst in
  let np = Ir.nparams p in
  Format.asprintf "%s%a -> %s%a at params %a" d.Deps.src.Ir.name
    (fun fmt () -> pp_point fmt pt 0 ms)
    ()
    d.Deps.dst.Ir.name
    (fun fmt () -> pp_point fmt pt ms (ms + mt))
    ()
    (fun fmt () -> pp_point fmt pt (ms + mt) (ms + mt + np))
    ()

let describe_dep (d : Deps.t) =
  Printf.sprintf "dep #%d %s->%s (%s, %s)" d.Deps.id d.Deps.src.Ir.name
    d.Deps.dst.Ir.name
    (Deps.kind_name d.Deps.kind)
    (match d.Deps.level with
    | Some l -> Printf.sprintf "carried at loop %d" l
    | None -> "loop-independent")

(* ------------------------------ legality --------------------------------- *)

let delta_rows (p : Ir.program) (t : Pluto.Types.transform) (d : Deps.t) =
  Array.init t.Pluto.Types.nlevels (fun l ->
      Deps.satisfaction_row p d
        (Pluto.Types.transform_row t d.Deps.src ~level:l)
        (Pluto.Types.transform_row t d.Deps.dst ~level:l))

(* One guarded obligation: run [f] (an emptiness test producing an optional
   failure), converting budget exhaustion and unexpected exceptions into
   failures rather than aborting validation. *)
let obligation ~count ~failures ~what f =
  incr count;
  match f () with
  | None -> ()
  | Some fl -> failures := fl :: !failures
  | exception Diag.Budget_exceeded msg ->
      failures :=
        failf "budget" "%s: obligation not discharged (budget exhausted: %s)" what
          msg
        :: !failures
  | exception ((Out_of_memory | Sys.Break | Deadline.Expired) as e) -> raise e
  | exception e ->
      failures :=
        failf "internal" "%s: validator error: %s" what (Printexc.to_string e)
        :: !failures

(* Lexicographic positivity of delta over every integer point of the
   dependence polyhedron, parameters in the box. *)
let check_dep_legality ~count ~failures (p : Ir.program)
    (t : Pluto.Types.transform) (d : Deps.t) =
  let nv = Deps.nvars d in
  let np = Ir.nparams p in
  let deltas = delta_rows p t d in
  let base =
    Polyhedra.meet d.Deps.poly
      (Polyhedra.of_constrs nv (param_box ~nv ~np))
  in
  let prefix = ref base in
  (try
     for k = 0 to t.Pluto.Types.nlevels - 1 do
       obligation ~count ~failures
         ~what:(Printf.sprintf "%s level %d" (describe_dep d) k)
         (fun () ->
           match
             Deps.integer_point (Polyhedra.add !prefix (Deps.delta_le_minus_1 deltas.(k)))
           with
           | None -> None
           | Some w ->
               Some
                 (failf "legality"
                    "%s: schedule level %d (%s) steps backwards across the \
                     dependence: %s"
                    (describe_dep d) k
                    (Pluto.Types.level_kind_name t.Pluto.Types.kinds.(k))
                    (describe_witness p d w)));
       prefix := Polyhedra.add !prefix (Polyhedra.eq deltas.(k));
       (* once the all-equal prefix is empty every remaining obligation is
          vacuous: every pair is already strictly ordered *)
       if Polyhedra.is_empty_cached ~integer:true !prefix then raise Exit
     done;
     obligation ~count ~failures ~what:(describe_dep d ^ " (ordering)")
       (fun () ->
         match Deps.integer_point !prefix with
         | None -> None
         | Some w ->
             Some
               (failf "unordered"
                  "%s: schedule leaves a dependent pair unordered (every \
                   level component is zero): %s"
                  (describe_dep d) (describe_witness p d w)))
   with Exit -> ())

(* ---------------------------- claim checking ----------------------------- *)

(* The search justified its claims in the parameter context of {!Deps.pin},
   so they are checked there. *)

let check_dep_claims ~count ~failures (p : Ir.program)
    (t : Pluto.Types.transform) (d : Deps.t) =
  match Pluto.Types.satisfaction_level t d with
  | None -> ()
  | Some sl ->
      let deltas = delta_rows p t d in
      let fixed = Deps.pin ~np:(Ir.nparams p) d.Deps.poly in
      for l = 0 to sl - 1 do
        obligation ~count ~failures
          ~what:(Printf.sprintf "%s claim level %d" (describe_dep d) l)
          (fun () ->
            match
              Deps.integer_point (Polyhedra.add fixed (Deps.delta_le_minus_1 deltas.(l)))
            with
            | None -> None
            | Some w ->
                Some
                  (failf "satisfaction"
                     "%s: claimed satisfied at level %d but level %d has a \
                      negative component: %s"
                     (describe_dep d) sl l (describe_witness p d w)))
      done;
      obligation ~count ~failures
        ~what:(Printf.sprintf "%s claim satisfaction" (describe_dep d))
        (fun () ->
          match Deps.integer_point (Polyhedra.add fixed (Deps.delta_le_0 deltas.(sl))) with
          | None -> None
          | Some w ->
              Some
                (failf "satisfaction"
                   "%s: claimed strongly satisfied at level %d but δ is not \
                    everywhere >= 1 there: %s"
                   (describe_dep d) sl (describe_witness p d w)))

(* A level marked parallel must carry no dependence: restricted to the pairs
   not already ordered by outer levels (prefix of zero components), delta at
   the level must be identically zero. *)
let check_parallel_claims ~count ~failures (p : Ir.program)
    (t : Pluto.Types.transform) (deps : Deps.t list) =
  let parallel_levels =
    List.filter
      (fun l -> Pluto.Types.is_parallel_loop t.Pluto.Types.kinds.(l))
      (Putil.range t.Pluto.Types.nlevels)
  in
  if parallel_levels <> [] then
    List.iter
      (fun (d : Deps.t) ->
        if Deps.is_hard d then begin
          let deltas = delta_rows p t d in
          let fixed = Deps.pin ~np:(Ir.nparams p) d.Deps.poly in
          List.iter
            (fun l ->
              let skip =
                match Pluto.Types.satisfaction_level t d with
                | Some sl -> sl < l (* already satisfied above: not live *)
                | None -> false
              in
              if not skip then begin
                let prefix =
                  List.fold_left
                    (fun sys k -> Polyhedra.add sys (Polyhedra.eq deltas.(k)))
                    fixed (Putil.range l)
                in
                let side name c =
                  obligation ~count ~failures
                    ~what:
                      (Printf.sprintf "%s parallel level %d (%s)"
                         (describe_dep d) l name)
                    (fun () ->
                      match Deps.integer_point (Polyhedra.add prefix c) with
                      | None -> None
                      | Some w ->
                          Some
                            (failf "parallelism"
                               "level %d is marked parallel but carries %s \
                                (δ_%d %s 0): %s"
                               l (describe_dep d) l name
                               (describe_witness p d w)))
                in
                side ">" (Deps.delta_ge_1 deltas.(l));
                side "<" (Deps.delta_le_minus_1 deltas.(l))
              end)
            parallel_levels
        end)
      deps

(* ------------------------- reduction-mark soundness ----------------------- *)

(* A marked reduction edge is exempt from every order obligation above, so
   the marking itself becomes a proof obligation: the validator re-derives —
   without trusting the dependence analyzer that set the flag — that the edge
   is a self-dependence of a syntactic associative/commutative self-update
   ({!Ir.reduction_of_stmt}, shared syntax only: the polyhedral work below is
   independent), that both endpoints are the accumulator access, and that no
   other read of the accumulator's array can alias the accumulator cell
   anywhere in the iteration domain with parameters in the box. *)
let check_reduction_marks ~count ~failures (p : Ir.program)
    (deps : Deps.t list) =
  let np = Ir.nparams p in
  let alias_checked = Hashtbl.create 4 in
  let check_aliases (s : Ir.stmt) =
    if not (Hashtbl.mem alias_checked s.Ir.id) then begin
      Hashtbl.add alias_checked s.Ir.id ();
      let nv = s.Ir.domain.Polyhedra.nvars in
      List.iteri
        (fun i other ->
          if
            String.equal other.Ir.arr s.Ir.lhs.Ir.arr
            && not (Ir.same_access other s.Ir.lhs)
          then
            obligation ~count ~failures
              ~what:
                (Printf.sprintf "%s reduction alias (read %d)" s.Ir.name i)
              (fun () ->
                let eqs =
                  List.map
                    (fun k ->
                      Polyhedra.eq
                        (Vec.sub
                           (Ir.row_to_vec other.Ir.map.(k))
                           (Ir.row_to_vec s.Ir.lhs.Ir.map.(k))))
                    (Putil.range (Array.length other.Ir.map))
                in
                let sys =
                  Polyhedra.meet s.Ir.domain
                    (Polyhedra.of_constrs nv
                       (eqs @ param_box ~nv ~np))
                in
                match Deps.integer_point sys with
                | None -> None
                | Some w ->
                    Some
                      (failf "reduction"
                         "%s: read #%d of %s can alias the reduction \
                          accumulator cell at %s — the marked self-update \
                          is not a pure reduction"
                         s.Ir.name i other.Ir.arr
                         (Format.asprintf "%a"
                            (fun fmt () -> pp_point fmt w 0 nv)
                            ()))))
        (Ir.reads_of_expr s.Ir.rhs)
    end
  in
  List.iter
    (fun (d : Deps.t) ->
      if d.Deps.reduction then begin
        obligation ~count ~failures
          ~what:(describe_dep d ^ " (reduction shape)")
          (fun () ->
            if d.Deps.src.Ir.id <> d.Deps.dst.Ir.id then
              Some
                (failf "reduction"
                   "%s: marked reduction edge is not a self-dependence"
                   (describe_dep d))
            else
              match Ir.reduction_of_stmt d.Deps.src with
              | None ->
                  Some
                    (failf "reduction"
                       "%s: marked reduction edge on a statement that is \
                        not an associative/commutative self-update"
                       (describe_dep d))
              | Some r ->
                  if
                    Ir.same_access d.Deps.src_acc r.Ir.red_acc
                    && Ir.same_access d.Deps.dst_acc r.Ir.red_acc
                  then None
                  else
                    Some
                      (failf "reduction"
                         "%s: marked reduction edge does not connect two \
                          accumulator accesses"
                         (describe_dep d)));
        check_aliases d.Deps.src
      end)
    deps

let validate_transform (p : Ir.program) (deps : Deps.t list)
    (t : Pluto.Types.transform) =
  let legality_count = ref 0 and claim_count = ref 0 in
  let failures = ref [] in
  List.iter
    (fun d ->
      if Deps.is_hard d then begin
        check_dep_legality ~count:legality_count ~failures p t d;
        check_dep_claims ~count:claim_count ~failures p t d
      end)
    deps;
  check_parallel_claims ~count:claim_count ~failures p t deps;
  (* legality modulo reassociation: every edge exempted above must itself be
     proven a reduction edge *)
  check_reduction_marks ~count:legality_count ~failures p deps;
  {
    empty_report with
    legality_obligations = !legality_count;
    claim_obligations = !claim_count;
    failures = List.rev !failures;
  }

(* ---------------------------- domain coverage ---------------------------- *)

(* Substitute concrete parameter values into a statement domain (over
   [iters @ params]), producing a system over the iterators alone. *)
let substitute_params (dom : Polyhedra.t) ~m ~np ~(params : int array) =
  let cs =
    List.map
      (fun (c : Polyhedra.constr) ->
        let coefs = Array.make (m + 1) Bigint.zero in
        for j = 0 to m - 1 do
          coefs.(j) <- c.Polyhedra.coefs.(j)
        done;
        let const = ref c.Polyhedra.coefs.(m + np) in
        for j = 0 to np - 1 do
          const :=
            Bigint.add !const
              (Bigint.mul c.Polyhedra.coefs.(m + j) (Bigint.of_int params.(j)))
        done;
        coefs.(m) <- !const;
        { c with Polyhedra.coefs })
      dom.Polyhedra.cs
  in
  Polyhedra.of_constrs m cs

exception Coverage_fail of failure

let coverage_budget_points = 2_000_000

(* Enumerate the integer points of an [m]-variable system: per-coordinate
   rational LP bounds, then a box scan filtered by sat_point.  Independent of
   Fourier-Motzkin projection. *)
let enumerate_box (sys : Polyhedra.t) ~stmt_name =
  let m = sys.Polyhedra.nvars in
  if m = 0 then
    if Polyhedra.sat_point sys [||] then [ [||] ] else []
  else begin
    let bounds = Array.make m (0, -1) in
    let infeasible = ref false in
    for j = 0 to m - 1 do
      if not !infeasible then begin
        let obj_min = Array.init m (fun q -> if q = j then Q.one else Q.zero) in
        let obj_max =
          Array.init m (fun q -> if q = j then Q.minus_one else Q.zero)
        in
        let lo =
          match Milp.lp sys obj_min with
          | Milp.Lp_optimal (v, _) -> Some (Bigint.to_int (Q.ceil v))
          | Milp.Lp_infeasible -> None
          | Milp.Lp_unbounded ->
              raise
                (Coverage_fail
                   (failf "coverage" "statement %s: iteration domain unbounded \
                                      below in dimension %d" stmt_name j))
        in
        let hi =
          match Milp.lp sys obj_max with
          | Milp.Lp_optimal (v, _) -> Some (Bigint.to_int (Q.floor (Q.neg v)))
          | Milp.Lp_infeasible -> None
          | Milp.Lp_unbounded ->
              raise
                (Coverage_fail
                   (failf "coverage" "statement %s: iteration domain unbounded \
                                      above in dimension %d" stmt_name j))
        in
        match (lo, hi) with
        | Some lo, Some hi -> bounds.(j) <- (lo, hi)
        | _ -> infeasible := true
      end
    done;
    if !infeasible then []
    else begin
      let total =
        Array.fold_left
          (fun acc (lo, hi) ->
            if hi < lo then 0 else acc * (hi - lo + 1))
          1 bounds
      in
      if total > coverage_budget_points then
        raise
          (Coverage_fail
             (failf "budget"
                "statement %s: coverage box has %d points (budget %d); use \
                 smaller parameters" stmt_name total coverage_budget_points));
      let pt = Array.make m 0 in
      let acc = ref [] in
      let rec scan j =
        if j = m then begin
          let bpt = Array.map Bigint.of_int pt in
          if Polyhedra.sat_point sys bpt then acc := Array.copy pt :: !acc
        end
        else
          let lo, hi = bounds.(j) in
          for v = lo to hi do
            pt.(j) <- v;
            scan (j + 1)
          done
      in
      scan 0;
      List.rev !acc
    end
  end

(* Walk the AST sequentially, collecting every visited (stmt, iters). *)
let collect_instances (cg : Codegen.t) ~params =
  let np = Array.length params in
  if np <> cg.Codegen.nparams then
    raise
      (Coverage_fail
         (failf "coverage" "parameter vector has %d entries, program has %d" np
            cg.Codegen.nparams));
  let env = Array.make (cg.Codegen.nlevels + np) 0 in
  Array.blit params 0 env cg.Codegen.nlevels np;
  let stmts = Array.of_list cg.Codegen.target.Pluto.Types.tstmts in
  let visited = Array.make (Array.length stmts) [] in
  let rec walk (node : Codegen.ast) =
    match node with
    | Codegen.For { level; lb; ub; body; _ } ->
        let lo = Codegen.Eval.iexpr lb env and hi = Codegen.Eval.iexpr ub env in
        for v = lo to hi do
          env.(level) <- v;
          List.iter walk body
        done
    | Codegen.Leaf { stmt_idx; guards; args } ->
        if List.for_all (fun g -> Codegen.Eval.guard g env) guards then begin
          let s = stmts.(stmt_idx).Pluto.Types.stmt in
          let iters =
            try Codegen.Eval.leaf_iters args env (Ir.depth s)
            with Failure msg ->
              raise
                (Coverage_fail
                   (failf "coverage" "statement %s: %s" s.Ir.name msg))
          in
          visited.(stmt_idx) <- iters :: visited.(stmt_idx)
        end
  in
  List.iter walk cg.Codegen.body;
  (stmts, visited)

let validate_coverage ~params (p : Ir.program) (cg : Codegen.t) =
  let failures = ref [] in
  let instances = ref 0 in
  (try
     let stmts, visited = collect_instances cg ~params in
     let np = Ir.nparams p in
     Array.iteri
       (fun idx (ts : Pluto.Types.tstmt) ->
         let s = ts.Pluto.Types.stmt in
         let m = Ir.depth s in
         let dom = substitute_params s.Ir.domain ~m ~np ~params in
         let expected = enumerate_box dom ~stmt_name:s.Ir.name in
         instances := !instances + List.length expected;
         let got = List.sort compare visited.(idx) in
         let want = List.sort compare expected in
         (* duplicates: an instance visited more than once *)
         let rec first_dup = function
           | a :: (b :: _ as rest) ->
               if compare a b = 0 then Some a else first_dup rest
           | _ -> None
         in
         let pp_iters (it : int array) =
           "("
           ^ String.concat ", " (List.map string_of_int (Array.to_list it))
           ^ ")"
         in
         (match first_dup got with
         | Some it ->
             failures :=
               failf "coverage" "statement %s: instance %s executed more than \
                                 once" s.Ir.name (pp_iters it)
               :: !failures
         | None -> ());
         if got <> want then begin
           let missing =
             List.filter (fun w -> not (List.exists (fun g -> compare g w = 0) got)) want
           in
           let extra =
             List.filter (fun g -> not (List.exists (fun w -> compare g w = 0) want)) got
           in
           let sample l =
             match l with [] -> "-" | it :: _ -> pp_iters it
           in
           failures :=
             failf "coverage"
               "statement %s: AST scans %d instances, domain has %d (missing \
                %d, e.g. %s; extraneous %d, e.g. %s)"
               s.Ir.name (List.length got) (List.length want)
               (List.length missing) (sample missing) (List.length extra)
               (sample extra)
             :: !failures
         end)
       stmts
   with
  | Coverage_fail f -> failures := f :: !failures
  | Diag.Budget_exceeded msg ->
      failures := failf "budget" "coverage: %s" msg :: !failures
  | (Out_of_memory | Sys.Break | Deadline.Expired) as e -> raise e
  | e ->
      failures :=
        failf "internal" "coverage: validator error: %s" (Printexc.to_string e)
        :: !failures);
  { empty_report with instances_checked = !instances; failures = List.rev !failures }

(* --------------------------------- driver -------------------------------- *)

let validate ?params (p : Ir.program) deps t cg =
  let params =
    match params with
    | Some ps -> ps
    | None -> Array.make (List.length p.Ir.params) 6
  in
  merge
    (validate_transform p deps t)
    (validate_coverage ~params p cg)

(* Schedule mutations used by the test suite and plutocc's hidden
   [--break-schedule] flag to exercise the rejection path end to end. *)
module For_tests = struct
  (* Negate every statement's row at the first genuine loop level: loop
     reversal, illegal whenever that level carries a dependence. *)
  let reverse_first_loop (t : Pluto.Types.transform) =
    let rec find l =
      if l >= t.Pluto.Types.nlevels then None
      else
        match t.Pluto.Types.kinds.(l) with
        | Pluto.Types.Loop _ -> Some l
        | Pluto.Types.Scalar -> find (l + 1)
    in
    match find 0 with
    | None -> None
    | Some l ->
        let rows =
          Array.map
            (fun (stmt_rows : int array array) ->
              Array.mapi
                (fun i row ->
                  if i = l then Array.map (fun c -> -c) row else Array.copy row)
                stmt_rows)
            t.Pluto.Types.rows
        in
        Some { t with Pluto.Types.rows }
end

let pp_report fmt r =
  Format.fprintf fmt
    "%s: %d legality + %d claim obligations discharged, %d instances checked"
    (if ok r then "VERIFIED" else "FAILED")
    r.legality_obligations r.claim_obligations r.instances_checked;
  List.iter
    (fun f -> Format.fprintf fmt "@,[%s] %s" f.f_code f.f_message)
    r.failures
