(** The Pluto automatic transformation algorithm (§3 of the paper).

    Iteratively finds statement-wise affine hyperplanes by solving, at each
    level, the ILP

      lexmin (u, w, ..., c_S's, ...)

    subject to (per dependence edge) the tiling legality constraints (2) and
    the communication-volume bounding constraints (4), both turned into
    constraints purely over the transformation coefficients via the affine
    Farkas lemma, plus per-statement linear-independence constraints (eq. 6)
    and the non-trivial-solution constraint Σ cᵢ >= 1 (§4.2).

    When no hyperplane exists, the DDG restricted to unsatisfied dependences
    is cut between strongly connected components (adding a scalar dimension:
    loop distribution) or, failing that, satisfied dependences are dismissed
    and a new band of permutable loops is started. *)

open Types

type config = {
  coeff_bound : int;  (** upper bound for iterator coefficients (default 4) *)
  shift_bound : int;  (** upper bound for the constant coefficient c₀ *)
  u_bound : int;  (** upper bound for each component of [u] *)
  w_bound : int;  (** upper bound for [w] *)
  input_deps : bool;  (** include read-read dependences in the bounding *)
  use_cost_bound : bool;
      (** apply the communication-volume bounding objective (4); disabling it
          leaves a legality-only search (an ablation of the paper's central
          design choice) *)
  budget : Milp.budget;
      (** resource budget for each hyperplane-search ILP; exhaustion is
          treated as "no hyperplane at this level" and the search degrades
          (cut / dismiss / [No_transform]) instead of running unboundedly *)
}

let default_config =
  {
    coeff_bound = 4;
    shift_bound = 10;
    u_bound = 20;
    w_bound = 1000;
    input_deps = true;
    use_cost_bound = true;
    budget = Milp.default_budget;
  }

(* ------------------------- per-dependence state -------------------------- *)

(* What the level loop knows of each dependence. *)
type dep_state = {
  dep : Deps.t;
  mutable satisfied : int option;  (* level *)
  mutable dismissed : bool;  (* dropped when a previous band completed *)
}

(* ILP variable layout: [blocks] bound blocks first, block b holding u at
   columns b(np+1) .. b(np+1)+np-1 and w at b(np+1)+np, then per statement
   the iterator coefficients and the constant.  The Pluto search uses two
   blocks: the legality bound (u, w) and a second bound (u', w') for
   input-dependence distances (a locality tie-breaker minimized after
   (u, w); see DESIGN.md).  A schedule search ({!Feautrier}) uses one. *)
type layout = {
  nilp : int;
  np : int;
  blocks : int;
  stmt_off : int array;  (* per statement id: first iterator coefficient *)
  stmt_depth : int array;
}

let make_layout ?(blocks = 2) (p : Ir.program) =
  let np = Ir.nparams p in
  let n = List.length p.Ir.stmts in
  let stmt_off = Array.make n 0 in
  let stmt_depth = Array.make n 0 in
  let off = ref (blocks * (np + 1)) in
  List.iter
    (fun s ->
      let id = s.Ir.id in
      stmt_off.(id) <- !off;
      stmt_depth.(id) <- Ir.depth s;
      off := !off + Ir.depth s + 1)
    p.Ir.stmts;
  { nilp = !off; np; blocks; stmt_off; stmt_depth }

(* The symbolic affine form δ(s,t) = φ_dst(t) - φ_src(s) over a dependence's
   variables; coefficients are rows over the ILP variables. *)
let delta_form lay (d : Deps.t) : Farkas.symbolic_form =
  let ms = Ir.depth d.Deps.src and mt = Ir.depth d.Deps.dst in
  let np = lay.np in
  let width = ms + mt + np + 1 in
  let form = Array.init width (fun _ -> Array.make (lay.nilp + 1) 0) in
  let off_s = lay.stmt_off.(d.Deps.src.Ir.id) in
  let off_t = lay.stmt_off.(d.Deps.dst.Ir.id) in
  for j = 0 to ms - 1 do
    form.(j).(off_s + j) <- form.(j).(off_s + j) - 1
  done;
  for j = 0 to mt - 1 do
    form.(ms + j).(off_t + j) <- form.(ms + j).(off_t + j) + 1
  done;
  (* parameters carry no transformation coefficients (eq. 1) *)
  form.(width - 1).(off_t + mt) <- form.(width - 1).(off_t + mt) + 1;
  form.(width - 1).(off_s + ms) <- form.(width - 1).(off_s + ms) - 1;
  form

(* v(p) ± δ as a symbolic form: v(p) = u·p + w places u on the dependence
   polyhedron's parameter columns and w on the constant.  [which] selects the
   primary bound (legality dependences) or the secondary one (input
   dependences). *)
let bound_form lay (d : Deps.t) ~sign ~which : Farkas.symbolic_form =
  let ms = Ir.depth d.Deps.src and mt = Ir.depth d.Deps.dst in
  let np = lay.np in
  let base = match which with `Primary -> 0 | `Secondary -> np + 1 in
  let width = ms + mt + np + 1 in
  let delta = delta_form lay d in
  let form =
    Array.mapi (fun _ row -> Array.map (fun c -> sign * c) row) delta
  in
  for j = 0 to np - 1 do
    form.(ms + mt + j).(base + j) <- form.(ms + mt + j).(base + j) + 1
  done;
  form.(width - 1).(base + np) <- form.(width - 1).(base + np) + 1;
  form

(* A dependence's Farkas systems over the ILP variables: the legality
   constraints (2) of a hard dependence and the bounding constraints (4). *)
type dep_systems = { legality : Polyhedra.t option; bounding : Polyhedra.t }

let dep_systems lay (d : Deps.t) =
  (* Marked reduction edges are dropped from the legality system — the order
     in which an associative/commutative update's instances combine is
     immaterial up to floating-point reassociation — but stay in the bounding
     objective so their communication/reuse volume is still priced. *)
  let legality =
    if Deps.is_hard d then
      Some (Farkas.constraints ~nilp:lay.nilp ~form:(delta_form lay d) ~poly:d.Deps.poly)
    else None
  in
  let bound which sign =
    Farkas.constraints ~nilp:lay.nilp
      ~form:(bound_form lay d ~sign ~which)
      ~poly:d.Deps.poly
  in
  let bounding =
    if Deps.is_hard d then bound `Primary (-1)
    else if Deps.is_legality d then
      (* a relaxed reduction edge no longer has a guaranteed δ sign, so it is
         bounded from both sides by the shared primary bound *)
      Polyhedra.meet (bound `Primary (-1)) (bound `Primary 1)
    else
      (* Input dependences are bounded from both sides (§4.1) by the shared
         bound (u, w) exactly as in the paper, and additionally by the
         secondary bound (u', w'), which is minimized after (u, w) and breaks
         ties in favour of smaller reuse distances (the refinement that makes
         the MVT fusion of §7 deterministic; see DESIGN.md). *)
      Polyhedra.meet
        (Polyhedra.meet (bound `Primary (-1)) (bound `Primary 1))
        (Polyhedra.meet (bound `Secondary (-1)) (bound `Secondary 1))
  in
  { legality; bounding }

(* --------------------- concrete satisfaction checks ---------------------- *)

(* δ >= 1 everywhere on the dependence polyhedron? *)
let delta_always_ge1 ~nonempty (d : Deps.t) (delta : Vec.t) =
  not (nonempty (Polyhedra.add d.Deps.poly (Deps.delta_le_0 delta)))

(* Does δ take a non-zero value anywhere on the polyhedron? *)
let delta_has_component ~nonempty (d : Deps.t) (delta : Vec.t) =
  nonempty (Polyhedra.add d.Deps.poly (Deps.delta_ge_1 delta))
  || nonempty (Polyhedra.add d.Deps.poly (Deps.delta_le_minus_1 delta))

(* ------------------------------ main search ------------------------------ *)

exception No_transform of string

(* Upper bounds on every ILP variable: u and w of each bound block, then
   each statement's iterator coefficients and constant. *)
let bounds_constraints cfg lay =
  let n = lay.nilp in
  let ub j b =
    let r = Vec.zero (n + 1) in
    r.(j) <- Bigint.minus_one;
    r.(n) <- Bigint.of_int b;
    Polyhedra.ge r
  in
  let per_block j b = List.init lay.blocks (fun k -> ub ((k * (lay.np + 1)) + j) b) in
  let cs = ref [] in
  for j = 0 to lay.np - 1 do
    cs := per_block j cfg.u_bound @ !cs
  done;
  cs := per_block lay.np cfg.w_bound @ !cs;
  Array.iteri
    (fun id off ->
      for j = 0 to lay.stmt_depth.(id) - 1 do
        cs := ub (off + j) cfg.coeff_bound :: !cs
      done;
      cs := ub (off + lay.stmt_depth.(id)) cfg.shift_bound :: !cs)
    lay.stmt_off;
  Polyhedra.of_constrs n !cs

(* Linear independence (eq. 6): for each statement with previously found
   rows H, require every row r of the integer orthogonal complement to give
   r·c >= 0, and their sum >= 1.  For statements with no rows yet this
   degenerates to Σ cᵢ >= 1 over e_i, i.e. the trivial-solution avoidance.
   Statements already at full rank get no constraint (their row may be
   anything, including zero). *)
let independence_constraints lay (hmats : int array list array) =
  let n = lay.nilp in
  let cs = ref [] in
  Array.iteri
    (fun id rows ->
      let m = lay.stmt_depth.(id) in
      if m > 0 then begin
        let h =
          Mat.of_int_rows
            (Array.of_list (List.map (fun r -> Array.sub r 0 m) rows))
        in
        let ortho =
          if rows = [] then
            List.map
              (fun i -> Vec.init m (fun j -> if i = j then Bigint.one else Bigint.zero))
              (Putil.range m)
          else if Mat.rank h = m then []
          else Mat.orthogonal_complement h
        in
        if ortho <> [] then begin
          let off = lay.stmt_off.(id) in
          let sum = Vec.zero (n + 1) in
          List.iter
            (fun (row : Vec.t) ->
              let r = Vec.zero (n + 1) in
              for j = 0 to m - 1 do
                r.(off + j) <- row.(j);
                sum.(off + j) <- Bigint.add sum.(off + j) row.(j)
              done;
              cs := Polyhedra.ge r :: !cs)
            ortho;
          sum.(n) <- Bigint.minus_one;
          cs := Polyhedra.ge sum :: !cs
        end
      end)
    hmats;
  Polyhedra.of_constrs n !cs

let lexmin_priority lay =
  (* the bound blocks first; then per statement the iterator coefficients
     innermost-first (preferring hyperplanes over outer iterators), constant
     last *)
  let order = ref [] in
  Array.iteri
    (fun id off ->
      let m = lay.stmt_depth.(id) in
      let stmt_order = List.rev (List.init m (fun j -> off + j)) @ [ off + m ] in
      order := !order @ stmt_order)
    lay.stmt_off;
  List.init (lay.blocks * (lay.np + 1)) (fun j -> j) @ !order

(* Extract per-statement rows (iterator coefficients + constant) from an ILP
   solution. *)
let rows_of_solution lay (x : Bigint.t array) =
  Array.mapi
    (fun id off ->
      let m = lay.stmt_depth.(id) in
      Array.init (m + 1) (fun j -> Bigint.to_int x.(off + j)))
    lay.stmt_off

let find_hyperplane cfg lay systems (states : dep_state list) hmats =
  let base = bounds_constraints cfg lay in
  let sys =
    List.fold_left2
      (fun sys ds st ->
        if st.dismissed then sys
        else begin
          let sys =
            match ds.legality with
            | Some l -> Polyhedra.meet sys l
            | None -> sys
          in
          if cfg.use_cost_bound && st.satisfied = None then
            Polyhedra.meet sys ds.bounding
          else sys
        end)
      base systems states
  in
  let sys = Polyhedra.meet sys (independence_constraints lay hmats) in
  (* the per-dependence systems overlap heavily; dedup before the ILP *)
  let sys =
    match Polyhedra.simplify ~integer:true sys with
    | Some s -> s
    | None -> sys (* contradictory: let the ILP report infeasible *)
  in
  match Milp.lexmin_order ~nonneg:true ~budget:cfg.budget sys (lexmin_priority lay) with
  | None -> None
  | Some x -> Some (rows_of_solution lay x)

(* ---------------------------- the level loop ----------------------------- *)

type stuck = No_row of { level : int; live : int } | Cyclic_residual

let search (p : Ir.program) (deps : Deps.t list) ~find_rows ~nonempty =
  let nstmts = List.length p.Ir.stmts in
  List.iteri
    (fun i s ->
      if s.Ir.id <> i then invalid_arg "Auto.search: statement ids not sequential")
    p.Ir.stmts;
  let depth = Array.of_list (List.map Ir.depth p.Ir.stmts) in
  let states = List.map (fun d -> { dep = d; satisfied = None; dismissed = false }) deps in
  let hmats : int array list array = Array.make nstmts [] in
  let rank = Array.make nstmts 0 in  (* of each statement's [hmats] *)
  let all_rows : int array array list ref = ref [] in
  let kinds = ref [] in
  let satisfied_at = Hashtbl.create 16 in
  let band = ref 0 in
  let level = ref 0 in
  let full_rank () = Array.for_all2 ( >= ) rank depth in
  let live_legality () =
    List.filter
      (fun st -> Deps.is_hard st.dep && st.satisfied = None)
      states
  in
  let mark_satisfaction rows =
    (* concrete δ per dependence; record first level at which min δ >= 1 *)
    List.iter
      (fun st ->
        if Deps.is_hard st.dep && st.satisfied = None then begin
          let d = st.dep in
          let row_s = rows.(d.Deps.src.Ir.id) in
          let row_t = rows.(d.Deps.dst.Ir.id) in
          let delta = Deps.satisfaction_row p d row_s row_t in
          if delta_always_ge1 ~nonempty d delta then begin
            st.satisfied <- Some !level;
            Hashtbl.replace satisfied_at d.Deps.id !level
          end
        end)
      states
  in
  let level_parallel rows =
    (* the level is parallel iff no live hard dependence has a non-zero
       component along it (marked reduction edges never serialize a loop) *)
    List.for_all
      (fun st ->
        (not (Deps.is_hard st.dep))
        || st.dismissed
        || (match st.satisfied with Some l when l < !level -> true | _ -> false)
        ||
        let d = st.dep in
        let delta =
          Deps.satisfaction_row p d rows.(d.Deps.src.Ir.id) rows.(d.Deps.dst.Ir.id)
        in
        not (delta_has_component ~nonempty d delta))
      states
  in
  let add_scalar_cut comp =
    let rows =
      Array.init nstmts (fun id ->
          let m = depth.(id) in
          Array.init (m + 1) (fun j -> if j = m then comp.(id) else 0))
    in
    all_rows := rows :: !all_rows;
    kinds := Scalar :: !kinds;
    (* mark cross-component dependences satisfied *)
    List.iter
      (fun st ->
        if Deps.is_hard st.dep && st.satisfied = None then begin
          let cs = comp.(st.dep.Deps.src.Ir.id)
          and cd = comp.(st.dep.Deps.dst.Ir.id) in
          if cd > cs then begin
            st.satisfied <- Some !level;
            Hashtbl.replace satisfied_at st.dep.Deps.id !level
          end
        end)
      states;
    incr level;
    incr band
    (* a scalar dimension ends the current permutable band *)
  in
  (* Does the dependence still have a pair at distance zero on ALL levels
     found so far?  (If not, every pair already has a strictly positive
     leading component: the dependence is weakly satisfied.) *)
  let weakly_unordered st =
    let d = st.dep in
    let current_rows = List.rev !all_rows in
    let zero_eqs =
      List.map
        (fun lv ->
          let delta =
            Deps.satisfaction_row p d lv.(d.Deps.src.Ir.id) lv.(d.Deps.dst.Ir.id)
          in
          Polyhedra.eq delta)
        current_rows
    in
    let sys =
      Polyhedra.meet d.Deps.poly
        (Polyhedra.of_constrs d.Deps.poly.Polyhedra.nvars zero_eqs)
    in
    nonempty sys
  in
  let stuck = ref None in
  while
    !stuck = None
    && ((not (full_rank ())) || live_legality () <> [])
    && !level < 2 * (Array.fold_left max 0 depth + nstmts + 2)
  do
    match find_rows states hmats with
    | Some rows when Array.exists (fun (r : int array) ->
          Array.exists (fun c -> c <> 0) r) rows ->
        (* accept; a statement at full rank may legitimately get a zero row *)
        all_rows := rows :: !all_rows;
        Array.iteri
          (fun id r ->
            if rank.(id) < depth.(id) then begin
              hmats.(id) <- hmats.(id) @ [ r ];
              rank.(id) <-
                Mat.rank
                  (Mat.of_int_rows
                     (Array.of_list (List.map (fun r -> Array.sub r 0 depth.(id)) hmats.(id))))
            end)
          rows;
        mark_satisfaction rows;
        let parallel = level_parallel rows in
        kinds := Loop { band = !band; parallel } :: !kinds;
        incr level
    | Some _ | None -> (
        (* cut between SCCs of the unsatisfied-dependence graph, if useful *)
        let live = live_legality () in
        let edges =
          List.map (fun st -> (st.dep.Deps.src.Ir.id, st.dep.Deps.dst.Ir.id)) live
        in
        let comp, ncomp = Ddg.sccs ~nstmts edges in
        let cross =
          List.exists
            (fun st ->
              comp.(st.dep.Deps.src.Ir.id) <> comp.(st.dep.Deps.dst.Ir.id))
            live
        in
        if ncomp > 1 && cross then add_scalar_cut comp
        else begin
          (* start a new band: dismiss satisfied dependences *)
          let dismissed_any = ref false in
          List.iter
            (fun st ->
              if (not st.dismissed) && st.satisfied <> None then begin
                st.dismissed <- true;
                dismissed_any := true
              end)
            states;
          if not !dismissed_any then begin
            (* Weak-satisfaction fallback: a live dependence whose pairs all
               have a strictly positive component at some previous level is
               already correctly ordered by the prefix (δ >= 0 held at every
               level it lived through), even though no single level
               dominates it; such dependences can never be strongly
               satisfied under non-negative coefficients (e.g. permuted
               self-dependences), so dismiss them to unblock the search. *)
            List.iter
              (fun st ->
                if
                  (not st.dismissed) && st.satisfied = None
                  && Deps.is_hard st.dep
                  && not (weakly_unordered st)
                then begin
                  st.dismissed <- true;
                  (* weakly satisfied: ordered by the whole prefix; not
                     recorded in [satisfied_at], which lists only strong
                     (single-level) satisfaction *)
                  st.satisfied <- Some (max 0 (!level - 1));
                  dismissed_any := true
                end)
              states
          end;
          if !dismissed_any then incr band
          else stuck := Some (No_row { level = !level; live = List.length live })
        end)
  done;
  match !stuck with
  | Some reason when not (full_rank ()) -> Error reason
  | _ -> (
      (* Live dependences at this point have δ >= 0 at every level (they
         were never dismissed).  Pairs with a strictly positive component at
         some level are correctly ordered; only pairs with δ = 0 at ALL
         levels still need ordering — by a trailing scalar dimension
         reflecting a topological order of the statements they relate. *)
      let residual = List.filter weakly_unordered (live_legality ()) in
      let comp, ncomp =
        Ddg.sccs ~nstmts
          (List.map (fun st -> (st.dep.Deps.src.Ir.id, st.dep.Deps.dst.Ir.id)) residual)
      in
      if residual <> [] && ncomp = 1 && nstmts > 1 then Error Cyclic_residual
      else begin
        if residual <> [] && ncomp > 1 then add_scalar_cut comp;
        let levels = List.rev !all_rows in
        Ok
          {
            program = p;
            deps;
            nlevels = List.length levels;
            kinds = Array.of_list (List.rev !kinds);
            rows =
              Array.init nstmts (fun id -> Array.of_list (List.map (fun lv -> lv.(id)) levels));
            satisfied_at;
          }
      end)

let transform ?(config = default_config) (p : Ir.program) (deps : Deps.t list) =
  let deps =
    if config.input_deps then deps
    else List.filter Deps.is_legality deps
  in
  let lay = make_layout p in
  let systems = List.map (dep_systems lay) deps in
  (* Budget exhaustion in the per-level ILP is "no hyperplane found at this
     level": the search falls through to its cut/dismiss machinery and, if
     that cannot make progress either, reports [No_transform] — which the
     driver's degradation ladder turns into a warning, not a crash.  An
     expired deadline is not a budget: it unwinds the whole search. *)
  let budget_note = ref None in
  let find_rows states hmats =
    Deadline.check ();
    try find_hyperplane config lay systems states hmats
    with Diag.Budget_exceeded msg ->
      budget_note := Some msg;
      None
  in
  match search p deps ~find_rows ~nonempty:(Deps.nonempty ~np:lay.np) with
  | Ok t -> t
  | Error (No_row { level; live }) ->
      raise
        (No_transform
           (Printf.sprintf
              "no hyperplane, no useful cut, nothing to dismiss (level %d, %d live deps)%s"
              level live
              (match !budget_note with
              | Some b -> "; solver budget exhausted: " ^ b
              | None -> "")))
  | Error Cyclic_residual -> raise (No_transform "cyclic unsatisfied dependences at full rank")

(* ------------------------------- printing ------------------------------- *)

let pp_transform fmt (t : transform) =
  Format.fprintf fmt "@[<v>transform: %d levels@," t.nlevels;
  Array.iteri
    (fun l k -> Format.fprintf fmt "  level %d: %s@," l (level_kind_name k))
    t.kinds;
  List.iter
    (fun s ->
      Format.fprintf fmt "  %s:@," s.Ir.name;
      Array.iteri
        (fun l row ->
          let iter_names = Array.of_list s.Ir.iters in
          Format.fprintf fmt "    c%d = %a@," (l + 1)
            (Ir.pp_affine_row iter_names) row)
        t.rows.(s.Ir.id))
    t.program.Ir.stmts;
  Format.fprintf fmt "@]"

(* ---------------- annotation of externally supplied transforms ----------- *)

(** [annotate p deps ~rows ~scalar] rebuilds satisfaction bookkeeping and
    parallelism flags for a transformation supplied from outside (the
    identity transformation, or a baseline scheme such as Lim/Lam affine
    partitioning or a Feautrier schedule).  [rows.(stmt_id)] are the
    statement's scattering rows (width depth+1); [scalar.(l)] marks static
    levels.  Band structure: consecutive non-scalar levels form one band per
    maximal run (callers can re-band afterwards if they know better). *)
let annotate (p : Ir.program) (deps : Deps.t list) ~(rows : int array array array)
    ~(scalar : bool array) : transform =
  let nlevels = Array.length scalar in
  let nonempty = Deps.nonempty ~np:(Ir.nparams p) in
  let legality = List.filter Deps.is_hard deps in
  let satisfied_at = Hashtbl.create 16 in
  let live = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace live d.Deps.id d) legality;
  let kinds = Array.make nlevels Scalar in
  let band = ref 0 in
  let prev_scalar = ref false in
  for l = 0 to nlevels - 1 do
    if scalar.(l) then begin
      (* scalar level: satisfies deps whose constant difference is >= 1 *)
      Hashtbl.iter
        (fun id d ->
          let rs = rows.(d.Deps.src.Ir.id).(l) in
          let rt = rows.(d.Deps.dst.Ir.id).(l) in
          let cs = rs.(Array.length rs - 1) and ct = rt.(Array.length rt - 1) in
          if ct > cs then begin
            Hashtbl.replace satisfied_at id l;
            Hashtbl.remove live id
          end)
        (Hashtbl.copy live);
      kinds.(l) <- Scalar;
      prev_scalar := true
    end
    else begin
      if !prev_scalar then incr band;
      prev_scalar := false;
      let newly = ref [] in
      Hashtbl.iter
        (fun id d ->
          let delta =
            Deps.satisfaction_row p d
              rows.(d.Deps.src.Ir.id).(l)
              rows.(d.Deps.dst.Ir.id).(l)
          in
          if delta_always_ge1 ~nonempty d delta then newly := (id, d) :: !newly)
        live;
      List.iter
        (fun (id, _) ->
          Hashtbl.replace satisfied_at id l;
          Hashtbl.remove live id)
        !newly;
      (* parallel iff no dependence live at entry to this level (including
         those satisfied exactly here) has a component along it *)
      let parallel =
        !newly = []
        && Hashtbl.fold
             (fun _ d acc ->
               acc
               &&
               let delta =
                 Deps.satisfaction_row p d
                   rows.(d.Deps.src.Ir.id).(l)
                   rows.(d.Deps.dst.Ir.id).(l)
               in
               not (delta_has_component ~nonempty d delta))
             live true
      in
      kinds.(l) <- Loop { band = !band; parallel }
    end
  done;
  {
    program = p;
    deps;
    nlevels;
    kinds;
    rows;
    satisfied_at;
  }

(** The identity (original-order) transformation: levels alternate the static
    position and the loop iterators, i.e. the classic 2d+1 scattering.  Used
    as the oracle order and as the "native compiler" baseline. *)
let identity_transform (p : Ir.program) (deps : Deps.t list) : transform =
  let maxd = List.fold_left (fun a s -> max a (Ir.depth s)) 0 p.Ir.stmts in
  let nlevels = (2 * maxd) + 1 in
  let scalar = Array.init nlevels (fun l -> l mod 2 = 0) in
  let rows =
    Array.of_list
      (List.map
         (fun s ->
           let m = Ir.depth s in
           Array.init nlevels (fun l ->
               let row = Array.make (m + 1) 0 in
               if l mod 2 = 0 then begin
                 let k = l / 2 in
                 if k <= m then row.(m) <- s.Ir.static.(k)
               end
               else begin
                 let k = l / 2 in
                 if k < m then row.(k) <- 1
               end;
               row))
         p.Ir.stmts)
  in
  annotate p deps ~rows ~scalar
