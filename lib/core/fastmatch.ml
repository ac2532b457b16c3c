(** The fast scheduling path: fusion + dimension matching.

    A cheap approximation of the per-hyperplane ILP of [Auto] in the spirit
    of Acharya & Bondhugula's fusion/permutation-matching scheduler
    (arXiv:1803.10726): instead of solving a lexmin ILP per level, each
    level assigns every statement the {e unit row} of one still-unused
    iterator (a loop permutation — no skews, no shifts), chosen by
    backtracking over candidates ordered by dimension-matching votes from
    the dependence graph's subscript structure ({!Deps.matched_dims}).
    Fusion falls out of the same machinery the exact search uses: SCC cuts
    on the unsatisfied-dependence graph insert scalar distribution levels,
    and everything the cut machinery leaves fused stays fused.

    All legality reasoning here is {e pure Fourier–Motzkin} with the
    parameters left symbolic — the fast path performs zero ILP solves.
    Because the FM test proves emptiness over the rationals, every check is
    conservative: when it cannot prove a property the path gives up
    ([No_fast_schedule]) or degrades the claim (a level is marked
    sequential), never the reverse.  The driver re-validates any accepted
    schedule with the translation validator before trusting it, and falls
    back to the exact ILP on rejection — so this module trades completeness
    for speed, never correctness.

    Band-permutability invariant: δ ≥ 0 is enforced at every loop level for
    ALL non-dismissed legality dependences, including already-satisfied
    ones, exactly as the ILP's legality constraints do — only dismissal
    (band completion) stops constraining an edge.  This is what keeps the
    resulting bands tilable. *)

open Types

exception No_fast_schedule of string

(* Bump when the matcher's search or acceptance rules change: the store
   layer stamps cached fast-path results with this so stale entries from an
   older matcher are version-skew misses, not wrong answers. *)
let version = "fastmatch-v2"

(* Backtracking-node allowance for the whole search.  The matcher is meant
   to be decisively cheaper than one ILP solve; a search that needs more
   nodes than this is a search the exact path should do instead. *)
let node_budget = 4096

let reject fmt = Printf.ksprintf (fun s -> raise (No_fast_schedule s)) fmt

(* --------------------- FM-only conservative checks ----------------------- *)

(* "Is [sys] certainly empty?"  Rational FM emptiness with symbolic
   parameters; a solver-budget blowup is the conservative "cannot prove". *)
let proves_empty sys =
  try Polyhedra.is_empty_cached ~integer:true sys
  with Diag.Budget_exceeded _ -> false

(* δ >= 0 everywhere on the dependence polyhedron (params symbolic)? *)
let delta_always_ge0 (d : Deps.t) (delta : Vec.t) =
  (* δ <= -1  ==  -δ - 1 >= 0 *)
  let w = Array.length delta in
  let r = Vec.neg delta in
  r.(w - 1) <- Bigint.sub r.(w - 1) Bigint.one;
  proves_empty (Polyhedra.add d.Deps.poly (Polyhedra.ge r))

(* δ >= 1 everywhere? *)
let delta_always_ge1 (d : Deps.t) (delta : Vec.t) =
  (* δ <= 0  ==  -δ >= 0 *)
  proves_empty (Polyhedra.add d.Deps.poly (Polyhedra.ge (Vec.neg delta)))

(* δ = 0 everywhere?  (Provably no component along this level.) *)
let delta_always_zero (d : Deps.t) (delta : Vec.t) =
  let w = Array.length delta in
  let plus = Vec.copy delta in
  plus.(w - 1) <- Bigint.sub plus.(w - 1) Bigint.one;
  let minus = Vec.neg delta in
  minus.(w - 1) <- Bigint.sub minus.(w - 1) Bigint.one;
  proves_empty (Polyhedra.add d.Deps.poly (Polyhedra.ge plus))
  && proves_empty (Polyhedra.add d.Deps.poly (Polyhedra.ge minus))

type dep_state = {
  dep : Deps.t;
  mutable satisfied : int option;  (* level of strong satisfaction *)
  mutable dismissed : bool;  (* dropped when a previous band completed *)
}

(* ------------------------------ the search ------------------------------- *)

let schedule ?(config = Auto.default_config) (p : Ir.program)
    (deps : Deps.t list) =
  if config.Auto.coeff_bound < 1 then
    reject "coefficient bound %d forbids even unit permutation rows"
      config.Auto.coeff_bound;
  let deps =
    if config.Auto.input_deps then deps else List.filter Deps.is_legality deps
  in
  let nstmts = List.length p.Ir.stmts in
  List.iteri
    (fun i s ->
      if s.Ir.id <> i then
        invalid_arg "Fastmatch.schedule: statement ids not sequential")
    p.Ir.stmts;
  let depth = Array.of_list (List.map Ir.depth p.Ir.stmts) in
  let maxd = Array.fold_left max 0 depth in
  (* Only hard edges constrain the matcher: marked reduction edges (like
     input dependences) still cast dimension-matching votes below but never
     veto a permutation or serialize a level. *)
  let states =
    List.filter_map
      (fun d ->
        if Deps.is_hard d then
          Some { dep = d; satisfied = None; dismissed = false }
        else None)
      deps
  in
  let used = Array.init nstmts (fun id -> Array.make depth.(id) false) in
  let rank id =
    Array.fold_left (fun a u -> if u then a + 1 else a) 0 used.(id)
  in
  let all_rows : int array array list ref = ref [] in
  let kinds = ref [] in
  let satisfied_at = Hashtbl.create 16 in
  let band = ref 0 in
  let level = ref 0 in
  let nodes = ref node_budget in
  let spend () =
    decr nodes;
    if !nodes < 0 then reject "matcher node budget (%d) exhausted" node_budget
  in
  let full_rank () =
    List.for_all (fun s -> rank s.Ir.id >= Ir.depth s) p.Ir.stmts
  in
  let live_legality () = List.filter (fun st -> st.satisfied = None) states in
  (* One level: give each statement either the unit row of one unused
     iterator or (at full rank) the zero row, backtracking over candidates
     in dimension-matching vote order and pruning as soon as a dependence
     between two decided statements cannot be proven non-negative. *)
  let find_level () =
    let choice = Array.make nstmts (-1) in
    let row_of id =
      let m = depth.(id) in
      let r = Array.make (m + 1) 0 in
      if choice.(id) >= 0 then r.(choice.(id)) <- 1;
      r
    in
    (* decided = every statement with id <= s; check only edges touching s *)
    let ok_so_far s =
      List.for_all
        (fun st ->
          st.dismissed
          ||
          let a = st.dep.Deps.src.Ir.id and b = st.dep.Deps.dst.Ir.id in
          a > s || b > s
          || (a <> s && b <> s)
          ||
          let delta = Deps.satisfaction_row p st.dep (row_of a) (row_of b) in
          delta_always_ge0 st.dep delta)
        states
    in
    (* dimension-matching votes from already-decided peers at this level;
       input (read-read) dependences vote too — that is what steers fused
       statements onto matching iterators *)
    let votes s =
      let score = Array.make depth.(s) 0 in
      List.iter
        (fun (d : Deps.t) ->
          let a_id = d.Deps.src.Ir.id and b_id = d.Deps.dst.Ir.id in
          if a_id = s && b_id < s && choice.(b_id) >= 0 then
            List.iter
              (fun (a, b) ->
                if b = choice.(b_id) then score.(a) <- score.(a) + 1)
              (Deps.matched_dims d)
          else if b_id = s && a_id < s && choice.(a_id) >= 0 then
            List.iter
              (fun (a, b) ->
                if a = choice.(a_id) then score.(b) <- score.(b) + 1)
              (Deps.matched_dims d))
        deps;
      score
    in
    let rec assign s =
      if s = nstmts then true
      else if rank s >= depth.(s) then begin
        choice.(s) <- -1;
        spend ();
        ok_so_far s && assign (s + 1)
      end
      else begin
        let sc = votes s in
        let cands =
          List.sort
            (fun i j -> compare (-sc.(i), i) (-sc.(j), j))
            (List.filter (fun i -> not used.(s).(i)) (Putil.range depth.(s)))
        in
        let found =
          List.exists
            (fun dim ->
              choice.(s) <- dim;
              spend ();
              ok_so_far s && assign (s + 1))
            cands
        in
        if not found then choice.(s) <- -1;
        found
      end
    in
    if not (assign 0) then None
    else begin
      let rows = Array.init nstmts row_of in
      if Array.for_all (fun (r : int array) ->
             Array.for_all (fun c -> c = 0) r) rows
      then None
      else Some rows
    end
  in
  let mark_satisfaction rows =
    List.iter
      (fun st ->
        if st.satisfied = None then begin
          let d = st.dep in
          let delta =
            Deps.satisfaction_row p d rows.(d.Deps.src.Ir.id)
              rows.(d.Deps.dst.Ir.id)
          in
          if delta_always_ge1 d delta then begin
            st.satisfied <- Some !level;
            Hashtbl.replace satisfied_at d.Deps.id !level
          end
        end)
      states
  in
  let level_parallel rows =
    (* parallel iff every live legality dependence provably has no component
       along this level; "cannot prove" degrades to sequential, never the
       reverse *)
    List.for_all
      (fun st ->
        st.dismissed
        || (match st.satisfied with Some l when l < !level -> true | _ -> false)
        ||
        let d = st.dep in
        let delta =
          Deps.satisfaction_row p d rows.(d.Deps.src.Ir.id)
            rows.(d.Deps.dst.Ir.id)
        in
        delta_always_zero d delta)
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
    List.iter
      (fun st ->
        if st.satisfied = None then begin
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
  in
  (* Can the dependence still relate a pair at distance zero on every level
     found so far?  FM answers "yes" whenever it cannot prove otherwise. *)
  let weakly_unordered st =
    let d = st.dep in
    let zero_eqs =
      List.map
        (fun lv ->
          Polyhedra.eq
            (Deps.satisfaction_row p d lv.(d.Deps.src.Ir.id)
               lv.(d.Deps.dst.Ir.id)))
        (List.rev !all_rows)
    in
    let sys =
      Polyhedra.meet d.Deps.poly
        (Polyhedra.of_constrs d.Deps.poly.Polyhedra.nvars zero_eqs)
    in
    not (proves_empty sys)
  in
  let stuck_reason = ref "" in
  let progress = ref true in
  while
    !progress
    && ((not (full_rank ())) || live_legality () <> [])
    && !level < 2 * (maxd + nstmts + 2)
  do
    match find_level () with
    | Some rows ->
        all_rows := rows :: !all_rows;
        Array.iteri
          (fun id (r : int array) ->
            for j = 0 to depth.(id) - 1 do
              if r.(j) <> 0 then used.(id).(j) <- true
            done)
          rows;
        mark_satisfaction rows;
        let parallel = level_parallel rows in
        kinds := Loop { band = !band; parallel } :: !kinds;
        incr level
    | None -> (
        let live = live_legality () in
        let edges =
          List.map
            (fun st -> (st.dep.Deps.src.Ir.id, st.dep.Deps.dst.Ir.id))
            live
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
          let dismissed_any = ref false in
          List.iter
            (fun st ->
              if (not st.dismissed) && st.satisfied <> None then begin
                st.dismissed <- true;
                dismissed_any := true
              end)
            states;
          if not !dismissed_any then
            (* weak-satisfaction fallback, as in [Auto.transform]: a live
               dependence provably without an all-zero pair is ordered by
               the prefix and can be dismissed *)
            List.iter
              (fun st ->
                if
                  (not st.dismissed) && st.satisfied = None
                  && not (weakly_unordered st)
                then begin
                  st.dismissed <- true;
                  st.satisfied <- Some (max 0 (!level - 1));
                  dismissed_any := true
                end)
              states;
          if !dismissed_any then incr band
          else begin
            progress := false;
            stuck_reason :=
              Printf.sprintf
                "no permutation row, no useful cut, nothing to dismiss \
                 (level %d, %d live deps)"
                !level (List.length live)
          end
        end)
  done;
  if (not (full_rank ())) && !progress = false then reject "%s" !stuck_reason;
  let residual = List.filter weakly_unordered (live_legality ()) in
  if residual <> [] then begin
    let edges =
      List.map
        (fun st -> (st.dep.Deps.src.Ir.id, st.dep.Deps.dst.Ir.id))
        residual
    in
    let comp, ncomp = Ddg.sccs ~nstmts edges in
    if ncomp > 1 then add_scalar_cut comp
    else if nstmts > 1 then
      reject "cyclic unsatisfied dependences at full rank"
  end;
  let kinds = Array.of_list (List.rev !kinds) in
  (* Profitability: a pure permutation is only worth taking over the exact
     search when it yields one of the two things the paper's cost function
     optimizes for — a permutable band wide enough to tile (two loops, or
     the program's whole depth when that is smaller), or sync-free outer
     parallelism: an outermost loop level provably carrying no dependence
     (the u = 0, w = 0 optimum of the bounding function; for fused programs
     this is the outer-parallel fusion win, e.g. gemver / gesummv).
     Anything narrower — say a sequential outer loop over width-1 bands, as
     the matcher finds for jacobi-1d, whose profitable schedule needs a
     skew — is left to the exact ILP. *)
  let widest =
    let best = ref 0 and run = ref 0 and run_band = ref (-1) in
    Array.iter
      (function
        | Loop { band = b; _ } ->
            if b = !run_band then incr run
            else begin
              run := 1;
              run_band := b
            end;
            if !run > !best then best := !run
        | Scalar ->
            run := 0;
            run_band := -1)
      kinds;
    !best
  in
  let outer_parallel =
    Array.length kinds > 0
    && match kinds.(0) with Loop { parallel; _ } -> parallel | Scalar -> false
  in
  if (not outer_parallel) && widest < min 2 maxd then
    reject
      "unprofitable: widest permutable band is %d loop(s), want %d, and the \
       outermost loop is not parallel"
      widest (min 2 maxd);
  let levels = List.rev !all_rows in
  let nlevels = List.length levels in
  let rows =
    Array.init nstmts (fun id ->
        Array.of_list (List.map (fun lv -> lv.(id)) levels))
  in
  { program = p; deps; nlevels; kinds; rows; satisfied_at }

(** Structural views for the property tests. *)
module For_tests = struct
  (* The iterator each loop level of statement [id] pivots on, in level
     order: a (partial) permutation of the statement's dimensions. *)
  let permutation (t : transform) id =
    let s = List.nth t.program.Ir.stmts id in
    let m = Ir.depth s in
    List.filter_map
      (fun l ->
        match t.kinds.(l) with
        | Loop _ ->
            let row = t.rows.(id).(l) in
            let pivot = ref None in
            for j = 0 to m - 1 do
              if row.(j) <> 0 then pivot := Some j
            done;
            !pivot
        | Scalar -> None)
      (Putil.range t.nlevels)

  (* Fusion partition: statements grouped by the constant vector their
     scalar (distribution) levels assign them.  Sorted for determinism. *)
  let partition (t : transform) =
    let key id =
      List.filter_map
        (fun l ->
          match t.kinds.(l) with
          | Scalar ->
              let row = t.rows.(id).(l) in
              Some row.(Array.length row - 1)
          | Loop _ -> None)
        (Putil.range t.nlevels)
    in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (s : Ir.stmt) ->
        let k = key s.Ir.id in
        let prev = try Hashtbl.find groups k with Not_found -> [] in
        Hashtbl.replace groups k (s.Ir.id :: prev))
      t.program.Ir.stmts;
    List.sort compare
      (Hashtbl.fold (fun _ ids acc -> List.rev ids :: acc) groups [])
end
