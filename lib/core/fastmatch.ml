(** The fast scheduling path: fusion + dimension matching.

    A cheap approximation of the per-hyperplane ILP of [Auto] in the spirit
    of Acharya & Bondhugula's fusion/permutation-matching scheduler
    (arXiv:1803.10726): instead of solving a lexmin ILP per level, each
    level assigns every statement the {e unit row} of one still-unused
    iterator (a loop permutation — no skews, no shifts), chosen by
    backtracking over candidates ordered by dimension-matching votes from
    the dependence graph's subscript structure ({!Deps.matched_dims}).
    The matcher is only the per-level search: it runs inside the exact
    search's level loop ({!Auto.search}), so fusion falls out of the same
    machinery — SCC cuts on the unsatisfied-dependence graph insert scalar
    distribution levels, and everything the cuts leave fused stays fused.

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
  proves_empty (Polyhedra.add d.Deps.poly (Deps.delta_le_minus_1 delta))

(* ------------------------------ the search ------------------------------- *)

(* One level: give each statement either the unit row of one unused
   iterator or (at full rank) the zero row, backtracking over candidates
   in dimension-matching vote order and pruning as soon as a dependence
   between two decided statements cannot be proven non-negative. *)
let find_level (p : Ir.program) (deps : Deps.t list) ~spend
    (states : Auto.dep_state list) (hmats : int array list array) =
  let nstmts = List.length p.Ir.stmts in
  let depth = Array.of_list (List.map Ir.depth p.Ir.stmts) in
  (* the iterators earlier levels gave each statement: the loop keeps the
     unit rows that raised its rank *)
  let used =
    Array.mapi
      (fun id rows -> Array.init depth.(id) (fun j -> List.exists (fun r -> r.(j) <> 0) rows))
      hmats
  in
  let rank = Array.map (Array.fold_left (fun a u -> if u then a + 1 else a) 0) used in
  let choice = Array.make nstmts (-1) in
  let row_of id =
    let m = depth.(id) in
    let r = Array.make (m + 1) 0 in
    if choice.(id) >= 0 then r.(choice.(id)) <- 1;
    r
  in
  (* decided = every statement with id <= s; check only the hard edges
     touching s: marked reduction edges, like input dependences, cast
     votes below but never veto a permutation *)
  let ok_so_far s =
    List.for_all
      (fun (st : Auto.dep_state) ->
        (not (Deps.is_hard st.dep))
        || st.dismissed
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
    else if rank.(s) >= depth.(s) then begin
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
  if assign 0 then Some (Array.init nstmts row_of) else None

(* The matcher is one more row finder for [Auto.search]: the level loop —
   satisfaction, parallelism, SCC cuts, dismissal, the residual cut — is
   the exact search's, with every emptiness test answered by FM. *)
let schedule ?(config = Auto.default_config) (p : Ir.program)
    (deps : Deps.t list) =
  if config.Auto.coeff_bound < 1 then
    reject "coefficient bound %d forbids even unit permutation rows"
      config.Auto.coeff_bound;
  let deps =
    if config.Auto.input_deps then deps else List.filter Deps.is_legality deps
  in
  let nodes = ref node_budget in
  let spend () =
    decr nodes;
    if !nodes < 0 then reject "matcher node budget (%d) exhausted" node_budget
  in
  let t =
    match
      Auto.search p deps ~find_rows:(find_level p deps ~spend)
        ~nonempty:(fun sys -> not (proves_empty sys))
    with
    | Ok t -> t
    | Error (Auto.No_row { level; live }) ->
        reject
          "no permutation row, no useful cut, nothing to dismiss (level %d, \
           %d live deps)"
          level live
    | Error Auto.Cyclic_residual -> reject "cyclic unsatisfied dependences at full rank"
  in
  let maxd = List.fold_left (fun a s -> max a (Ir.depth s)) 0 p.Ir.stmts in
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
      t.kinds;
    !best
  in
  let outer_parallel =
    Array.length t.kinds > 0
    && match t.kinds.(0) with Loop { parallel; _ } -> parallel | Scalar -> false
  in
  if (not outer_parallel) && widest < min 2 maxd then
    reject
      "unprofitable: widest permutable band is %d loop(s), want %d, and the \
       outermost loop is not parallel"
      widest (min 2 maxd);
  t

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
