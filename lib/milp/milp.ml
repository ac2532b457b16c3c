(* Exact two-phase primal simplex over Q, plus incremental branch-and-bound
   and lexicographic minimization.

   Internal form: minimize c·x over { x >= 0 | rows a_i·x + b_i >= 0 }.
   Free variables are handled by the classic split x = x+ - x-.
   Equalities are converted to opposite inequality pairs.

   Dictionary representation (Chvatal): each basic variable is an affine
   function of the nonbasic ones,
       basic_i = tab.(i).(n) + sum_j tab.(i).(j) * nonbasic_j
   and the objective (maximized internally) is
       z = obj.(n) + sum_j obj.(j) * nonbasic_j.
   Bland's rule guarantees termination.

   The incremental layer keeps dictionaries alive across solves: a
   branch-and-bound child appends its one new bound row to a copy of the
   parent's optimal dictionary and repairs primal feasibility with dual
   simplex pivots instead of rebuilding from scratch, and [lexmin_order]
   fixes coordinates on one living dictionary.  [set_warm false] restores the
   historical cold-start behaviour (every node rebuilds); it is the reference
   the property tests compare against. *)

type lp_result =
  | Lp_optimal of Q.t * Q.t array
  | Lp_infeasible
  | Lp_unbounded

type ilp_result =
  | Ilp_optimal of Bigint.t * Bigint.t array
  | Ilp_infeasible
  | Ilp_unbounded

type budget = { max_nodes : int }

let default_budget = { max_nodes = 200_000 }

let warm_enabled = ref true
let set_warm b = warm_enabled := b

type dict = {
  mutable nonbasic : int array; (* variable ids of columns *)
  mutable basis : int array; (* variable ids of rows *)
  mutable tab : Q.t array array; (* m rows, n+1 cols (const last) *)
  mutable obj : Q.t array; (* n+1 cols *)
  mutable next_id : int; (* first unused variable id (for appended slacks) *)
}

let copy_dict d =
  {
    d with
    nonbasic = Array.copy d.nonbasic;
    basis = Array.copy d.basis;
    tab = Array.map Array.copy d.tab;
    obj = Array.copy d.obj;
  }

let pivot d r e =
  Stats.incr "milp.pivots";
  let n = Array.length d.nonbasic in
  let row = d.tab.(r) in
  let a = row.(e) in
  assert (not (Q.is_zero a));
  let inv = Q.inv a in
  (* Express entering variable in terms of the leaving one and the rest. *)
  let new_row =
    Array.init (n + 1) (fun j ->
        if j = e then inv else Q.neg (Q.mul row.(j) inv))
  in
  (* note: coefficient at position e of new_row is the coefficient of the
     *leaving* variable, which takes the entering one's column slot.  A
     column where the pivot row is zero keeps its entry in every other row,
     so the substitution touches only the pivot column and [nz]. *)
  let nz =
    Array.of_list
      (List.filter
         (fun j -> j <> e && not (Q.is_zero new_row.(j)))
         (List.init (n + 1) Fun.id))
  in
  let substitute target =
    let f = target.(e) in
    if Q.is_zero f then target
    else begin
      let t = Array.copy target in
      t.(e) <- Q.mul f inv;
      Array.iter (fun j -> t.(j) <- Q.add target.(j) (Q.mul f new_row.(j))) nz;
      t
    end
  in
  for i = 0 to Array.length d.tab - 1 do
    if i <> r then d.tab.(i) <- substitute d.tab.(i)
  done;
  d.obj <- substitute d.obj;
  d.tab.(r) <- new_row;
  let leaving = d.basis.(r) in
  d.basis.(r) <- d.nonbasic.(e);
  d.nonbasic.(e) <- leaving

(* One phase of simplex: maximize the current objective.  Returns [`Optimal]
   or [`Unbounded].  Assumes the dictionary is primal-feasible. *)
let optimize d =
  let n = Array.length d.nonbasic in
  let m = Array.length d.basis in
  let rec loop () =
    (* Bland: entering = smallest var id among columns with positive obj coef *)
    let enter = ref (-1) in
    for j = 0 to n - 1 do
      if Q.sign d.obj.(j) > 0
         && (!enter < 0 || d.nonbasic.(j) < d.nonbasic.(!enter))
      then enter := j
    done;
    if !enter < 0 then `Optimal
    else begin
      let e = !enter in
      (* ratio test over rows with negative coefficient *)
      let leave = ref (-1) in
      let best = ref Q.zero in
      for i = 0 to m - 1 do
        let coef = d.tab.(i).(e) in
        if Q.sign coef < 0 then begin
          let ratio = Q.div d.tab.(i).(n) (Q.neg coef) in
          if !leave < 0 || Q.compare ratio !best < 0
             || (Q.equal ratio !best && d.basis.(i) < d.basis.(!leave))
          then begin
            leave := i;
            best := ratio
          end
        end
      done;
      if !leave < 0 then `Unbounded
      else begin
        pivot d !leave e;
        loop ()
      end
    end
  in
  loop ()

(* Dual simplex: restore primal feasibility of a dictionary whose objective
   row is still dual-feasible (all reduced costs <= 0, i.e. the dictionary
   was optimal before new rows were appended).  Bland-style tie-breaks:
   leaving row = negative constant with the smallest basis id; entering
   column minimizes (-obj_j)/row_j over row_j > 0, ties by smallest variable
   id.  [`Stalled] is a safety valve: past [max_pivots] the caller abandons
   the warm dictionary and re-solves cold. *)
let dual_optimize ?(max_pivots = max_int) d =
  let n = Array.length d.nonbasic in
  let rec loop pivots =
    if pivots > max_pivots then `Stalled
    else begin
      let m = Array.length d.basis in
      let leave = ref (-1) in
      for i = 0 to m - 1 do
        if Q.sign d.tab.(i).(n) < 0
           && (!leave < 0 || d.basis.(i) < d.basis.(!leave))
        then leave := i
      done;
      if !leave < 0 then `Feasible
      else begin
        let r = !leave in
        let row = d.tab.(r) in
        let enter = ref (-1) in
        let best = ref Q.zero in
        for j = 0 to n - 1 do
          if Q.sign row.(j) > 0 then begin
            let ratio = Q.div (Q.neg d.obj.(j)) row.(j) in
            if !enter < 0 || Q.compare ratio !best < 0
               || (Q.equal ratio !best && d.nonbasic.(j) < d.nonbasic.(!enter))
            then begin
              enter := j;
              best := ratio
            end
          end
        done;
        if !enter < 0 then
          (* basic_r = const + sum row_j*nb_j with const < 0 and every
             row_j <= 0: negative for all nonbasic >= 0, hence infeasible *)
          `Infeasible
        else begin
          pivot d r !enter;
          loop (pivots + 1)
        end
      end
    end
  in
  loop 0

let dual_pivot_cap d =
  1000 + (20 * (Array.length d.basis + Array.length d.nonbasic))

(* Install objective: maximize z = -c·x, expressing basic decision variables
   through their rows.  Resets the objective of an existing dictionary, so a
   living dictionary can be re-targeted (warm lexmin). *)
let install_objective d ~nv (c : Q.t array) =
  let n = Array.length d.nonbasic in
  let obj = Array.make (n + 1) Q.zero in
  let add_var vid coef =
    if Q.is_zero coef then ()
    else begin
      match Array.find_index (fun v -> v = vid) d.nonbasic with
      | Some j -> obj.(j) <- Q.add obj.(j) coef
      | None -> (
          match Array.find_index (fun b -> b = vid) d.basis with
          | None -> assert false
          | Some r ->
              for j = 0 to n do
                obj.(j) <- Q.add obj.(j) (Q.mul coef d.tab.(r).(j))
              done)
    end
  in
  for v = 0 to nv - 1 do
    add_var v (Q.neg c.(v))
  done;
  d.obj <- obj

let extract_point nv d =
  let n = Array.length d.nonbasic in
  let x = Array.make nv Q.zero in
  Array.iteri (fun r b -> if b < nv then x.(b) <- d.tab.(r).(n)) d.basis;
  x

(* Append one standard-form row a·x + k >= 0 (over the nv standard decision
   variables) to a dictionary, expressed over the current nonbasic set.  The
   new slack enters the basis; its constant may be negative — the caller
   repairs with {!dual_optimize}. *)
let add_row_std d ~nv ((a : Q.t array), (k : Q.t)) =
  let n = Array.length d.nonbasic in
  let row = Array.make (n + 1) Q.zero in
  row.(n) <- k;
  for v = 0 to nv - 1 do
    let coef = a.(v) in
    if not (Q.is_zero coef) then begin
      match Array.find_index (fun id -> id = v) d.nonbasic with
      | Some j -> row.(j) <- Q.add row.(j) coef
      | None -> (
          match Array.find_index (fun id -> id = v) d.basis with
          | None -> assert false (* decision vars never leave the system *)
          | Some r ->
              for j = 0 to n do
                row.(j) <- Q.add row.(j) (Q.mul coef d.tab.(r).(j))
              done)
    end
  done;
  d.tab <- Array.append d.tab [| row |];
  d.basis <- Array.append d.basis [| d.next_id |];
  d.next_id <- d.next_id + 1

(* Build the initial dictionary for: minimize c·x, x >= 0, rows r·x + k >= 0.
   Slack variable ids follow decision ids.  Returns a primal-optimal
   dictionary for the installed objective, or reports infeasibility or
   unboundedness.  This is the cold path — every call builds from scratch. *)
let solve_standard_dict (nv : int) (rows : (Q.t array * Q.t) list)
    (c : Q.t array) =
  Stats.incr "milp.cold_builds";
  let m = List.length rows in
  let rows = Array.of_list rows in
  let tab =
    Array.init m (fun i ->
        let coefs, k = rows.(i) in
        Array.init (nv + 1) (fun j -> if j = nv then k else coefs.(j)))
  in
  let d =
    {
      nonbasic = Array.init nv (fun j -> j);
      basis = Array.init m (fun i -> nv + i);
      tab;
      obj = Array.make (nv + 1) Q.zero;
      next_id = nv + m + 1 (* nv+m is reserved for the phase-1 auxiliary *);
    }
  in
  (* Phase 1 if some constant is negative. *)
  let min_row = ref (-1) in
  for i = 0 to m - 1 do
    if Q.sign d.tab.(i).(nv) < 0
       && (!min_row < 0 || Q.compare d.tab.(i).(nv) d.tab.(!min_row).(nv) < 0)
    then min_row := i
  done;
  let feasible =
    if !min_row < 0 then true
    else begin
      (* add auxiliary variable with id nv+m; column appended *)
      let aux_id = nv + m in
      let n1 = nv + 1 in
      d.nonbasic <- Array.append d.nonbasic [| aux_id |];
      d.tab <- Array.map (fun row ->
          Array.init (n1 + 1) (fun j ->
              if j = nv then Q.one (* aux column *)
              else if j = n1 then row.(nv) (* const moved right *)
              else row.(j)))
          d.tab;
      d.obj <- Array.init (n1 + 1) (fun j -> if j = nv then Q.minus_one else Q.zero);
      (* first pivot: aux enters, most negative row leaves -> feasible *)
      pivot d !min_row nv;
      (match optimize d with `Optimal -> () | `Unbounded -> assert false);
      let opt = d.obj.(n1) in
      if Q.sign opt < 0 then false
      else begin
        (* drive aux out of the basis if it lingers (at value 0) *)
        (match Array.find_index (fun b -> b = aux_id) d.basis with
        | None -> ()
        | Some r ->
            let col = ref (-1) in
            (try
               for j = 0 to Array.length d.nonbasic - 1 do
                 if d.nonbasic.(j) <> aux_id && not (Q.is_zero d.tab.(r).(j))
                 then begin
                   col := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !col >= 0 then pivot d r !col
            else begin
              (* row is identically the aux variable: delete it *)
              let keep = ref [] and kept_basis = ref [] in
              Array.iteri
                (fun i row ->
                  if i <> r then begin
                    keep := row :: !keep;
                    kept_basis := d.basis.(i) :: !kept_basis
                  end)
                d.tab;
              d.tab <- Array.of_list (List.rev !keep);
              d.basis <- Array.of_list (List.rev !kept_basis)
            end);
        (* remove the aux column *)
        (match Array.find_index (fun v -> v = aux_id) d.nonbasic with
        | None -> ()
        | Some jaux ->
            let n1 = Array.length d.nonbasic in
            let strip row =
              Array.init n1 (fun j ->
                  (* drop column jaux; const is at index n1 *)
                  if j < jaux then row.(j) else row.(j + 1))
            in
            d.nonbasic <-
              Array.of_list
                (List.filteri (fun j _ -> j <> jaux) (Array.to_list d.nonbasic));
            d.tab <- Array.map strip d.tab;
            d.obj <- strip d.obj);
        true
      end
    end
  in
  if not feasible then `Infeasible
  else begin
    install_objective d ~nv c;
    match optimize d with `Unbounded -> `Unbounded | `Optimal -> `Optimal d
  end

let solve_standard nv rows c =
  match solve_standard_dict nv rows c with
  | `Infeasible -> Lp_infeasible
  | `Unbounded -> Lp_unbounded
  | `Optimal d ->
      let n = Array.length d.nonbasic in
      Lp_optimal (Q.neg d.obj.(n), extract_point nv d)

(* Translate a Polyhedra.t (+ objective over its nvars) into standard form.
   With [nonneg:false] each variable is split into positive/negative parts. *)
let to_standard ~nonneg (sys : Polyhedra.t) =
  let nv0 = sys.Polyhedra.nvars in
  let nv = if nonneg then nv0 else 2 * nv0 in
  let widen (coefs : Vec.t) =
    let q j = Q.of_bigint coefs.(j) in
    if nonneg then (Array.init nv0 q, q nv0)
    else
      ( Array.init nv (fun j ->
            if j < nv0 then q j else Q.neg (q (j - nv0))),
        q nv0 )
  in
  let rows =
    List.concat_map
      (fun (c : Polyhedra.constr) ->
        let coefs, k = widen c.Polyhedra.coefs in
        match c.Polyhedra.kind with
        | Polyhedra.Ge -> [ (coefs, k) ]
        | Polyhedra.Eq ->
            [ (coefs, k); (Array.map Q.neg coefs, Q.neg k) ])
      sys.Polyhedra.cs
  in
  (nv, nv0, rows)

let recover ~nonneg nv0 (x : Q.t array) =
  if nonneg then Array.sub x 0 nv0
  else Array.init nv0 (fun j -> Q.sub x.(j) x.(j + nv0))

let widen_obj ~nonneg nv nv0 (objective : Q.t array) =
  if nonneg then objective
  else
    Array.init nv (fun j ->
        if j < nv0 then objective.(j) else Q.neg (objective.(j - nv0)))

(* Sub-version of the two solver stores, naming [Bigint]'s memory layout
   (immediate below 2^61).  Their values are marshaled [Bigint.t]s; an entry
   written under another layout must be a miss, never read back at the
   wrong type (a boxed zero read as a [Bigint.t] is not [is_zero]). *)
let store_version = "imm61"

(* [lp] is a pure function of its arguments, so memoizing on the raw system
   digest plus the objective returns exactly what re-solving would — the
   codegen bound derivations and the verifier's range probes ask the same
   rational LPs over and over across tuner candidates. *)
let lp_cache : lp_result Memo.t =
  Memo.create ~kind:"milp-lp" ~version:store_version
    ~hits:"milp.lp_cache_hits" ~misses:"milp.lp_cache_misses"
    ~evictions:"milp.cache_evictions" ()

let lp ?(nonneg = false) (sys : Polyhedra.t) (objective : Q.t array) =
  if Array.length objective <> sys.Polyhedra.nvars then
    invalid_arg "Milp.lp: objective length";
  let solve () =
    let nv, nv0, rows = to_standard ~nonneg sys in
    let c = widen_obj ~nonneg nv nv0 objective in
    match solve_standard nv rows c with
    | Lp_optimal (v, x) -> Lp_optimal (v, recover ~nonneg nv0 x)
    | (Lp_infeasible | Lp_unbounded) as r -> r
  in
  if not !warm_enabled then solve ()
  else begin
    let b = Buffer.create 64 in
    Buffer.add_string b (if nonneg then "n:" else "f:");
    Buffer.add_string b (Polyhedra.digest sys);
    Array.iter
      (fun q ->
        Buffer.add_string b (Q.to_string q);
        Buffer.add_char b ',')
      objective;
    match Memo.lookup lp_cache (Buffer.contents b) solve with
    | Lp_optimal (v, x) -> Lp_optimal (v, Array.copy x)
    | (Lp_infeasible | Lp_unbounded) as r -> r
  end

(* ----------------------------- branch & bound ---------------------------- *)

let row_le sys j (bound : Bigint.t) =
  (* x_j <= bound  ==  -x_j + bound >= 0 *)
  let n = sys.Polyhedra.nvars in
  let coefs = Vec.zero (n + 1) in
  coefs.(j) <- Bigint.minus_one;
  coefs.(n) <- bound;
  Polyhedra.ge coefs

let row_ge sys j (bound : Bigint.t) =
  let n = sys.Polyhedra.nvars in
  let coefs = Vec.zero (n + 1) in
  coefs.(j) <- Bigint.one;
  coefs.(n) <- Bigint.neg bound;
  Polyhedra.ge coefs

(* The same bound as {!row_le}/{!row_ge} in standard coordinates, for
   appending directly to a living dictionary. *)
let std_bound_row ~nonneg ~nv ~nv0 j ~ge (bound : Q.t) =
  let a = Array.make nv Q.zero in
  let s = if ge then Q.one else Q.minus_one in
  a.(j) <- s;
  if not nonneg then a.(nv0 + j) <- Q.neg s;
  (a, if ge then Q.neg bound else bound)

type bb_ctl = {
  bud : budget;
  nodes : int ref;
  warm : bool;
  nonneg : bool;
  nv : int;
  nv0 : int;
  c_std : Q.t array;
  objective : Vec.t;
  mutable best : (Bigint.t * Bigint.t array) option;
  mutable saw_unbounded : bool;
}

(* How a node obtains its LP relaxation's optimal dictionary:
   - [Cold]: build and solve from scratch (the historical behaviour, and the
     fallback whenever a warm dictionary goes stale);
   - [Presolved d]: [d] is already optimal for this node's system (warm
     lexmin hands the shared root dictionary to each coordinate's tree);
   - [Pending d]: [d] is the parent's optimal dictionary plus one appended
     bound row; a dual-simplex repair finishes the solve. *)
type node_start = Cold | Presolved of dict | Pending of dict

let rec bb_node ctl (sys : Polyhedra.t) start =
  incr ctl.nodes;
  Stats.incr "milp.bb_nodes";
  if !(ctl.nodes) > ctl.bud.max_nodes then
    raise
      (Diag.Budget_exceeded
         (Printf.sprintf
            "Milp.ilp: branch-and-bound exceeded the %d-node budget"
            ctl.bud.max_nodes));
  Deadline.check ();
  let cold () =
    let _, _, rows = to_standard ~nonneg:ctl.nonneg sys in
    solve_standard_dict ctl.nv rows ctl.c_std
  in
  let solved =
    match start with
    | Cold -> cold ()
    | Presolved d -> `Optimal d
    | Pending d -> (
        match dual_optimize ~max_pivots:(dual_pivot_cap d) d with
        | `Feasible ->
            Stats.incr "milp.warm_starts";
            `Optimal d
        | `Infeasible -> `Infeasible
        | `Stalled ->
            Stats.incr "milp.dual_stalls";
            cold ())
  in
  match solved with
  | `Infeasible -> ()
  | `Unbounded ->
      (* The relaxation is unbounded; if an integer point exists the ILP is
         unbounded too (rational ray + integer point); we detect the ray
         here and report unboundedness conservatively. *)
      ctl.saw_unbounded <- true
  | `Optimal d ->
      let n = Array.length d.nonbasic in
      let v = Q.neg d.obj.(n) in
      let x = recover ~nonneg:ctl.nonneg ctl.nv0 (extract_point ctl.nv d) in
      let lower = Q.ceil v in
      let prune =
        match ctl.best with
        | Some (bv, _) -> Bigint.compare lower bv >= 0
        | None -> false
      in
      if not prune then begin
        match Array.find_index (fun q -> not (Q.is_integer q)) x with
        | None ->
            let xi = Array.map Q.to_bigint_exn x in
            let value = Vec.dot ctl.objective xi in
            (match ctl.best with
            | Some (bv, _) when Bigint.compare value bv >= 0 -> ()
            | _ -> ctl.best <- Some (value, xi))
        | Some j ->
            let f = Q.floor x.(j) in
            let branch poly_row std_row =
              let sys' = Polyhedra.add sys poly_row in
              let start' =
                if ctl.warm then begin
                  let d' = copy_dict d in
                  add_row_std d' ~nv:ctl.nv std_row;
                  Pending d'
                end
                else Cold
              in
              bb_node ctl sys' start'
            in
            let fq = Q.of_bigint f in
            let up = Bigint.add f Bigint.one in
            branch (row_le sys j f)
              (std_bound_row ~nonneg:ctl.nonneg ~nv:ctl.nv ~nv0:ctl.nv0 j
                 ~ge:false fq);
            branch (row_ge sys j up)
              (std_bound_row ~nonneg:ctl.nonneg ~nv:ctl.nv ~nv0:ctl.nv0 j
                 ~ge:true (Q.of_bigint up))
      end

let make_ctl ~nonneg ~warm ~budget (sys : Polyhedra.t) (objective : Vec.t) =
  let nv, nv0, _ = to_standard ~nonneg sys in
  let obj_q = Array.map Q.of_bigint objective in
  {
    bud = budget;
    nodes = ref 0;
    warm;
    nonneg;
    nv;
    nv0;
    c_std = widen_obj ~nonneg nv nv0 obj_q;
    objective;
    best = None;
    saw_unbounded = false;
  }

let ctl_result ctl =
  if ctl.saw_unbounded && ctl.best = None then Ilp_unbounded
  else
    match ctl.best with
    | None -> Ilp_infeasible
    | Some (v, x) -> Ilp_optimal (v, x)

let ilp ?(nonneg = false) ?(budget = default_budget) ?warm (sys : Polyhedra.t)
    (objective : Vec.t) =
  if Array.length objective <> sys.Polyhedra.nvars then
    invalid_arg "Milp.ilp: objective length";
  Stats.incr "milp.solves";
  let warm = match warm with Some b -> b | None -> !warm_enabled in
  let ctl = make_ctl ~nonneg ~warm ~budget sys objective in
  bb_node ctl sys Cold;
  ctl_result ctl

let feasible ?(nonneg = false) ?budget ?warm (sys : Polyhedra.t) =
  match ilp ~nonneg ?budget ?warm sys (Vec.zero sys.Polyhedra.nvars) with
  | Ilp_optimal (_, x) -> Some x
  | Ilp_infeasible -> None
  | Ilp_unbounded -> assert false (* zero objective is never unbounded *)

(* Memoized integer feasibility: systems are canonicalized with integer
   tightening (sound here — every caller's variables range over Z) and keyed
   by digest, so the thousands of near-identical dependence/verify probes
   answer from the table.  Budget overruns propagate uncached. *)
let feasible_cache : Bigint.t array option Memo.t =
  Memo.create ~kind:"milp-feasible" ~version:store_version
    ~hits:"milp.feasible_cache_hits" ~misses:"milp.feasible_cache_misses"
    ~evictions:"milp.cache_evictions" ()

let clear_caches () =
  Memo.clear feasible_cache;
  Memo.clear lp_cache

let feasible_cached ?(nonneg = false) ?budget (sys : Polyhedra.t) =
  if not !warm_enabled then feasible ~nonneg ?budget sys
  else
    match Polyhedra.canon ~integer:true sys with
    | None -> None (* canonicalization proved the system empty *)
    | Some c ->
        Option.map Array.copy
          (Memo.lookup feasible_cache
             ((if nonneg then "n:" else "f:") ^ Polyhedra.digest c)
             (fun () -> feasible ~nonneg ?budget c))

(* ------------------------ lexicographic minimum -------------------------- *)

let lexmin_unbounded_error j =
  Diag.Diagnostic
    (Diag.errorf ~code:"unbounded"
       "Milp.lexmin: coordinate %d is unbounded below (the system lacks a \
        lower bound on it; callers must supply bounding constraints)"
       j)

(* Reference path: one independent cold ILP per coordinate. *)
let lexmin_order_cold ~nonneg ?budget (sys : Polyhedra.t) order =
  let n = sys.Polyhedra.nvars in
  let rec fix sys = function
    | [] -> (
        match feasible ~nonneg ?budget ~warm:false sys with
        | None -> None
        | Some x -> Some x)
    | j :: rest -> (
        let obj = Vec.zero n in
        obj.(j) <- Bigint.one;
        match ilp ~nonneg ?budget ~warm:false sys obj with
        | Ilp_infeasible -> None
        | Ilp_unbounded -> raise (lexmin_unbounded_error j)
        | Ilp_optimal (v, _) ->
            let coefs = Vec.zero (n + 1) in
            coefs.(j) <- Bigint.one;
            coefs.(n) <- Bigint.neg v;
            fix (Polyhedra.add sys (Polyhedra.eq coefs)) rest)
  in
  fix sys order

(* Warm path: one living dictionary for the whole prefix chain.  Each
   coordinate re-targets the dictionary's objective, primal-reoptimizes,
   runs its branch-and-bound tree from that presolved root, then pins the
   optimum with two appended rows and a dual repair.  Branch bounds explored
   inside one coordinate's tree are never carried to the next — only the
   x_j = v_j equalities are. *)
let lexmin_order_warm ~nonneg ~budget (sys : Polyhedra.t) order =
  Stats.incr "milp.solves";
  let n = sys.Polyhedra.nvars in
  let nv, nv0, _ = to_standard ~nonneg sys in
  let base_sys = ref sys in
  let base_dict : dict option ref = ref None in
  (* Optimal root dictionary for the standard objective [c_std] over the
     current base system, reusing the living dictionary when possible. *)
  let root_for c_std =
    match !base_dict with
    | Some d -> (
        Stats.incr "milp.warm_starts";
        install_objective d ~nv c_std;
        match optimize d with
        | `Optimal -> `Optimal d
        | `Unbounded -> `Unbounded)
    | None -> (
        let _, _, rows = to_standard ~nonneg !base_sys in
        match solve_standard_dict nv rows c_std with
        | `Optimal d ->
            base_dict := Some d;
            `Optimal d
        | (`Infeasible | `Unbounded) as r -> r)
  in
  let run_bb objective root =
    let ctl = make_ctl ~nonneg ~warm:true ~budget !base_sys objective in
    bb_node ctl !base_sys (Presolved root);
    ctl_result ctl
  in
  let fix_coord j v =
    let coefs = Vec.zero (n + 1) in
    coefs.(j) <- Bigint.one;
    coefs.(n) <- Bigint.neg v;
    base_sys := Polyhedra.add !base_sys (Polyhedra.eq coefs);
    match !base_dict with
    | None -> ()
    | Some d -> (
        let vq = Q.of_bigint v in
        add_row_std d ~nv (std_bound_row ~nonneg ~nv ~nv0 j ~ge:true vq);
        add_row_std d ~nv (std_bound_row ~nonneg ~nv ~nv0 j ~ge:false vq);
        match dual_optimize ~max_pivots:(dual_pivot_cap d) d with
        | `Feasible -> ()
        | `Infeasible | `Stalled ->
            (* the integer optimum is attainable, so this is only ever a
               pivot stall; rebuild cold at the next coordinate *)
            Stats.incr "milp.dual_stalls";
            base_dict := None)
  in
  let coord_objective j =
    let objective = Vec.zero n in
    if j >= 0 then objective.(j) <- Bigint.one;
    let obj_q = Array.map Q.of_bigint objective in
    (objective, widen_obj ~nonneg nv nv0 obj_q)
  in
  let rec fix = function
    | [] -> (
        (* all coordinates pinned: any feasible point is the witness *)
        let objective, c_std = coord_objective (-1) in
        match root_for c_std with
        | `Infeasible -> None
        | `Unbounded -> assert false (* zero objective is never unbounded *)
        | `Optimal root -> (
            match run_bb objective root with
            | Ilp_infeasible -> None
            | Ilp_unbounded -> assert false
            | Ilp_optimal (_, x) -> Some x))
    | j :: rest -> (
        let objective, c_std = coord_objective j in
        match root_for c_std with
        | `Infeasible -> None
        | `Unbounded -> raise (lexmin_unbounded_error j)
        | `Optimal root -> (
            match run_bb objective root with
            | Ilp_infeasible -> None
            | Ilp_unbounded -> raise (lexmin_unbounded_error j)
            | Ilp_optimal (v, _) ->
                fix_coord j v;
                fix rest))
  in
  fix order

let lexmin_order ?(nonneg = false) ?budget ?warm (sys : Polyhedra.t) order =
  let n = sys.Polyhedra.nvars in
  List.iter
    (fun j ->
      if j < 0 || j >= n then invalid_arg "Milp.lexmin_order: bad index")
    order;
  let warm = match warm with Some b -> b | None -> !warm_enabled in
  if warm then
    lexmin_order_warm ~nonneg
      ~budget:(Option.value budget ~default:default_budget)
      sys order
  else lexmin_order_cold ~nonneg ?budget sys order

let lexmin ?nonneg ?budget ?warm sys =
  lexmin_order ?nonneg ?budget ?warm sys (Putil.range sys.Polyhedra.nvars)
