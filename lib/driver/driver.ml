type options = {
  tile : bool;
  tile_size : int option;
  tile_sizes : int array option;
  parallelize : bool;
  wavefront : int;
  intra_reorder : bool;
  unroll_jam : int;
  min_band_tile : int;
  auto : Pluto.Auto.config;
  fast_schedule : bool;
  break_fastpath : bool;
  reductions : bool;
}

let default_options =
  {
    tile = true;
    tile_size = None;
    tile_sizes = None;
    parallelize = true;
    wavefront = 1;
    intra_reorder = true;
    unroll_jam = 1;
    min_band_tile = 2;
    auto = Pluto.Auto.default_config;
    fast_schedule = true;
    break_fastpath = false;
    reductions = false;
  }

(* ----------------------------- the option table --------------------------- *)

type _ kind =
  | Bool : bool kind
  | Int : int kind
  | Int_opt : int option kind
  | Ints_opt : int array option kind

type cli =
  | Value of { flag : string option; docv : string; doc : string }
  | Switches of (string option * bool * string) list

type 'a field = {
  key : string;
  kind : 'a kind;
  min : int;
  cli : cli option;
  get : options -> 'a;
  set : options -> 'a -> options;
}

type option_field = Field : 'a field -> option_field

let int_max = 1 lsl 30
let int_range ~min = Printf.sprintf "[%d, %d]" min int_max
let row ?(min = 0) ?cli key kind get set = Field { key; kind; min; cli; get; set }
let value ?flag docv doc = Some (Value { flag; docv; doc })
let switch ?flag v doc = Some (Switches [ (flag, v, doc) ])

(* Canonical order: the wire encoding lists the fields in this order, and
   the daemon's request digest and the tuner's store key hash that
   encoding, so reordering or respelling a row re-keys both caches. *)
let option_fields =
  [
    row "tile" Bool
      ?cli:(switch ~flag:"no-tile" false "Disable tiling (Algorithm 1).")
      (fun o -> o.tile) (fun o tile -> { o with tile });
    row "tile_size" Int_opt ~min:1
      ?cli:(value ~flag:"tile-size" "T" "Uniform tile size (default: rough cache model).")
      (fun o -> o.tile_size) (fun o tile_size -> { o with tile_size });
    row "tile_sizes" Ints_opt ~min:1
      (fun o -> o.tile_sizes) (fun o tile_sizes -> { o with tile_sizes });
    row "parallelize" Bool
      ?cli:(switch ~flag:"no-parallel" false "Do not mark loops for OpenMP.")
      (fun o -> o.parallelize) (fun o parallelize -> { o with parallelize });
    row "wavefront" Int ~min:0
      ?cli:(value "M" "Degrees of pipelined parallelism to extract (Algorithm 2).")
      (fun o -> o.wavefront) (fun o wavefront -> { o with wavefront });
    row "intra_reorder" Bool
      ?cli:
        (switch ~flag:"no-intra-reorder" false
           "Disable the intra-tile reordering post-pass (section 5.4).")
      (fun o -> o.intra_reorder) (fun o intra_reorder -> { o with intra_reorder });
    row "unroll_jam" Int ~min:1
      ?cli:
        (value ~flag:"unroll-jam" "F"
           "Unroll-jam factor for the innermost parallel/vectorizable loop \
            (annotation priced by the simulator and emitted as a pragma; 1 = \
            off).")
      (fun o -> o.unroll_jam) (fun o unroll_jam -> { o with unroll_jam });
    row "min_band_tile" Int ~min:1
      (fun o -> o.min_band_tile) (fun o min_band_tile -> { o with min_band_tile });
    row "input_deps" Bool
      ?cli:
        (switch ~flag:"no-rar" false
           "Ignore read-after-read dependences in the cost function.")
      (fun o -> o.auto.Pluto.Auto.input_deps)
      (fun o input_deps -> { o with auto = { o.auto with Pluto.Auto.input_deps } });
    row "fast_schedule" Bool
      ~cli:
        (Switches
           [
             ( Some "fast-schedule",
               true,
               "Try the fast fusion/dimension-matching scheduler before the \
                exact per-hyperplane ILP (the default).  Accepted schedules \
                are translation-validated first; anything else falls back \
                to the ILP with a fastpath-rejected warning (still exit \
                0)." );
             ( Some "no-fast-schedule",
               false,
               "Always use the exact per-hyperplane ILP search (skip the \
                fast scheduling path)." );
           ])
      (fun o -> o.fast_schedule) (fun o fast_schedule -> { o with fast_schedule });
    (* deliberately undocumented: the sabotage hook for the fast path's
       rejection machinery *)
    row "break_fastpath" Bool
      ?cli:(switch ~flag:"break-fastpath" true "")
      (fun o -> o.break_fastpath) (fun o break_fastpath -> { o with break_fastpath });
    row "reductions" Bool
      ?cli:
        (switch true
           "Reduction-aware compilation: detect associative/commutative \
            self-updates (sums, products, histograms), relax their \
            self-dependences during scheduling so the surrounding loops can \
            be parallelized, and emit OpenMP reduction(op:array) clauses on \
            parallel loops that carry them.  Execution then matches the \
            original order up to floating-point reassociation rather than \
            bit-exactly ($(b,--check) compares with a small relative \
            tolerance for such programs).  Off by default; without this flag \
            output is bit-identical to previous releases.")
      (fun o -> o.reductions) (fun o reductions -> { o with reductions });
  ]

let cli_flag f flag = Option.value flag ~default:f.key

type result = {
  program : Ir.program;
  deps : Deps.t list;
  transform : Pluto.Types.transform;
  target : Pluto.Types.target;
  code : Codegen.t;
}

let narrays (p : Ir.program) = List.length p.Ir.arrays

(* Tile sizes: uniform, either given or from the rough cache model (an L1 of
   the simulated machine: 2 KB = 256 doubles). *)
let sizes_for options (b : Pluto.Tiling.band) na =
  match options.tile_sizes with
  | Some sizes when Array.length sizes > 0 ->
      (* rectangular tiles: one size per band level, the last size repeated
         for bands deeper than the given vector *)
      Array.init b.Pluto.Tiling.b_len (fun j ->
          sizes.(min j (Array.length sizes - 1)))
  | _ ->
      let tau =
        match options.tile_size with
        | Some t -> t
        | None ->
            Pluto.Tiling.default_tile_size ~band_width:b.Pluto.Tiling.b_len
              ~cache_elems:2048 ~narrays:na
      in
      Array.make b.Pluto.Tiling.b_len tau

let intra_levels_of_band ~(bands_sizes : (Pluto.Tiling.band * int array) list)
    (b : Pluto.Tiling.band) =
  let supers_before =
    Putil.sum_by
      (fun ((b' : Pluto.Tiling.band), _) ->
        if b'.Pluto.Tiling.b_start <= b.Pluto.Tiling.b_start then
          b'.Pluto.Tiling.b_len
        else 0)
      bands_sizes
  in
  List.init b.Pluto.Tiling.b_len (fun j ->
      supers_before + b.Pluto.Tiling.b_start + j)

let build_target options (tr : Pluto.Types.transform) =
  let bands = Pluto.Tiling.bands_of tr in
  let na = narrays tr.Pluto.Types.program in
  let tiled_bands =
    List.filter
      (fun (b : Pluto.Tiling.band) ->
        options.tile && b.Pluto.Tiling.b_len >= options.min_band_tile)
      bands
  in
  let bands_sizes = List.map (fun b -> (b, sizes_for options b na)) tiled_bands in
  let tgt =
    if bands_sizes = [] then Pluto.Tiling.untiled_target tr
    else Pluto.Tiling.tile tr ~bands_sizes
  in
  let tgt =
    if not options.parallelize then
      (* strip all parallel marks *)
      { tgt with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) tgt.Pluto.Types.tpar }
    else begin
      match bands_sizes with
      | [] ->
          (* untiled: mark outer parallel loops *)
          Pluto.Tiling.mark_outer_parallel
            { tgt with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) tgt.Pluto.Types.tpar }
            ~max_degrees:1
      | (b, _) :: _ ->
          let tgt =
            { tgt with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) tgt.Pluto.Types.tpar }
          in
          let levels = Pluto.Tiling.target_band_levels tr ~bands_sizes b in
          (* if the first tile-space loop is parallel, just mark it; else
             wavefront (Algorithm 2) *)
          let first = List.hd levels in
          let first_parallel =
            match tgt.Pluto.Types.tkinds.(first) with
            | Pluto.Types.Loop { parallel; _ } -> parallel
            | Pluto.Types.Scalar -> false
          in
          if first_parallel then begin
            let tpar = Array.copy tgt.Pluto.Types.tpar in
            tpar.(first) <- Pluto.Types.Par;
            { tgt with Pluto.Types.tpar = tpar }
          end
          else if options.wavefront > 0 then
            Pluto.Tiling.wavefront tgt ~levels ~degrees:options.wavefront
          else tgt
    end
  in
  let tgt =
    if options.intra_reorder then
      List.fold_left
        (fun tgt (b, _) ->
          let intra_levels = intra_levels_of_band ~bands_sizes b in
          let has_parallel =
            List.exists
              (fun l ->
                match tgt.Pluto.Types.tkinds.(l) with
                | Pluto.Types.Loop { parallel = true; _ } -> true
                | _ -> false)
              intra_levels
          in
          if has_parallel then
            Pluto.Tiling.move_parallel_innermost tgt ~intra_levels
          else
            (* §5.4: force vectorization of the best spatial-locality level
               with an ignore-dependence pragma *)
            Pluto.Tiling.force_vectorize_innermost tgt ~intra_levels)
        tgt bands_sizes
    else tgt
  in
  tgt

(* ------------------------ OpenMP reduction clauses ------------------------ *)

(* Per target level, the [reduction(op:array)] clauses the C printer must
   attach to a parallel loop at that level.  A parallel level [l] needs a
   clause for reduction statement [S] exactly when it {e carries} S's marked
   self-dependence under the final schedule: two instances of S with equal
   scattering prefix 0..l-1, a strictly positive difference at [l], and the
   same accumulator cell.  That is one integer-emptiness test per (level,
   statement) pair over two copies of S's extended (post-tiling) domain —
   e.g. MVT's outer-parallel [x1[i] += ...] is empty here (different [i] ⇒
   different cell ⇒ no clause) while its inner [j]-parallel variant is not.
   The clause privatizes the whole array (OpenMP 4.5 C array reductions),
   which is correct for cell accumulators too: private copies start at the
   op's identity and the combiner folds per-thread contributions into the
   live-in values.  The test is {!Deps.nonempty}, whose answer on a
   solver-budget blowup conservatively attaches the clause — a superfluous
   clause is semantically harmless, a missing one is a race. *)
let reduction_clauses (tgt : Pluto.Types.target) (deps : Deps.t list) =
  let nlevels = tgt.Pluto.Types.tnlevels in
  let clauses = Array.make nlevels [] in
  let np = List.length tgt.Pluto.Types.tprogram.Ir.params in
  let red_stmts =
    List.sort_uniq compare
      (List.filter_map
         (fun (d : Deps.t) ->
           if d.Deps.reduction then Some d.Deps.src.Ir.id else None)
         deps)
  in
  List.iter
    (fun sid ->
      let ts = List.nth tgt.Pluto.Types.tstmts sid in
      match Ir.reduction_of_stmt ts.Pluto.Types.stmt with
      | None -> ()
      | Some r ->
          let s = ts.Pluto.Types.stmt in
          let next = Array.length ts.Pluto.Types.ext_iters in
          let m = Ir.depth s in
          let nv = (2 * next) + np in
          let width = nv + 1 in
          (* variables: [ext_iters copy 1 @ ext_iters copy 2 @ params] *)
          let embed offset (c : Polyhedra.constr) =
            let coefs = Vec.zero width in
            for j = 0 to next - 1 do
              coefs.(offset + j) <- c.Polyhedra.coefs.(j)
            done;
            for j = 0 to np - 1 do
              coefs.((2 * next) + j) <- c.Polyhedra.coefs.(next + j)
            done;
            coefs.(width - 1) <- c.Polyhedra.coefs.(next + np);
            { c with Polyhedra.coefs }
          in
          let base_cs =
            List.map (embed 0) ts.Pluto.Types.ext_domain.Polyhedra.cs
            @ List.map (embed next) ts.Pluto.Types.ext_domain.Polyhedra.cs
          in
          (* same accumulator cell in both copies (the original iterators are
             the trailing [m] extended iterators) *)
          let acc_eqs =
            List.map
              (fun k ->
                let row = r.Ir.red_acc.Ir.map.(k) in
                let coefs = Vec.zero width in
                for j = 0 to m - 1 do
                  coefs.(next - m + j) <- Bigint.of_int (-row.(j));
                  coefs.(next + (next - m) + j) <- Bigint.of_int row.(j)
                done;
                Polyhedra.eq coefs)
              (Putil.range (Array.length r.Ir.red_acc.Ir.map))
          in
          let trow_delta l =
            let row = ts.Pluto.Types.trows.(l) in
            let coefs = Vec.zero width in
            for j = 0 to next - 1 do
              coefs.(j) <- Bigint.of_int (-row.(j));
              coefs.(next + j) <- Bigint.of_int row.(j)
            done;
            coefs
          in
          for l = 0 to nlevels - 1 do
            if tgt.Pluto.Types.tpar.(l) = Pluto.Types.Par then begin
              let prefix_eqs =
                List.map (fun k -> Polyhedra.eq (trow_delta k)) (Putil.range l)
              in
              let sys =
                Polyhedra.of_constrs nv
                  (base_cs @ acc_eqs @ prefix_eqs
                  @ [ Deps.delta_ge_1 (trow_delta l) ])
              in
              if Deps.nonempty ~np sys then begin
                let clause =
                  (Ir.binop_symbol r.Ir.red_op, s.Ir.lhs.Ir.arr)
                in
                if not (List.mem clause clauses.(l)) then
                  clauses.(l) <- clauses.(l) @ [ clause ]
              end
            end
          done)
    red_stmts;
  clauses

let compile_with_transform ?(options = default_options) program deps transform =
  let target = build_target options transform in
  let code =
    Stats.time "pass.codegen" (fun () ->
        Codegen.generate target)
  in
  let code =
    if options.unroll_jam > 1 then
      Codegen.with_unroll_innermost code ~factor:options.unroll_jam
    else code
  in
  let code =
    if options.reductions then
      Codegen.with_reductions code
        (Stats.time "pass.reduction_clauses" (fun () ->
             reduction_clauses target deps))
    else code
  in
  { program; deps; transform; target; code }

let compile ?(options = default_options) program =
  let deps =
    Stats.time "pass.deps" (fun () ->
        Deps.compute ~input_deps:options.auto.Pluto.Auto.input_deps
          ~reductions:options.reductions program)
  in
  let transform =
    Stats.time "pass.transform" (fun () ->
        Pluto.Auto.transform ~config:options.auto program deps)
  in
  compile_with_transform ~options program deps transform

let compile_feautrier ?(options = default_options) program =
  let deps =
    Deps.compute ~input_deps:false ~reductions:options.reductions program
  in
  (* the caller's budget, but always Pluto's default bounds: a caller that
     narrows the Pluto search (to force this rung) must not narrow this one *)
  let config =
    { Pluto.Auto.default_config with Pluto.Auto.budget = options.auto.Pluto.Auto.budget }
  in
  let tr, fco = Pluto.Feautrier.scheduling_transform ~config program deps in
  (* time tiling is legal only when the completion kept every row forward *)
  let options = if fco then options else { options with tile = false } in
  compile_with_transform ~options program deps tr

let compile_original ?(options = default_options) program =
  let deps = Deps.compute ~reductions:options.reductions program in
  let transform = Pluto.Auto.identity_transform program deps in
  let target = Pluto.Tiling.untiled_target transform in
  (* original code: no OpenMP marks (icc's auto-parallelizer fails on these) *)
  let target =
    { target with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) target.Pluto.Types.tpar }
  in
  let code = Codegen.generate target in
  { program; deps; transform; target; code }

(* ---------------- robust compilation: the degradation ladder ------------- *)

(* Run one rung, converting every failure mode into a diagnostic.  Anything
   that is not an explicit out-of-memory / interrupt is caught: the whole
   point of [compile_robust] is that no input can crash the process. *)
let attempt ~what f =
  match f () with
  | v -> Ok v
  | exception Diag.Budget_exceeded msg ->
      Error (Diag.errorf ~code:"budget" "%s: resource budget exceeded: %s" what msg)
  | exception Deadline.Expired ->
      Error (Diag.errorf ~code:"deadline" "%s: the compile deadline expired" what)
  | exception Diag.Diagnostic d ->
      Error { d with Diag.message = what ^ ": " ^ d.Diag.message }
  | exception Pluto.Auto.No_transform msg ->
      Error (Diag.errorf ~code:"no-transform" "%s: no transformation found: %s" what msg)
  | exception Pluto.Feautrier.No_schedule msg ->
      Error (Diag.errorf ~code:"no-schedule" "%s: no schedule found: %s" what msg)
  | exception Stack_overflow ->
      Error (Diag.errorf ~code:"internal" "%s: stack overflow" what)
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception e ->
      Error (Diag.errorf ~code:"internal" "%s: %s" what (Printexc.to_string e))

let demote (d : Diag.t) = { d with Diag.sev = Diag.Warning }
let promote (d : Diag.t) = { d with Diag.sev = Diag.Error }

(* ------------------------- the fast scheduling rung ----------------------- *)

(* Cached outcome of the fast matcher for one (program, options) pair.
   Accepts are stored only after translation validation passed, so a warm
   hit skips both the matcher and the validator; rejects are cached too —
   re-deriving "this program needs the ILP" costs as much as the first
   attempt did. *)
type fast_cached =
  | Fast_accepted of {
      fc_kinds : Pluto.Types.level_kind array;
      fc_rows : int array array array;
      fc_satisfied : (int * int) list;  (* sorted (dep id, level) *)
    }
  | Fast_rejected of string

let fast_store_kind = "fastpath"

(* The cache key covers the whole compilation request: any option (tile
   sizes, bounds, wavefronting...) changes the generated code the validator
   signed off on. *)
let fast_key (program : Ir.program) (options : options) =
  match Marshal.to_string (program, options) [] with
  | s -> Some (Digest.to_hex (Digest.string s))
  | exception _ -> None

let cached_of_transform (t : Pluto.Types.transform) =
  let sat =
    Hashtbl.fold (fun d l acc -> (d, l) :: acc) t.Pluto.Types.satisfied_at []
  in
  Fast_accepted
    {
      fc_kinds = t.Pluto.Types.kinds;
      fc_rows = t.Pluto.Types.rows;
      fc_satisfied = List.sort compare sat;
    }

let transform_of_cached program deps = function
  | Fast_rejected reason -> Error reason
  | Fast_accepted { fc_kinds; fc_rows; fc_satisfied } ->
      let satisfied_at = Hashtbl.create 16 in
      List.iter (fun (d, l) -> Hashtbl.replace satisfied_at d l) fc_satisfied;
      Ok
        {
          Pluto.Types.program;
          deps;
          nlevels = Array.length fc_kinds;
          kinds = fc_kinds;
          rows = fc_rows;
          satisfied_at;
        }

let loop_levels (t : Pluto.Types.transform) =
  Array.fold_left
    (fun a k ->
      match k with Pluto.Types.Loop _ -> a + 1 | Pluto.Types.Scalar -> a)
    0 t.Pluto.Types.kinds

(* --break-fastpath: deliberately corrupt an accepted fast schedule so that
   only the validator stands between it and the output — negate every
   statement's row at the outermost loop level that strongly satisfies a
   dependence (reversing those dependences), falling back to the first loop
   level when satisfaction is all-scalar. *)
let break_transform (t : Pluto.Types.transform) =
  let is_loop l =
    match t.Pluto.Types.kinds.(l) with
    | Pluto.Types.Loop _ -> true
    | Pluto.Types.Scalar -> false
  in
  let target = ref None in
  Hashtbl.iter
    (fun _ l ->
      if is_loop l then
        match !target with
        | Some b when b <= l -> ()
        | _ -> target := Some l)
    t.Pluto.Types.satisfied_at;
  if !target = None then
    Array.iteri
      (fun l _ -> if !target = None && is_loop l then target := Some l)
      t.Pluto.Types.kinds;
  match !target with
  | None -> t
  | Some l ->
      let rows =
        Array.map
          (fun (srows : int array array) ->
            Array.mapi
              (fun i row ->
                if i = l then Array.map (fun c -> -c) row else row)
              srows)
          t.Pluto.Types.rows
      in
      { t with Pluto.Types.rows = rows }

(* One attempt at the fast rung: matcher (or cache) -> codegen -> translation
   validation.  [Error reason] is a clean rejection (fall back to the ILP);
   exceptions are the caller's [attempt] wall's problem.  [revalidate] forces
   validation even on a warm cache hit (the [~verify] contract of
   [compile_robust] is that every returned result was validated this run). *)
let try_fast ~options ~revalidate program =
  let deps =
    Stats.time "pass.deps" (fun () ->
        Deps.compute ~input_deps:options.auto.Pluto.Auto.input_deps
          ~reductions:options.reductions program)
  in
  let key = if options.break_fastpath then None else fast_key program options in
  let cache_read () =
    match key with
    | None -> None
    | Some key ->
        (Store.read_versioned ~version:Pluto.Fastmatch.version
           ~kind:fast_store_kind ~key
          : fast_cached option)
  in
  let cache_write v =
    match key with
    | None -> ()
    | Some key ->
        Store.write_versioned ~version:Pluto.Fastmatch.version
          ~kind:fast_store_kind ~key v
  in
  let finish ~validated tr =
    let r = compile_with_transform ~options program deps tr in
    let validate () =
      match Verify.validate r.program r.deps r.transform r.code with
      | rep when Verify.ok rep -> Ok ()
      | rep ->
          Error
            (Format.asprintf
               "translation validation rejected the fast schedule: %a"
               Verify.pp_report rep)
    in
    let verdict = if validated && not revalidate then Ok () else validate () in
    match verdict with
    | Ok () ->
        if not validated then cache_write (cached_of_transform tr);
        (* a lower-bound estimate: the exact search solves at least one
           hyperplane lexmin ILP per loop level it emits *)
        Stats.add "fastpath.ilp_avoided" (loop_levels tr);
        Ok r
    | Error reason -> Error reason
  in
  match cache_read () with
  | Some (Fast_rejected reason) -> Error reason
  | Some (Fast_accepted _ as c) -> (
      match transform_of_cached program deps c with
      | Error reason -> Error reason
      | Ok tr -> finish ~validated:true tr)
  | None -> (
      match
        Stats.time "pass.transform" (fun () ->
            Pluto.Fastmatch.schedule ~config:options.auto program deps)
      with
      | exception Pluto.Fastmatch.No_fast_schedule reason ->
          cache_write (Fast_rejected reason);
          Error reason
      | tr ->
          let tr =
            if options.break_fastpath then break_transform tr else tr
          in
          (* a deliberately broken schedule must never be published *)
          finish ~validated:false tr)

let degraded ds =
  Diag.has_code ds "degraded-feautrier"
  || Diag.has_code ds "degraded-identity"
  || Diag.has_code ds "degraded-tune"

let verify ?params (r : result) =
  Verify.validate ?params r.program r.deps r.transform r.code

let compile_robust ?(options = default_options) ?(strict = false)
    ?(verify = false) ?deadline_s program =
  let validate_rung ~what r =
    if not verify then Ok r
    else
      match
        Verify.validate r.program r.deps r.transform r.code
      with
      | rep when Verify.ok rep -> Ok r
      | rep ->
          Error
            (Diag.errorf ~code:"verify-failed"
               "%s: translation validation rejected the emitted code: %s" what
               (Format.asprintf "%a" Verify.pp_report rep))
      | exception ((Out_of_memory | Sys.Break | Deadline.Expired) as e) -> raise e
      | exception e ->
          Error
            (Diag.errorf ~code:"verify-failed" "%s: validator raised: %s" what
               (Printexc.to_string e))
  in
  (* A rung first checks the deadline: one reached after it passed fails at
     once instead of spending time the caller no longer has. *)
  let rung ~what f =
    Result.join
      (attempt ~what (fun () ->
           Deadline.check ();
           validate_rung ~what (f ())))
  in
  let rung_auto () = compile ~options program in
  let rung_feautrier () = compile_feautrier ~options program in
  let rung_identity () = compile_original ~options program in
  (* Top rung: the fast (fusion + dimension-matching) scheduler.  Its
     accepts are translation-validated before being trusted; every other
     outcome — clean rejection, validation failure, crash, expired
     deadline — is one structured warning and a fall-through to the exact
     ILP below. *)
  let fast () =
    Stats.incr "fastpath.attempts";
    match
      attempt ~what:"fast scheduling path" (fun () ->
          Deadline.check ();
          try_fast ~options ~revalidate:verify program)
    with
    | Ok (Ok r) ->
        Stats.incr "fastpath.accepts";
        Ok r
    | Ok (Error reason) ->
        Stats.incr "fastpath.rejects";
        Error reason
    | Error d ->
        Stats.incr "fastpath.rejects";
        Error d.Diag.message
  in
  let accepted =
    Diag.note ~code:"fastpath-accepted"
      "fast scheduling path accepted a validated permutation/fusion \
       schedule (no ILP solves)"
  in
  let rejected reason =
    Diag.warningf ~code:"fastpath-rejected"
      "fast scheduling path rejected (%s); falling back to the exact ILP" reason
  in
  let w1 =
    Diag.warningf ~code:"degraded-feautrier"
      "Pluto search failed; falling back to the Feautrier/FCO baseline \
       schedule"
  in
  let w2 =
    Diag.warningf ~code:"degraded-identity"
      "Feautrier baseline failed; emitting the original program order (no \
       transformation)"
  in
  (* The searching rungs share one deadline, each spending what the rungs
     before it left.  [Error (warnings, failures)] leaves only the identity
     rung. *)
  let searched =
    Deadline.within deadline_s (fun () ->
        match if options.fast_schedule then Some (fast ()) else None with
        | Some (Ok r) -> Ok (r, [ accepted ])
        | fast -> (
            let warns =
              match fast with Some (Error reason) -> [ rejected reason ] | _ -> []
            in
            match rung ~what:"Pluto auto transformation" rung_auto with
            | Ok r -> Ok (r, warns)
            | Error d1 when strict -> Error (warns, [ d1 ])
            | Error d1 -> (
                let warns = warns @ [ demote d1; w1 ] in
                match rung ~what:"Feautrier baseline scheduler" rung_feautrier with
                | Ok r -> Ok (r, warns)
                | Error d2 -> Error (warns @ [ demote d2; w2 ], [ d1; d2 ]))))
  in
  match searched with
  | Ok v -> Ok v
  | Error (_, failures) when strict -> Error (List.map promote failures)
  | Error (warns, failures) -> (
      (* no search, so no deadline: an expired one still ends in code *)
      match rung ~what:"identity schedule" rung_identity with
      | Ok r -> Ok (r, warns)
      | Error d3 -> Error (List.map promote (failures @ [ d3 ])))

let compile_source_robust ?options ?strict ?verify ?deadline_s ?name src =
  match Frontend.parse_program_diag ?name src with
  | Error ds -> Error ds
  | Ok (program, warns) -> (
      match compile_robust ?options ?strict ?verify ?deadline_s program with
      | Ok (r, ds) -> Ok (r, warns @ ds)
      | Error ds -> Error (warns @ ds))
