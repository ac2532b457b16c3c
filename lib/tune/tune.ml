(* Model-guided empirical autotuner.  See tune.mli for the architecture; the
   moving parts below are, in order: the candidate space, the footprint
   pruner, the on-disk evaluation cache, single-candidate evaluation under a
   compile deadline, the fork worker pool, and the search driver. *)

(* ---------------------------- candidate space ---------------------------- *)

type candidate = {
  c_tile : bool;
  c_sizes : int array option;
  c_fuse_rar : bool;
  c_unroll : int;
}

let default_candidate =
  { c_tile = true; c_sizes = None; c_fuse_rar = true; c_unroll = 1 }

let t64_candidate = { default_candidate with c_sizes = Some [| 64 |] }

let sizes_to_string = function
  | None -> "model"
  | Some sizes ->
      String.concat "x" (Array.to_list (Array.map string_of_int sizes))

let candidate_to_string c =
  if not c.c_tile then
    Printf.sprintf "untiled rar=%s unroll=%d"
      (if c.c_fuse_rar then "on" else "off")
      c.c_unroll
  else
    Printf.sprintf "tile=%s rar=%s unroll=%d" (sizes_to_string c.c_sizes)
      (if c.c_fuse_rar then "on" else "off")
      c.c_unroll

let pp_candidate fmt c = Format.pp_print_string fmt (candidate_to_string c)

let candidate_options (base : Driver.options) c =
  {
    base with
    Driver.tile = c.c_tile;
    tile_size = None;
    tile_sizes = c.c_sizes;
    unroll_jam = c.c_unroll;
    auto = { base.Driver.auto with Pluto.Auto.input_deps = c.c_fuse_rar };
  }

(* Powers of two as the paper suggests, plus rectangular mixes (tall/wide
   tiles trade reuse along one hyperplane against the other — profitable on
   stencils where the time and space tile extents want to differ). *)
let uniform_sizes = [ 4; 8; 16; 32; 64 ]

let rect_sizes =
  [
    [| 8; 32 |]; [| 32; 8 |]; [| 16; 64 |]; [| 64; 16 |];
    [| 8; 128 |]; [| 128; 8 |];
  ]

let unroll_factors = [ 1; 2; 4; 8 ]

let all_candidates () =
  let tiles =
    ((true, None) :: List.map (fun t -> (true, Some [| t |])) uniform_sizes)
    @ List.map (fun s -> (true, Some s)) rect_sizes
    @ [ (false, None) ]
  in
  List.concat_map
    (fun (c_tile, c_sizes) ->
      List.concat_map
        (fun c_fuse_rar ->
          List.map
            (fun c_unroll -> { c_tile; c_sizes; c_fuse_rar; c_unroll })
            unroll_factors)
        [ true; false ])
    tiles

(* --------------------------- footprint pruning --------------------------- *)

let footprint_bytes ~narrays ~band_width sizes =
  if Array.length sizes = 0 || band_width <= 0 then 0
  else begin
    let elems = ref 1 in
    for j = 0 to band_width - 1 do
      elems := !elems * sizes.(min j (Array.length sizes - 1))
    done;
    8 * narrays * !elems
  end

let prunes ~(machine : Machine.machine_config) ~narrays ~band_width c =
  match (c.c_tile, c.c_sizes) with
  | false, _ | _, None -> false (* the rough model clamps itself to cache *)
  | true, Some sizes ->
      band_width > 0
      && footprint_bytes ~narrays ~band_width sizes
         > machine.Machine.l2.Cache.size_bytes

(* Anchors (the default and T=64 configurations) are exempt from pruning:
   their cost is the report's baseline even when the model says they thrash. *)
let enumerate ~machine ~narrays ~band_width =
  let anchors = [ default_candidate; t64_candidate ] in
  let rest =
    List.filter (fun c -> not (List.mem c anchors)) (all_candidates ())
  in
  let survivors, npruned =
    List.fold_left
      (fun (keep, n) c ->
        if prunes ~machine ~narrays ~band_width c then (keep, n + 1)
        else (c :: keep, n))
      ([], 0) rest
  in
  (anchors @ List.rev survivors, npruned)

(* --------------------------- outcomes / report --------------------------- *)

type outcome = {
  o_index : int;
  o_cand : candidate;
  o_cycles : float;
  o_gflops : float;
  o_degraded : bool;
  o_from_cache : bool;
  o_failed : string option;
}

type report = {
  r_name : string;
  r_digest : string;
  r_params : (string * int) list;
  r_seed : int;
  r_jobs : int;
  r_generated : int;
  r_pruned : int;
  r_evaluated : int;
  r_cache_hits : int;
  r_default_cycles : float;
  r_t64_cycles : float;
  r_best : outcome option;
  r_outcomes : outcome list;
  r_elapsed_s : float;
}

(* JSON has no Infinity literal; failed candidates carry "failed" anyway. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let outcome_to_json o =
  Printf.sprintf
    "{\"index\": %d, \"candidate\": %s, \"cycles\": %s, \"gflops\": %s, \
     \"degraded\": %b, \"from_cache\": %b, \"failed\": %s}"
    o.o_index
    (Manifest.json_string (candidate_to_string o.o_cand))
    (json_float o.o_cycles) (json_float o.o_gflops) o.o_degraded
    o.o_from_cache
    (match o.o_failed with None -> "null" | Some m -> Manifest.json_string m)

let report_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"program\": %s,\n  \"digest\": %s,\n"
       (Manifest.json_string r.r_name) (Manifest.json_string r.r_digest));
  Buffer.add_string b "  \"params\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%s: %d" (Manifest.json_string k) v))
    r.r_params;
  Buffer.add_string b "},\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"seed\": %d,\n  \"jobs\": %d,\n  \"generated\": %d,\n  \
        \"pruned\": %d,\n  \"evaluated\": %d,\n  \"cache_hits\": %d,\n"
       r.r_seed r.r_jobs r.r_generated r.r_pruned r.r_evaluated r.r_cache_hits);
  Buffer.add_string b
    (Printf.sprintf
       "  \"default_cycles\": %s,\n  \"t64_cycles\": %s,\n"
       (json_float r.r_default_cycles)
       (json_float r.r_t64_cycles));
  Buffer.add_string b
    (Printf.sprintf "  \"best\": %s,\n"
       (match r.r_best with None -> "null" | Some o -> outcome_to_json o));
  Buffer.add_string b
    (Printf.sprintf "  \"elapsed_s\": %.3f,\n" r.r_elapsed_s);
  Buffer.add_string b "  \"outcomes\": [\n";
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b ("    " ^ outcome_to_json o))
    r.r_outcomes;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let pp_report_summary fmt r =
  Format.fprintf fmt
    "@[<v>tuned %s: %d candidates (%d pruned), %d evaluated, %d from cache@,"
    r.r_name r.r_generated r.r_pruned r.r_evaluated r.r_cache_hits;
  (match r.r_best with
  | None -> Format.fprintf fmt "no verified candidate found@,"
  | Some o ->
      Format.fprintf fmt "best: %a — %.3e cycles (%.3f GFLOPS)%s@,"
        pp_candidate o.o_cand o.o_cycles o.o_gflops
        (if o.o_degraded then " [degraded rung]" else "");
      if Float.is_finite r.r_default_cycles && r.r_default_cycles > 0.0 then
        Format.fprintf fmt "vs default (model tiles): %.3e cycles — %.2fx@,"
          r.r_default_cycles
          (r.r_default_cycles /. o.o_cycles);
      if Float.is_finite r.r_t64_cycles && r.r_t64_cycles > 0.0 then
        Format.fprintf fmt "vs uniform T=64: %.3e cycles — %.2fx@,"
          r.r_t64_cycles
          (r.r_t64_cycles /. o.o_cycles));
  Format.fprintf fmt "wall time: %.2fs@]" r.r_elapsed_s

(* ------------------------- persistent eval cache ------------------------- *)

(* Evaluations live in the persistent {!Store} (plutocc --cache-dir) under
   kind "tune-eval", one entry per (program, machine, params, options,
   candidate) key; the store's checksum turns any corrupt entry into a
   miss, never a wrong cost. *)

let machine_repr (m : Machine.machine_config) =
  Printf.sprintf
    "cores=%d l1=%d/%d/%d l2=%d/%d/%d grp=%d flop=%g hit=%g l1m=%g l2m=%g \
     line=%g loop=%g guard=%g barrier=%g vec=%d ghz=%g"
    m.Machine.ncores m.Machine.l1.Cache.size_bytes m.Machine.l1.Cache.line_bytes
    m.Machine.l1.Cache.assoc m.Machine.l2.Cache.size_bytes
    m.Machine.l2.Cache.line_bytes m.Machine.l2.Cache.assoc m.Machine.l2_group
    m.Machine.flop_cycles m.Machine.l1_hit_cycles m.Machine.l1_miss_cycles
    m.Machine.l2_miss_cycles m.Machine.mem_line_cycles
    m.Machine.loop_overhead_cycles m.Machine.guard_cycles
    m.Machine.barrier_cycles m.Machine.vector_width m.Machine.ghz

(* The options part of the key is the daemon's canonical wire encoding,
   which covers every field of {!Driver.option_fields}, plus the search
   configuration [auto] that is not on the wire, marshaled whole so a field
   added to it later cannot be left out. *)
let cache_key ~program_repr ~machine ~params ~options cand =
  let params_repr =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            "pluto-tune-cache-v2";
            program_repr;
            machine_repr machine;
            params_repr;
            Manifest.options_to_json options;
            Marshal.to_string options.Driver.auto [];
            candidate_to_string cand;
          ]))

(* cached value: (cycles, gflops, degraded, failed) *)
type payload = float * float * bool * string option

let eval_kind = "tune-eval"

(* ------------------------ candidate evaluation --------------------------- *)

let diag_summary ds =
  String.concat "; "
    (List.map (fun (d : Diag.t) -> d.Diag.code ^ ": " ^ d.Diag.message) ds)

(* The candidate's compile runs under [deadline_s]; the simulation that
   prices its result does not.  The flag says the compile hit the deadline:
   such a cost depends on timing, so it is not cached. *)
let evaluate ~options ~machine ~params_vec ~deadline_s program cand :
    payload * bool =
  let opts = candidate_options options cand in
  match Driver.compile_robust ~options:opts ~verify:true ?deadline_s program with
  | Error ds ->
      ((infinity, 0.0, false, Some (diag_summary ds)), Diag.has_code ds "deadline")
  | Ok (r, warns) ->
      let sim = Machine.simulate machine r.Driver.code ~params:params_vec in
      ( (sim.Machine.cycles, sim.Machine.gflops, Driver.degraded warns, None),
        Diag.has_code warns "deadline" )
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception e -> ((infinity, 0.0, false, Some (Printexc.to_string e)), false)

(* ----------------------------- worker pool ------------------------------- *)

(* Candidate evaluations fan out over the shared {!Pool}.  A worker crash or
   truncated payload comes back as a structured [Diag.t] (after one retry on a
   fresh worker) and is folded into the candidate's failure slot, so the
   search keeps its historical "a bad candidate never kills the search"
   contract.  A slow candidate degrades inside [evaluate] on its deadline;
   [task_timeout_s] only kills a worker that outlives it.  Only evaluations
   that came back within their deadline are passed to [save]: neither a
   crashed worker nor a timing-dependent cost is cached. *)
let run_pool ~jobs ?task_timeout_s ~save (tasks : (int * candidate) list)
    (eval : candidate -> payload * bool) : (int * payload) list =
  let outcomes = Pool.map ~jobs ?task_timeout_s ~f:(fun (_, c) -> eval c) tasks in
  List.map2
    (fun (i, c) (o : (payload * bool) Pool.outcome) ->
      match o.Pool.value with
      | Ok (p, hit_deadline) ->
          if not hit_deadline then save c p;
          (i, p)
      | Error d ->
          (i, (infinity, 0.0, false, Some ("worker: " ^ d.Diag.message))))
    tasks outcomes

(* ------------------------------- search ---------------------------------- *)

let default_param_value = 64

(* Deterministic Fisher-Yates from the given state. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let search ?(options = Driver.default_options)
    ?(machine = Machine.default_machine) ?(jobs = 1) ?(budget = 24)
    ?(candidate_time_s = 20.0) ?(seed = Putil.Seed.default)
    ?(params = []) (program : Ir.program) =
  let t0 = Unix.gettimeofday () in
  let rng = Putil.Seed.state seed in
  let assoc =
    List.map
      (fun p ->
        ( p,
          match List.assoc_opt p params with
          | Some v -> v
          | None -> default_param_value ))
      program.Ir.params
  in
  let params_vec = Array.of_list (List.map snd assoc) in
  let program_repr = Putil.string_of_format Ir.pp_program program in
  let digest = Digest.to_hex (Digest.string program_repr) in
  let name =
    match program.Ir.stmts with
    | { Ir.name = n; _ } :: _ -> Printf.sprintf "%s… (%s)" n (String.sub digest 0 8)
    | [] -> String.sub digest 0 8
  in
  (* shape the space with the default transform's band structure (best
     effort: an untransformable program still tunes over the ladder) *)
  let narrays = max 1 (List.length program.Ir.arrays) in
  let band_width =
    match
      let deps = Deps.compute program in
      Pluto.Tiling.bands_of
        (Pluto.Auto.transform ~config:options.Driver.auto program deps)
    with
    | bands ->
        List.fold_left (fun a (b : Pluto.Tiling.band) -> max a b.Pluto.Tiling.b_len) 0 bands
    | exception ((Out_of_memory | Sys.Break) as e) -> raise e
    | exception _ -> 2
  in
  let space, npruned = enumerate ~machine ~narrays ~band_width in
  Stats.add "tune.pruned" npruned;
  let generated = List.length space + npruned in
  (* budget subsampling: anchors always survive; the rest of the space is
     shuffled by the pinned seed and truncated *)
  let budget = max 1 budget in
  let chosen =
    match space with
    | d :: t :: rest when budget >= 2 ->
        d :: t :: Putil.take (budget - 2) (shuffle rng rest)
    | l -> Putil.take budget l
  in
  let indexed = List.mapi (fun i c -> (i, c)) chosen in
  (* store probe (sequential, cheap) *)
  let key c = cache_key ~program_repr ~machine ~params:assoc ~options c in
  let cached, to_eval =
    List.partition_map
      (fun (i, c) ->
        match (Store.read ~kind:eval_kind ~key:(key c) : payload option) with
        | Some p -> Left (i, c, p)
        | None -> Right (i, c))
      indexed
  in
  Stats.add "tune.cache_hits" (List.length cached);
  Stats.add "tune.evaluated" (List.length to_eval);
  let deadline_s = if candidate_time_s > 0.0 then Some candidate_time_s else None in
  let eval c = evaluate ~options ~machine ~params_vec ~deadline_s program c in
  let fresh =
    run_pool ~jobs
      ?task_timeout_s:(Option.map (fun t -> t +. Deadline.grace_s) deadline_s)
      ~save:(fun c p -> Store.write ~kind:eval_kind ~key:(key c) p)
      to_eval eval
  in
  let outcomes =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (i, c, (cy, gf, dg, fl)) ->
        Hashtbl.replace tbl i
          {
            o_index = i;
            o_cand = c;
            o_cycles = cy;
            o_gflops = gf;
            o_degraded = dg;
            o_from_cache = true;
            o_failed = fl;
          })
      cached;
    List.iter
      (fun (i, (cy, gf, dg, fl)) ->
        let c = List.assoc i indexed in
        Hashtbl.replace tbl i
          {
            o_index = i;
            o_cand = c;
            o_cycles = cy;
            o_gflops = gf;
            o_degraded = dg;
            o_from_cache = false;
            o_failed = fl;
          })
      fresh;
    List.filter_map (fun (i, _) -> Hashtbl.find_opt tbl i) indexed
  in
  let cycles_of_index i =
    match List.find_opt (fun o -> o.o_index = i) outcomes with
    | Some { o_failed = None; o_cycles; _ } -> o_cycles
    | _ -> infinity
  in
  let best =
    List.fold_left
      (fun acc o ->
        match (o.o_failed, acc) with
        | Some _, _ -> acc
        | None, None -> Some o
        | None, Some b -> if o.o_cycles < b.o_cycles then Some o else acc)
      None outcomes
  in
  let report =
    {
      r_name = name;
      r_digest = digest;
      r_params = assoc;
      r_seed = seed;
      r_jobs = jobs;
      r_generated = generated;
      r_pruned = npruned;
      r_evaluated = List.length to_eval;
      r_cache_hits = List.length cached;
      r_default_cycles = cycles_of_index 0;
      r_t64_cycles = cycles_of_index 1;
      r_best = best;
      r_outcomes = outcomes;
      r_elapsed_s = Unix.gettimeofday () -. t0;
    }
  in
  (* The winning artifact is recompiled in this process (verified again), so
     nothing structured ever crosses the fork boundary. *)
  let best_result =
    match best with
    | None -> None
    | Some o -> (
        match
          Driver.compile_robust
            ~options:(candidate_options options o.o_cand)
            ~verify:true program
        with
        | Ok (r, _) -> Some r
        | Error _ -> None)
  in
  (report, best_result)

module For_tests = struct
  let cache_key ~program_repr ~machine ~params ~options cand =
    cache_key ~program_repr ~machine ~params ~options cand

  let enumerate ~machine ~narrays ~band_width =
    enumerate ~machine ~narrays ~band_width
end
