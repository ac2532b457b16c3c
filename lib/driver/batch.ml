(** Batch compilation: many source files through {!Driver.compile_robust},
    fanned out over the shared {!Pool} ([plutocc --batch]).

    Each file is one pool task: it is parsed, scheduled down the
    graceful-degradation ladder, rendered to C, and the result crosses the
    fork boundary as pure data (the rendered string plus diagnostics).  The
    per-file timeout is the compile's deadline: a file still searching when
    it passes degrades to the original program order with a ["deadline"]
    warning.  A worker still running {!Deadline.grace_s} later is killed,
    and a crashing or killed worker costs exactly one entry — the pool's
    structured failure becomes that file's error diagnostic and every other
    file is unaffected.

    Every task clears the in-memory solver caches before compiling, so
    cross-file amortization happens only through the persistent {!Store}
    ([--cache-dir]); consequently [--stats] solver totals are identical for
    [--jobs 1] and [--jobs N] on the same inputs (the forked and sequential
    paths see the same — empty — starting caches).  With [cache_size]
    ([--cache-size]) the store's LRU eviction keeps the cache directory
    under the byte budget; the final eviction pass runs before the manifest
    is assembled. *)

(* The entry/manifest schema and its JSON encoding live in {!Manifest},
   shared verbatim with the compile daemon's wire protocol.  The type
   equations keep [Batch.Success], [m.Batch.m_entries] etc. working for
   existing callers. *)

type status = Manifest.status = Success | Degraded | Failed

type entry = Manifest.entry = {
  e_file : string;
  e_status : status;
  e_rung : string;
  e_diags : Diag.t list;
  e_code : string option;
  e_output : string option;
  e_elapsed_s : float;
  e_retried : bool;
}

type manifest = Manifest.manifest = {
  m_jobs : int;
  m_cache_dir : string option;
  m_entries : entry list;
  m_elapsed_s : float;
  m_counters : (string * int) list;
}

(* What a worker ships back: pure data only (no closures, no Codegen.t). *)
type task_result = {
  t_code : string option;
  t_diags : Diag.t list;
  t_rung : string;
}

let rung_of ds =
  (* identity implies the feautrier rung also failed — check it first *)
  if Diag.has_code ds "degraded-identity" then "identity"
  else if Diag.has_code ds "degraded-feautrier" then "feautrier"
  else if Diag.has_code ds "fastpath-accepted" then "fast"
  else "auto"

let compile_one ~options ~strict ~verify ?deadline_s
    ((name, src) : string * string) : task_result =
  (* cross-file sharing goes through the persistent store only: start every
     file from empty in-memory caches, exactly as a freshly forked worker
     would, so counters do not depend on --jobs *)
  Milp.clear_caches ();
  Polyhedra.clear_caches ();
  match
    Driver.compile_source_robust ~options ~strict ~verify ?deadline_s ~name src
  with
  | Error ds -> { t_code = None; t_diags = ds; t_rung = "none" }
  | Ok (r, warns) ->
      let code =
        Format.asprintf "%a" (fun fmt c -> Codegen.print_c fmt c) r.Driver.code
      in
      { t_code = Some code; t_diags = warns; t_rung = rung_of warns }

let entry_of_outcome file (o : task_result Pool.outcome) =
  let elapsed = o.Pool.elapsed_s and retried = o.Pool.retried in
  match o.Pool.value with
  | Ok t ->
      Manifest.entry ~retried ~file ~rung:t.t_rung ~diags:t.t_diags ~elapsed t.t_code
  | Error d -> Manifest.entry ~retried ~file ~rung:"none" ~diags:[ d ] ~elapsed None

let error_entry file d =
  Manifest.entry ~file ~rung:"none" ~diags:[ d ] ~elapsed:0.0 None

let ensure_dir dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let output_name file = Filename.remove_extension (Filename.basename file) ^ ".pluto.c"

let write_output out_dir e =
  match (out_dir, e.e_code) with
  | Some dir, Some code ->
      ensure_dir dir;
      let path = Filename.concat dir (output_name e.e_file) in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc code);
      { e with e_output = Some path }
  | _ -> e

let run ?(options = Driver.default_options) ?(strict = false)
    ?(verify = false) ?(jobs = 1) ?task_timeout_s ?cache_dir ?cache_size
    ?out_dir (files : string list) : manifest =
  let t0 = Unix.gettimeofday () in
  Store.set_dir cache_dir;
  (match cache_size with
  | Some _ -> Store.set_budget cache_size
  | None -> ());
  (* read sources in the parent: an unreadable file is a structured entry,
     not a worker crash, and tasks ship self-contained data to workers *)
  let inputs =
    List.map
      (fun file ->
        match In_channel.with_open_bin file In_channel.input_all with
        | src -> Ok (file, src)
        | exception Sys_error msg ->
            Error (file, Diag.errorf ~code:"io" "%s" msg))
      files
  in
  let pool_tasks =
    List.filter_map (function Ok t -> Some t | Error _ -> None) inputs
  in
  (* a non-positive timeout is no timeout *)
  let deadline_s =
    Option.bind task_timeout_s (fun t -> if t > 0.0 then Some t else None)
  in
  let outcomes =
    Pool.map ~jobs
      ?task_timeout_s:(Option.map (fun t -> t +. Deadline.grace_s) deadline_s)
      ~f:(compile_one ~options ~strict ~verify ?deadline_s)
      pool_tasks
  in
  let rec assemble inputs outcomes acc =
    match (inputs, outcomes) with
    | [], [] -> List.rev acc
    | Error (f, d) :: tl, os -> assemble tl os (error_entry f d :: acc)
    | Ok (f, _) :: tl, o :: os -> assemble tl os (entry_of_outcome f o :: acc)
    | _ -> assert false (* one outcome per pool task, in order *)
  in
  let entries = assemble inputs outcomes [] in
  let entries = List.map (write_output out_dir) entries in
  (* the run never publishes a manifest while the store is over budget *)
  Store.evict_to_budget ();
  {
    m_jobs = jobs;
    m_cache_dir = cache_dir;
    m_entries = entries;
    m_elapsed_s = Unix.gettimeofday () -. t0;
    m_counters = Stats.counters ();
  }

(* Exit-code policy, mirroring single-file mode: 1 if anything failed hard,
   2 if everything compiled but some file needed a fallback rung, else 0. *)
let exit_code m =
  if List.exists (fun e -> e.e_status = Failed) m.m_entries then 1
  else if List.exists (fun e -> e.e_status = Degraded) m.m_entries then 2
  else 0
