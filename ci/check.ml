(* The repository's counter ceilings and behavioural expectations, as one
   executable: `dune exec ci/check.exe -- [NAME...]` runs the named checks
   (all of them without a name) and exits 1 if any line says FAIL.
   `dune runtest` runs every check.

   Each check is a function over its section of ci/ceilings.json.  The
   in-process checks (solver, fastpath, reduction, batch, tune) call the
   library the way plutocc would, starting every compile from the state a
   fresh process has, so their counters are the numbers plutocc reports.
   The daemon checks (server, load) launch the built plutod, plutocc and
   bench/loadgen, because those programs are what they prove. *)

module Json = Manifest.Json

(* ------------------------------- reporting -------------------------------- *)

let failed = ref false

(* One line per finding: ok lines on stdout, FAIL lines on stderr. *)
let report check ok fmt =
  Printf.ksprintf
    (fun m ->
      if ok then Printf.printf "%s: ok: %s\n%!" check m
      else begin
        failed := true;
        Printf.eprintf "%s: FAIL: %s\n%!" check m
      end)
    fmt

(* -------------------------------- ceilings -------------------------------- *)

(* A check's section of ceilings.json.  Every key a check asks for is
   recorded, so that a key no check reads fails the run. *)
type section = {
  check : string;
  fields : (string * Json.t) list;
  mutable read : string list;
}

(* [get s key what decode] — the value under [key], or a FAIL line when it
   is missing or is not [what]. *)
let get s key what decode =
  s.read <- key :: s.read;
  match List.assoc_opt key s.fields with
  | None ->
      report s.check false "%s is missing from ceilings.json" key;
      None
  | Some j -> (
      match decode j with
      | Some v -> Some v
      | None ->
          report s.check false "%s in ceilings.json is not %s" key what;
          None)

let int_of_json j = Option.map int_of_float (Json.num j)

(* The one comparison every counter goes through. *)
let ceiling s key value =
  Option.iter
    (fun c -> report s.check (value <= c) "%s = %d (ceiling %d)" key value c)
    (get s key "a number" int_of_json)

let expected s key value =
  Option.iter
    (fun c -> report s.check (value = c) "%s = %d (expected %d)" key value c)
    (get s key "a number" int_of_json)

(* --------------------------------- inputs --------------------------------- *)

type env = {
  examples : string;  (** directory of the example .c inputs *)
  plutocc : string;
  plutod : string;
  loadgen : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let example env k = Filename.concat env.examples (k ^ ".c")

(* examples/*.c in name order, as a shell glob lists them. *)
let example_files env =
  Sys.readdir env.examples |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat env.examples)

let counter k counters = Option.value ~default:0 (List.assoc_opt k counters)

(* The counters of a --stats-json document or of the daemon's "stats". *)
let counters_of_json j =
  match Json.mem "counters" j with
  | Some (Json.Obj fields) ->
      List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (int_of_json v)) fields
  | _ -> []

(* -------------------------- in-process compiles --------------------------- *)

(* One compile as a fresh plutocc process does it: empty in-memory solver
   caches, no store, counters from zero.  A compile plutocc would not exit 0
   on (no code, or code only after degradation) is a FAIL. *)
let compile ?(options = Driver.default_options) check ~name src =
  Milp.clear_caches ();
  Polyhedra.clear_caches ();
  Store.set_dir None;
  Stats.reset ();
  match Driver.compile_source_robust ~options ~name src with
  | Ok (r, warns) when not (Driver.degraded warns) -> Some r
  | Ok (_, ds) | Error ds ->
      report check false "%s did not compile cleanly:\n%s" name
        (Format.asprintf "%a" (Diag.pp_all ~src) ds);
      None

let code_text (r : Driver.result) = Putil.string_of_format Codegen.print_c r.Driver.code

(* ------------------------------ solver check ------------------------------ *)

(* The exact ILP substrate on matmul (the fast path would skip it). *)
let solver env s =
  let options = { Driver.default_options with Driver.fast_schedule = false } in
  let file = example env "matmul" in
  Option.iter
    (fun _ ->
      ceiling s "matmul.milp.solves" (Stats.counter "milp.solves");
      ceiling s "matmul.milp.cold_builds" (Stats.counter "milp.cold_builds");
      let w = Stats.counter "milp.warm_starts" in
      report s.check (w > 0) "matmul milp.warm_starts = %d (must be > 0)" w)
    (compile ~options s.check ~name:file (read_file file))

(* ----------------------------- fastpath check ----------------------------- *)

(* Per kernel: the ILP solves left with the fast path on, and its verdict.
   An accepted kernel falling back to the ILP shows up as both. *)
let fastpath env s =
  List.iter
    (fun k ->
      let file = example env k in
      Option.iter
        (fun _ ->
          ceiling s (k ^ ".milp.solves") (Stats.counter "milp.solves");
          let verdict =
            if Stats.counter "fastpath.accepts" > 0 then "accept"
            else if Stats.counter "fastpath.rejects" > 0 then "reject"
            else "none"
          in
          let key = k ^ ".verdict" in
          Option.iter
            (fun want -> report s.check (verdict = want) "%s = %s (expected %s)" key verdict want)
            (get s key "accept or reject" (function
              | Json.Str ("accept" | "reject" as v) -> Some v
              | _ -> None)))
        (compile s.check ~name:file (read_file file)))
    [ "matmul"; "lu"; "mvt"; "jacobi-1d" ]

(* ---------------------------- reduction check ----------------------------- *)

type reduction = Gains of string list | Noop

let reduction_of_json = function
  | Json.Str "noop" -> Some Noop
  | Json.Obj [ ("gains", Json.Arr cs) ] ->
      let cs' = List.filter_map Json.str cs in
      if List.length cs' = List.length cs then Some (Gains (List.sort_uniq compare cs'))
      else None
  | _ -> None

(* What plutocc --reductions --check --verify proves on top of the compile:
   interpreter equivalence (modulo reassociation for marked reductions)
   and translation validation. *)
let proved check k (r : Driver.result) =
  let params v = Array.make (List.length r.Driver.program.Ir.params) v in
  let tolerance =
    if List.exists (fun d -> d.Deps.reduction) r.Driver.deps then
      Some Machine.reduction_tolerance
    else None
  in
  report check
    (Machine.equivalent ?tolerance r.Driver.program r.Driver.code ~params:(params 20))
    "%s --reductions passes --check" k;
  report check (Verify.ok (Driver.verify ~params:(params 6) r)) "%s --reductions passes --verify" k

let reduction env s =
  let on = { Driver.default_options with Driver.reductions = true } in
  List.iter
    (fun k ->
      let name, src =
        if k = "histogram" then ("histogram.c", Kernels.histogram.Kernels.source)
        else (example env k, read_file (example env k))
      in
      let expectation = get s k "\"noop\" or {\"gains\": [clauses]}" reduction_of_json in
      match
        ( compile s.check ~name src,
          compile s.check ~name src,
          compile ~options:on s.check ~name src )
      with
      | Some off, Some off2, Some on_ -> (
          report s.check (code_text off = code_text off2) "%s flag-off output is deterministic" k;
          proved s.check k on_;
          match expectation with
          | None -> ()
          | Some Noop ->
              report s.check
                (code_text off = code_text on_)
                "%s = noop: output bit-identical with --reductions" k
          | Some (Gains want) ->
              let par r = Omp_shape.outer_parallel r.Driver.code in
              report s.check
                ((not (par off)) && par on_)
                "%s outer loop parallel: %b off, %b on (expected false, true)" k (par off)
                (par on_);
              let got = Omp_shape.clauses on_.Driver.code in
              report s.check (got = want) "%s clauses = [%s] (expected [%s])" k
                (String.concat ", " got) (String.concat ", " want))
      | _ -> ())
    [ "dot"; "histogram"; "mvt"; "lu"; "jacobi-1d" ]

(* ------------------------------ batch check ------------------------------- *)

(* plutocc --batch examples/*.c, in-process: a cold then a warm pass over one
   store, then --jobs 1 against --jobs 4 without a store. *)
let batch env s =
  let files = example_files env in
  Pool.with_temp_dir ~prefix:"pluto_check" (fun dir ->
      let run tag ?cache_dir jobs =
        Stats.reset ();
        let m =
          Fun.protect ~finally:(fun () -> Store.set_dir None) (fun () ->
              Batch.run ~jobs ?cache_dir files)
        in
        report s.check (Batch.exit_code m = 0) "%s: batch exits %d" tag (Batch.exit_code m);
        (List.map (fun (e : Batch.entry) -> e.Batch.e_code) m.Batch.m_entries, m.Batch.m_counters)
      in
      let cache_dir = Filename.concat dir "cache" in
      let cold_code, cold = run "cold" ~cache_dir 2 in
      let warm_code, warm = run "warm" ~cache_dir 2 in
      report s.check (warm_code = cold_code) "warm rerun output is bit-identical";
      let cold_solves = counter "milp.solves" cold and warm_solves = counter "milp.solves" warm in
      report s.check (warm_solves < cold_solves) "milp.solves %d cold -> %d warm (must drop)"
        cold_solves warm_solves;
      let hits = counter "store.hits" warm in
      report s.check (hits > 0) "warm store.hits = %d (must be > 0)" hits;
      ceiling s "warm.milp.solves" warm_solves;
      ceiling s "warm.store.misses" (counter "store.misses" warm);
      let j1_code, j1 = run "jobs 1" 1 in
      let j4_code, j4 = run "jobs 4" 4 in
      List.iter
        (fun k ->
          report s.check (counter k j1 = counter k j4) "%s = %d under --jobs 1, %d under --jobs 4"
            k (counter k j1) (counter k j4))
        [ "milp.solves"; "milp.cold_builds"; "milp.pivots"; "poly.empty_cache_misses";
          "fm.eliminations" ];
      report s.check (j1_code = j4_code) "--jobs 1 and --jobs 4 outputs are bit-identical")

(* ------------------------------ tune check -------------------------------- *)

(* plutocc --tune on jacobi-1d with a --cache-dir store: the cold search
   evaluates its whole budget, the warm rerun reads every evaluation back. *)
let tune env s =
  let file = example env "jacobi-1d" in
  let program = Frontend.parse_program ~name:file (read_file file) in
  Pool.with_temp_dir ~prefix:"pluto_check" (fun dir ->
      Store.set_dir (Some dir);
      let evaluated () =
        (fst (Tune.search ~jobs:2 ~budget:12 ~seed:Putil.Seed.default program)).Tune.r_evaluated
      in
      let cold, warm =
        Fun.protect ~finally:(fun () -> Store.set_dir None) (fun () ->
            let cold = evaluated () in
            (cold, evaluated ()))
      in
      expected s "cold.evaluated" cold;
      ceiling s "warm.evaluated" warm)

(* ------------------------------- processes -------------------------------- *)

(* Run [prog args] with stdin from /dev/null and both outputs appended to
   [log], as the leader of its own process group so that a kill reaches the
   workers it forks. *)
let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ out; inp ])
    (fun () ->
      match Unix.fork () with
      | 0 -> (
          try
            ignore (Unix.setsid ());
            Unix.dup2 inp Unix.stdin;
            Unix.dup2 out Unix.stdout;
            Unix.dup2 out Unix.stderr;
            Unix.execv prog (Array.of_list (prog :: args))
          with _ -> Unix._exit 127)
      | pid -> pid)

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + abs n

(* The exit code of [pid], waiting for it at most [timeout_s] seconds (by
   default only looking); [None] while it runs. *)
let reap ?(timeout_s = 0.0) pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ -> None
    | _, status -> Some (exit_code status)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let kill_group pid = try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ()

(* Run [prog args] to completion with its output in [dir]/[tag].log; a
   non-zero exit is a FAIL line followed by that output. *)
let run check ~dir tag prog args =
  let log = Filename.concat dir (tag ^ ".log") in
  let pid = spawn ~log prog args in
  let code =
    match reap ~timeout_s:300.0 pid with
    | Some c -> c
    | None ->
        kill_group pid;
        exit_code (snd (Unix.waitpid [] pid))
  in
  report check (code = 0) "%s: %s exits %d" tag (Filename.basename prog) code;
  if code <> 0 then prerr_string (read_file log)

(* Every file of an output directory with its contents, in name order. *)
let dir_contents dir =
  match Sys.readdir dir with
  | names ->
      List.map (fun f -> (f, read_file (Filename.concat dir f))) (List.sort compare (Array.to_list names))
  | exception Sys_error _ -> []

let server_counters socket =
  match Client.stats ~socket with
  | Ok line -> (
      match Json.parse line with
      | Ok j -> Option.fold ~none:[] ~some:counters_of_json (Json.mem "stats" j)
      | Error _ -> [])
  | Error _ -> []

type daemon = { socket : string; pid : int; mutable exit : int option }

(* The daemon's exit code once it has exited, [None] while it runs. *)
let exited ?timeout_s d =
  if d.exit = None then d.exit <- reap ?timeout_s d.pid;
  d.exit

(* [with_daemon env check dir args f] starts plutod on a socket in [dir],
   waits until it answers a ping, runs [f d], and then drains it: the
   shutdown request is acknowledged, the daemon exits 0 and its socket file
   is gone.  On every other way out, signals included, the daemon and its
   workers are killed and reaped. *)
let with_daemon env check dir args f =
  let socket = Filename.concat dir "plutod.sock" in
  let log = Filename.concat dir "plutod.log" in
  let d = { socket; pid = spawn ~log env.plutod ("--socket" :: socket :: args); exit = None } in
  let stop () =
    if d.exit = None then begin
      kill_group d.pid;
      d.exit <- Some (exit_code (snd (Unix.waitpid [] d.pid)))
    end
  in
  let id = Pool.Cleanup.register stop in
  Fun.protect
    ~finally:(fun () ->
      Pool.Cleanup.release id;
      stop ())
    (fun () ->
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec up () =
        Client.ping ~socket
        || Unix.gettimeofday () < deadline
           && exited d = None
           && (Unix.sleepf 0.02;
               up ())
      in
      if not (up ()) then report check false "plutod did not answer a ping (see %s)" log
      else begin
        f d;
        report check (Client.shutdown ~socket) "daemon acknowledged the shutdown request";
        let code = exited ~timeout_s:30.0 d in
        report check (code = Some 0) "daemon drained and exited %s"
          (Option.fold ~none:"(still running)" ~some:string_of_int code);
        report check (not (Sys.file_exists socket)) "socket file removed"
      end)

(* ------------------------------ server check ------------------------------ *)

(* plutocc --batch --connect, twice, against a plutod with a store: no
   failed request, output identical to standalone plutocc --batch, and a
   warm pass answered from the result cache. *)
let server env s =
  let files = example_files env in
  let n = List.length files in
  Pool.with_temp_dir ~prefix:"pluto_check" (fun dir ->
      let batch tag extra =
        let out = Filename.concat dir tag in
        run s.check ~dir tag env.plutocc (("--batch" :: files) @ [ "-o"; out ] @ extra);
        dir_contents out
      in
      let stats = Filename.concat dir "local.json" in
      let local = batch "local" [ "--stats-json"; stats ] in
      let cold_solves =
        match Json.parse (read_file stats) with
        | Ok j -> counter "milp.solves" (counters_of_json j)
        | Error _ | (exception Sys_error _) -> 0
      in
      with_daemon env s.check dir [ "--jobs"; "2"; "--cache-dir"; Filename.concat dir "cache" ]
        (fun d ->
          let socket = d.socket in
          let pass1 = batch "pass1" [ "--connect"; socket ] in
          let stats1 = server_counters socket in
          let pass2 = batch "pass2" [ "--connect"; socket ] in
          let stats2 = server_counters socket in
          let requests = counter "server.requests" stats2 in
          report s.check (requests >= 2 * n) "server.requests = %d (must be >= %d: %d inputs x 2)"
            requests (2 * n) n;
          ceiling s "server.failures" (counter "server.failures" stats2);
          report s.check (local <> [] && pass1 = local) "daemon output bit-identical to standalone plutocc";
          report s.check (pass2 = pass1) "warm pass bit-identical to cold pass";
          let warm = counter "milp.solves" stats2 - counter "milp.solves" stats1 in
          ceiling s "warm.milp.solves" warm;
          report s.check (warm < cold_solves) "warm pass milp.solves = %d (must be below a cold run's %d)"
            warm cold_solves;
          let hits = counter "server.result_cache_hits" stats2 in
          report s.check (hits >= n) "server.result_cache_hits = %d (must be >= %d)" hits n))

(* ------------------------------- load check ------------------------------- *)

(* Peak resident set (VmHWM) of a live process, in kB. *)
let peak_rss_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
        (String.split_on_char '\n' status)

(* plutod with tight caps under bench/loadgen's 1000-client storm: every
   cap fires, nothing crashes, memory stays bounded, the caches still serve
   a warm pass afterwards, and the daemon drains. *)
let load env s =
  Pool.with_temp_dir ~prefix:"pluto_check" (fun dir ->
      let args =
        [ "--jobs"; "2"; "--cache-dir"; Filename.concat dir "cache"; "--max-connections"; "512";
          "--max-pipeline"; "4"; "--max-queue"; "8"; "--max-request-bytes"; "64K";
          "--max-output-bytes"; "4K"; "--solver-cache-entries"; "64" ]
      in
      with_daemon env s.check dir args (fun d ->
          let loadgen tag args = run s.check ~dir tag env.loadgen ("--socket" :: d.socket :: args) in
          loadgen "storm" [ "--clients"; "1000"; "--workers"; "8" ];
          if exited d <> None then report s.check false "plutod died during the storm"
          else begin
            (match peak_rss_kb d.pid with
            | Some kb -> ceiling s "max_rss_kb" kb
            | None ->
                ignore (get s "max_rss_kb" "a number" int_of_json);
                print_endline "load: skip: no /proc/PID/status to read the daemon's peak RSS");
            let stats = server_counters d.socket in
            let crashes = counter "server.crashes" stats in
            report s.check (crashes = 0) "server.crashes = %d (must be 0)" crashes;
            List.iter
              (fun k ->
                let v = counter k stats in
                report s.check (v > 0) "%s = %d (must be > 0: the cap fired)" k v)
              [ "server.busy_rejections"; "server.bad_requests"; "server.slow_reader_stalls";
                "server.cache_evicted" ];
            loadgen "warm"
              [ "--clients"; "12"; "--workers"; "2"; "--oversize"; "0"; "--slow"; "0"; "--unique"; "0" ];
            let after = server_counters d.socket in
            ceiling s "warm.milp.solves" (counter "milp.solves" after - counter "milp.solves" stats)
          end))

(* --------------------------------- main ----------------------------------- *)

let checks =
  [ ("solver", solver); ("fastpath", fastpath); ("reduction", reduction); ("batch", batch);
    ("server", server); ("load", load); ("tune", tune) ]

let main ceilings examples plutocc plutod loadgen names =
  let env = { examples; plutocc; plutod; loadgen } in
  match List.filter (fun n -> not (List.mem_assoc n checks)) names with
  | _ :: _ as unknown ->
      Printf.eprintf "check: unknown check %s (one of: %s)\n" (String.concat ", " unknown)
        (String.concat ", " (List.map fst checks));
      2
  | [] -> (
      match Json.parse (read_file ceilings) with
      | Error msg | (exception Sys_error msg) ->
          Printf.eprintf "check: cannot read %s: %s\n" ceilings msg;
          2
      | Ok (Json.Obj top) ->
          List.iter
            (fun (k, _) ->
              if k <> "comment" && not (List.mem_assoc k checks) then
                report "check" false "section %s of %s belongs to no check" k ceilings)
            top;
          let selected = if names = [] then List.map fst checks else names in
          List.iter
            (fun name ->
              let fields =
                match List.assoc_opt name top with
                | Some (Json.Obj fields) -> List.remove_assoc "comment" fields
                | _ ->
                    report name false "%s has no %s section" ceilings name;
                    []
              in
              let s = { check = name; fields; read = [] } in
              (try (List.assoc name checks) env s
               with e -> report name false "raised %s" (Printexc.to_string e));
              List.iter
                (fun (k, _) ->
                  if not (List.mem k s.read) then report name false "%s is read by no check" k)
                fields)
            selected;
          if !failed then 1 else 0
      | Ok _ ->
          Printf.eprintf "check: %s is not a JSON object\n" ceilings;
          2)

let cmd =
  let open Cmdliner in
  let path name default doc = Arg.(value & opt string default & info [ name ] ~docv:"PATH" ~doc) in
  let exe name default = path name default ("Path of the built " ^ name ^ ".") in
  Cmd.v
    (Cmd.info "check" ~doc:"the repository's counter ceilings and behavioural checks")
    Term.(
      const main
      $ path "ceilings" "ci/ceilings.json" "The ceilings and expectations file."
      $ path "examples" "examples" "Directory of the example C inputs."
      $ exe "plutocc" "_build/default/bin/plutocc.exe"
      $ exe "plutod" "_build/default/bin/plutod.exe"
      $ exe "loadgen" "_build/default/bench/loadgen.exe"
      $ Arg.(value & pos_all string [] & info [] ~docv:"NAME"
               ~doc:"Checks to run: solver, fastpath, reduction, batch, server, load or tune \
                     (default: all)."))

let () = exit (Cmdliner.Cmd.eval' cmd)
