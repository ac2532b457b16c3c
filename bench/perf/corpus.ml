(** The in-process compile phase: [plutocc FILE]'s pipeline
    ({!Driver.compile_source_robust}, then {!Codegen.print_c}) called
    directly on each kernel of the corpus.

    Solver caches are cleared before every compile and no store is set, so
    each compile costs what it costs in a fresh [plutocc] process.  A traced
    round replays the same ladder through public entry points, one span per
    layer call (see {!replay}). *)

let now = Unix.gettimeofday
let file_name (k : Kernels.t) = k.Kernels.name ^ ".c"
let render code = Format.asprintf "%a" (fun fmt c -> Codegen.print_c fmt c) code

(* The kernels --quick compiles: cheap under both workloads' options, and
   jacobi-1d-imper is one the fast path rejects, so the ILP fallback runs. *)
let quick_names = [ "jacobi-1d-imper"; "mvt"; "syrk"; "histogram" ]

let kernels ~quick =
  if quick then
    List.filter (fun (k : Kernels.t) -> List.mem k.Kernels.name quick_names) Kernels.all
  else Kernels.all

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** The seed decides the kernel order of every round. *)
let round_order ~seed ~round ks = shuffle (Random.State.make [| seed; round |]) ks

let fresh_caches () =
  Milp.clear_caches ();
  Polyhedra.clear_caches ()

type outcome = {
  kernel : Kernels.t;
  ms : float;  (** compile + render, wall clock *)
  result : Driver.result option;
      (** kept for the reference round only, so the benchmark's own heap
          does not grow with the number of rounds *)
  code : string option;
  degraded : bool;
  counters : (string * int) list;
}

let black_box ~options ~keep (k : Kernels.t) =
  fresh_caches ();
  let c0 = Stats.counters () in
  let t0 = now () in
  let res =
    match
      Driver.compile_source_robust ~options ~name:(file_name k) k.Kernels.source
    with
    | Ok (r, ds) -> Some (r, render r.Driver.code, Driver.degraded ds)
    | Error _ -> None
  in
  let t1 = now () in
  let counters = Spans.counter_delta c0 (Stats.counters ()) in
  match res with
  | Some (r, code, degraded) ->
      { kernel = k; ms = 1000.0 *. (t1 -. t0); result = (if keep then Some r else None);
        code = Some code;
        degraded; counters }
  | None ->
      { kernel = k; ms = 1000.0 *. (t1 -. t0); result = None; code = None;
        degraded = false; counters }

(* The ladder of [Driver.compile_robust] (no --verify), one span per call:
   parse; deps; fast matcher; on accept lower + validate, on reject (or a
   failed validation) deps again + the exact search + lower; render.  The
   Feautrier and identity rungs are not replayed: a kernel that needs them
   makes the replay disagree with the black box, which fails the run. *)
let replay ~options ~round (k : Kernels.t) =
  fresh_caches ();
  let span name f = Spans.with_span ~kernel:k.Kernels.name ~round name f in
  let auto = options.Driver.auto in
  let c0 = Stats.counters () in
  let t0 = now () in
  let code =
    try
      span "compile" (fun () ->
          match
            span "frontend.parse" (fun () ->
                Frontend.parse_program_diag ~name:(file_name k) k.Kernels.source)
          with
          | Error _ -> None
          | Ok (program, _) ->
              let deps () =
                span "deps.compute" (fun () ->
                    Deps.compute ~input_deps:auto.Pluto.Auto.input_deps
                      ~reductions:options.Driver.reductions program)
              in
              let lower d tr =
                span "codegen.lower" (fun () ->
                    Driver.compile_with_transform ~options program d tr)
              in
              let fast () =
                let d = deps () in
                let tr =
                  span "fastmatch.schedule" (fun () ->
                      Pluto.Fastmatch.schedule ~config:auto program d)
                in
                let r = lower d tr in
                let rep =
                  span "verify.validate" (fun () ->
                      Verify.validate r.Driver.program r.Driver.deps
                        r.Driver.transform r.Driver.code)
                in
                if Verify.ok rep then Some r else None
              in
              let accepted =
                if not options.Driver.fast_schedule then None
                else
                  match fast () with
                  | r -> r
                  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
                  | exception _ -> None
              in
              let r =
                match accepted with
                | Some r -> r
                | None ->
                    let d = deps () in
                    lower d
                      (span "auto.transform" (fun () ->
                           Pluto.Auto.transform ~config:auto program d))
              in
              Some (span "codegen.render" (fun () -> render r.Driver.code)))
    with
    | (Out_of_memory | Sys.Break) as e -> raise e
    | _ -> None
  in
  let t1 = now () in
  { kernel = k; ms = 1000.0 *. (t1 -. t0); result = None; code; degraded = false;
    counters = Spans.counter_delta c0 (Stats.counters ()) }

type round = { index : int; traced : bool; outcomes : outcome list }

let pass_ms r = Sample.sum (List.map (fun o -> o.ms) r.outcomes)

(** Compile every kernel once, in the round's seeded order; a traced round
    replays the ladder instead. *)
let round ~options ~seed ~quick ~traced index =
  let order = round_order ~seed ~round:index (kernels ~quick) in
  let compile k =
    if traced then replay ~options ~round:index k
    else black_box ~options ~keep:(index = 0) k
  in
  { index; traced; outcomes = List.map compile order }

(** Round 0's black-box results: the reference every other
    round, the batch outputs and the daemon responses must match. *)
let reference rounds =
  let r = List.find (fun r -> r.index = 0) rounds in
  List.sort
    (fun a b -> compare a.kernel.Kernels.name b.kernel.Kernels.name)
    r.outcomes

let counter name o = Option.value ~default:0 (List.assoc_opt name o.counters)

(** Correctness of the phase, as (attempted, failures). Every compile must
    succeed undegraded and render the reference code; a traced replay must
    also match the black box's [milp.solves]; and each reference result is
    checked once by the translation validator and by execution against the
    IR interpreter ({!Machine.run_original}) at the kernel's check
    parameters. *)
let check rounds =
  let refs = reference rounds in
  let ref_of k = List.find (fun o -> o.kernel.Kernels.name = k.Kernels.name) refs in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let attempted = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun o ->
          incr attempted;
          let name = o.kernel.Kernels.name in
          let want = ref_of o.kernel in
          if o.code = None then fail "round %d: %s did not compile" r.index name
          else if o.degraded then fail "round %d: %s degraded" r.index name
          else if o.code <> want.code then
            fail "round %d: %s rendered different code than round 0" r.index name
          else if r.traced && counter "milp.solves" o <> counter "milp.solves" want
          then
            fail "round %d: replay of %s made %d ILP solves, the black box %d"
              r.index name (counter "milp.solves" o) (counter "milp.solves" want))
        r.outcomes)
    rounds;
  List.iter
    (fun o ->
      match o.result with
      | None -> ()
      | Some r ->
          let k = o.kernel in
          attempted := !attempted + 2;
          let rep =
            Verify.validate r.Driver.program r.Driver.deps r.Driver.transform
              r.Driver.code
          in
          if not (Verify.ok rep) then
            fail "%s: translation validation failed: %s" k.Kernels.name
              (Format.asprintf "%a" Verify.pp_report rep);
          let params = Kernels.params_vector r.Driver.program k.Kernels.check_params in
          if not (Machine.equivalent r.Driver.program r.Driver.code ~params) then
            fail "%s: generated code differs from the original execution"
              k.Kernels.name)
    refs;
  (!attempted, List.rev !failures)

type sim = { gflops : float; l1_misses : int; l2_misses : int }

(** Simulate each reference result on the 4-core model machine at the
    kernel's bench parameters ([check_params] under --quick).  Returns the
    per-kernel results and the simulator's own wall time. *)
let simulate ~quick refs =
  let t0 = now () in
  let sims =
    List.filter_map
      (fun o ->
        match o.result with
        | None -> None
        | Some r ->
            let k = o.kernel in
            let assoc = if quick then k.Kernels.check_params else k.Kernels.bench_params in
            let params = Kernels.params_vector r.Driver.program assoc in
            let s = Machine.simulate Machine.default_machine r.Driver.code ~params in
            Some
              { gflops = s.Machine.gflops; l1_misses = s.Machine.l1_misses;
                l2_misses = s.Machine.l2_misses })
      refs
  in
  (sims, now () -. t0)
