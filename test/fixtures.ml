(* Shared, memoized pipeline results so the expensive transform runs once per
   kernel across test files. *)

let dep_cache : (string, Ir.program * Deps.t list) Hashtbl.t = Hashtbl.create 8

let program_and_deps (k : Kernels.t) =
  match Hashtbl.find_opt dep_cache k.Kernels.name with
  | Some r -> r
  | None ->
      let p = Kernels.program k in
      let ds = Deps.compute p in
      Hashtbl.replace dep_cache k.Kernels.name (p, ds);
      (p, ds)

(* Same, but with reduction detection enabled (the --reductions pipeline). *)
let red_dep_cache : (string, Ir.program * Deps.t list) Hashtbl.t =
  Hashtbl.create 8

let program_and_deps_reductions (k : Kernels.t) =
  match Hashtbl.find_opt red_dep_cache k.Kernels.name with
  | Some r -> r
  | None ->
      let p = Kernels.program k in
      let ds = Deps.compute ~reductions:true p in
      Hashtbl.replace red_dep_cache k.Kernels.name (p, ds);
      (p, ds)

let tr_cache : (string, Pluto.Types.transform) Hashtbl.t = Hashtbl.create 8

let transform (k : Kernels.t) =
  match Hashtbl.find_opt tr_cache k.Kernels.name with
  | Some t -> t
  | None ->
      let p, ds = program_and_deps k in
      let t = Pluto.Auto.transform p ds in
      Hashtbl.replace tr_cache k.Kernels.name t;
      (t : Pluto.Types.transform)

let compiled_cache : (string, Driver.result) Hashtbl.t = Hashtbl.create 8

(* full paper pipeline (tile + wavefront + intra reorder) *)
let compiled (k : Kernels.t) =
  match Hashtbl.find_opt compiled_cache k.Kernels.name with
  | Some r -> r
  | None ->
      let p, ds = program_and_deps k in
      let t = transform k in
      let r = Driver.compile_with_transform p ds t in
      Hashtbl.replace compiled_cache k.Kernels.name r;
      r

let check_params (k : Kernels.t) =
  let p, _ = program_and_deps k in
  Kernels.params_vector p k.Kernels.check_params

(* rows of statement [i] of a transform, as int lists, for readable asserts *)
let rows_of (t : Pluto.Types.transform) i =
  Array.to_list (Array.map Array.to_list t.Pluto.Types.rows.(i))

(* ----------------------- corpus / harness helpers ------------------------- *)

(* Shared by the batch/chaos/differential/fastpath suites so the kernel
   corpus iteration logic lives in exactly one place. *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Two real kernels with different scheduling shapes written as .c inputs
   under [dir]: matmul takes the fast scheduling path, jacobi-1d rejects it
   and exercises the full ILP. *)
let make_inputs dir =
  let j = Filename.concat dir "jacobi.c" in
  let m = Filename.concat dir "matmul.c" in
  write_file j Kernels.jacobi_1d.Kernels.source;
  write_file m Kernels.matmul.Kernels.source;
  [ j; m ]

let counter_of name =
  match List.assoc_opt name (Stats.counters ()) with Some v -> v | None -> 0

let codes (m : Batch.manifest) =
  List.map (fun (e : Batch.entry) -> e.Batch.e_code) m.Batch.m_entries

let statuses (m : Batch.manifest) =
  List.map (fun (e : Batch.entry) -> e.Batch.e_status) m.Batch.m_entries

(* Positive-integer test knob from the environment; a malformed value is a
   hard error so a typo cannot silently run the default workload. *)
let getenv_pos name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Some n
      | _ ->
          Printf.eprintf "%s=%S is not a positive integer\n%!" name s;
          exit 2)

(* A value of an option-table field other than its default. *)
let non_default (type a) (f : a Driver.field) : a =
  let d = f.Driver.get Driver.default_options in
  match f.Driver.kind with
  | Driver.Bool -> not d
  | Driver.Int -> d + 1
  | Driver.Int_opt -> Some (2 * Option.value d ~default:4)
  | Driver.Ints_opt -> Some [| 8; 32 |]

(* Alcotest case whose body starts from freshly reset global counters, so
   counter assertions cannot pass or fail depending on which suites ran
   before them in the same process. *)
let stats_case name speed f =
  Alcotest.test_case name speed (fun () ->
      Stats.reset ();
      f ())

(* ----------------------- fuzzing / reproducer support --------------------- *)

(* The randomized suites (test_fuzz, test_differential) draw from a seed that
   is printed on startup and overridable via PLUTO_FUZZ_SEED, so any failure
   is replayed exactly by re-running with that seed.  The seed is resolved by
   the shared Putil.Seed source — the same one the autotuner's search order
   uses — so a single variable reproduces every randomized component. *)
let fuzz_seed =
  try Putil.Seed.of_env ~default:Putil.Seed.default ()
  with Failure msg ->
    Printf.eprintf "%s\n%!" msg;
    exit 2

let announce_seed =
  let done_ = ref false in
  fun () ->
    if not !done_ then begin
      done_ := true;
      Printf.eprintf
        "fuzz seed: %d (set PLUTO_FUZZ_SEED to override and reproduce)\n%!"
        fuzz_seed
    end

(* Write a failing input program to PLUTO_FUZZ_DUMP_DIR (or the system temp
   dir) and return the path, so the reproducer survives the test run. *)
let dump_reproducer ~name src =
  let dir =
    match Sys.getenv_opt "PLUTO_FUZZ_DUMP_DIR" with
    | Some d when String.trim d <> "" ->
        (try
           if not (Sys.file_exists d) then Unix.mkdir d 0o755
         with Unix.Unix_error _ -> ());
        d
    | _ -> Filename.get_temp_dir_name ()
  in
  let path = Filename.concat dir (name ^ ".c") in
  (try
     let oc = open_out path in
     output_string oc src;
     close_out oc;
     Printf.eprintf "reproducer written to %s\n%!" path
   with Sys_error msg ->
     Printf.eprintf "could not write reproducer %s: %s\n%!" path msg);
  path
