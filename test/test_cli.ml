(* The plutocc command-line tool, driven end to end as a subprocess. *)

let plutocc = "../bin/plutocc.exe"

let available () = Sys.file_exists plutocc

let with_source f =
  Pool.with_temp_dir ~prefix:"plutocc" (fun dir ->
      let src = Filename.concat dir "k.c" in
      let oc = open_out src in
      output_string oc Kernels.jacobi_1d.Kernels.source;
      close_out oc;
      f dir src)

let run cmd = Sys.command (cmd ^ " > /dev/null 2> /dev/null")

let test_basic_compile () =
  if available () then
    with_source (fun dir src ->
        let out = Filename.concat dir "out.c" in
        Alcotest.(check int) "exit 0" 0
          (run (Printf.sprintf "%s %s -o %s" plutocc src out));
        let ic = open_in out in
        let content = really_input_string ic (in_channel_length ic) in
        close_in ic;
        List.iter
          (fun frag ->
            Alcotest.(check bool) ("contains " ^ frag) true
              (Astring.String.is_infix ~affix:frag content))
          [ "#pragma omp parallel for"; "#define S1"; "floord" ])

let test_check_flag () =
  if available () then
    with_source (fun _dir src ->
        Alcotest.(check int) "check passes" 0
          (run (Printf.sprintf "%s %s --check --params T=6,N=24" plutocc src)))

let test_simulate_flag () =
  if available () then
    with_source (fun _dir src ->
        Alcotest.(check int) "simulate runs" 0
          (run
             (Printf.sprintf "%s %s --simulate --params T=16,N=500 --cores 2"
                plutocc src)))

let test_option_flags () =
  if available () then
    with_source (fun dir src ->
        List.iter
          (fun flags ->
            Alcotest.(check int) ("flags: " ^ flags) 0
              (run
                 (Printf.sprintf "%s %s %s -o %s/o.c --check --params T=5,N=20"
                    plutocc src flags dir)))
          [
            "--no-tile";
            "--tile-size 8";
            "--no-parallel";
            "--wavefront 2";
            "--no-intra-reorder";
            "--no-rar";
            "--show-transform --show-deps";
          ];
        (* out of range: refused before anything is compiled or written *)
        List.iter
          (fun flags ->
            let out = Filename.concat dir "bad.c" in
            Alcotest.(check bool) ("refused: " ^ flags) true
              (run (Printf.sprintf "%s %s %s -o %s" plutocc src flags out) <> 0);
            Alcotest.(check bool) ("nothing written: " ^ flags) false
              (Sys.file_exists out))
          [ "--tile-size 0"; "--tile-size=-4"; "--unroll-jam 0"; "--wavefront=-1" ];
        let err = Filename.concat dir "err.txt" in
        Alcotest.(check bool) "--cores 0 refused" true
          (Sys.command
             (Printf.sprintf
                "%s %s --simulate --params T=4,N=20 --cores 0 > /dev/null 2> %s"
                plutocc src err)
          <> 0);
        let msg = In_channel.with_open_bin err In_channel.input_all in
        Alcotest.(check bool) ("--cores 0 is a usage error: " ^ msg) true
          (Astring.String.is_infix ~affix:"--cores" msg
          && not (Astring.String.is_infix ~affix:"internal" msg)))

let test_tune_flag () =
  if available () then
    with_source (fun dir src ->
        let report = Filename.concat dir "report.json" in
        let cache = Filename.concat dir "cache" in
        let cmd =
          Printf.sprintf
            "PLUTO_FUZZ_SEED=5 %s %s --tune --cache-dir %s --tune-budget 6 \
             --jobs 2 --tune-report %s --stats -o %s/out.c"
            plutocc src cache report dir
        in
        Alcotest.(check int) "tune exits 0" 0 (run cmd);
        let ic = open_in report in
        let content = really_input_string ic (in_channel_length ic) in
        close_in ic;
        List.iter
          (fun frag ->
            Alcotest.(check bool) ("report contains " ^ frag) true
              (Astring.String.is_infix ~affix:frag content))
          [ "\"best\":"; "\"outcomes\":"; "\"seed\": 5"; "\"evaluated\": 6" ];
        (* warm rerun: everything comes from the cache *)
        Alcotest.(check int) "warm tune exits 0" 0 (run cmd);
        let ic = open_in report in
        let content = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Alcotest.(check bool) "warm rerun evaluates nothing" true
          (Astring.String.is_infix ~affix:"\"evaluated\": 0" content))

let test_parse_error_exit_code () =
  if available () then
    with_source (fun dir _src ->
        let bad = Filename.concat dir "bad.c" in
        let oc = open_out bad in
        output_string oc "double a[N];\nfor (i = 0; i < N; i++) a[i*i] = 1.0;";
        close_out oc;
        Alcotest.(check bool) "nonzero exit" true
          (run (Printf.sprintf "%s %s" plutocc bad) <> 0))

let cli_cases =
  [
    Alcotest.test_case "basic compile" `Quick test_basic_compile;
    Alcotest.test_case "--check" `Quick test_check_flag;
    Alcotest.test_case "--simulate" `Quick test_simulate_flag;
    Alcotest.test_case "option flags" `Quick test_option_flags;
    Alcotest.test_case "--tune end to end" `Quick test_tune_flag;
    Alcotest.test_case "parse error exit" `Quick test_parse_error_exit_code;
  ]

(* ------------------------- native execution backend ----------------------- *)

let native_validate (k : Kernels.t) params () =
  if Runner.available () then begin
    let p = Kernels.program k in
    let orig = Driver.compile_original p in
    let pluto = Driver.compile p in
    match Runner.validate orig.Driver.code pluto.Driver.code ~params with
    | Some ok ->
        Alcotest.(check bool) (k.Kernels.name ^ " native checksums agree") true ok
    | None -> ()
  end

let test_runner_result_fields () =
  if Runner.available () then begin
    let p = Kernels.program Kernels.matmul in
    let r = Driver.compile p in
    match Runner.run r.Driver.code ~params:[ ("N", 40) ] with
    | None -> ()
    | Some res ->
        Alcotest.(check bool) "time parsed" true (res.Runner.wall_seconds >= 0.0);
        Alcotest.(check int) "3 array checksums" 3 (List.length res.Runner.checksums)
  end

(* The C text itself, natively, against the original order: a generated
   program scheduled with the default options must build with -fopenmp and
   produce the same checksums at N = 37. *)
let native_generated src () =
  if Runner.available () then begin
    let p = Frontend.parse_program ~name:"gen.c" src in
    match Driver.compile_robust p with
    | Error _ -> Alcotest.fail "no code emitted"
    | Ok (r, _) -> (
        let orig = Driver.compile_original p in
        match Runner.validate r.Driver.code orig.Driver.code ~params:[ ("N", 37) ] with
        | Some ok -> Alcotest.(check bool) "native checksums agree" true ok
        | None -> ())
  end

(* gen-ec88aa-3s (Gen, seed 20080613): a statement macro pastes its argument
   into [A[N-1-x][x]], so an unparenthesized [c1 - 1] read the wrong cell. *)
let macro_argument_source =
  {|double A[N][N], B[N][N], u[N], v[N];
for (i = 1; i < N - 1; i++) {
  for (j = 1; j < N - 1; j++)
    A[1][1] = u[i] + B[i][i-1];
}
for (p = 1; p < N - 1; p++)
  B[p][p] = u[p] - B[p+1][p] * B[N-1-p][p];
for (x = 1; x < N - 1; x++)
  u[x] = B[x+1][x+1] - 0.5 * B[x][x] - A[N-1-x][x] * B[x-1][x];
|}

(* gen-fbafe9-4s: a parallel loop with one iteration printed as a block
   under "#pragma omp parallel for", which gcc -fopenmp rejects. *)
let one_iteration_pragma_source =
  {|double A[N][N], B[N][N], u[N], v[N];
for (i = 1; i < N - 1; i++) {
  A[i][i] = B[i][1];
  B[i-1][i] = v[i] + 0.25 * u[i];
}
for (p = 1; p < N - 1; p++) {
  for (q = 1; q < N - 1; q++) {
    A[q][p] = A[q][q] + 0.5 * u[p] - B[q][p];
    for (r = 1; r < N - 1; r++)
      A[1][q-1] = v[r];
  }
}
|}

let native_suite =
  [
    Alcotest.test_case "native macro arguments parenthesized" `Quick
      (native_generated macro_argument_source);
    Alcotest.test_case "native no pragma over a one-iteration block" `Quick
      (native_generated one_iteration_pragma_source);
    Alcotest.test_case "native validate jacobi" `Quick
      (native_validate Kernels.jacobi_1d [ ("T", 20); ("N", 300) ]);
    Alcotest.test_case "native validate lu" `Quick
      (native_validate Kernels.lu [ ("N", 80) ]);
    Alcotest.test_case "native validate fdtd" `Quick
      (native_validate Kernels.fdtd_2d [ ("tmax", 8); ("nx", 40); ("ny", 40) ]);
    Alcotest.test_case "runner result fields" `Quick test_runner_result_fields;
  ]

let suite = ("plutocc-cli", cli_cases @ native_suite)
