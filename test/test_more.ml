(* Additional coverage: cache model vs a naive reference implementation,
   less-traveled APIs, and guard rails. *)

(* reference LRU cache: association list per set, most recent first *)
module Ref_cache = struct
  type t = {
    line_bytes : int;
    nsets : int;
    assoc : int;
    sets : int list array;
    mutable misses : int;
  }

  let create (cfg : Cache.config) =
    let nsets = max 1 (cfg.size_bytes / (cfg.line_bytes * cfg.assoc)) in
    {
      line_bytes = cfg.line_bytes;
      nsets;
      assoc = cfg.assoc;
      sets = Array.make nsets [];
      misses = 0;
    }

  let access t addr =
    let line = addr / t.line_bytes in
    let set = line mod t.nsets in
    let contents = t.sets.(set) in
    if List.mem line contents then begin
      t.sets.(set) <- line :: List.filter (fun l -> l <> line) contents;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      t.sets.(set) <- Putil.take t.assoc (line :: contents);
      false
    end
end

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache = reference LRU" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 400) (int_bound 4095))
    (fun addrs ->
      let cfg = { Cache.size_bytes = 512; line_bytes = 64; assoc = 2 } in
      let c = Cache.create cfg in
      let r = Ref_cache.create cfg in
      List.for_all (fun a -> Cache.access c a = Ref_cache.access r a) addrs
      && Cache.misses c = r.Ref_cache.misses)

let test_cache_reset () =
  let c = Cache.create { Cache.size_bytes = 512; line_bytes = 64; assoc = 2 } in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  Cache.reset c;
  Alcotest.(check int) "hits reset" 0 (Cache.hits c);
  Alcotest.(check bool) "cold again" false (Cache.access c 0)

let test_polyhedra_rename () =
  (* x0 <= 3 with columns swapped becomes x1 <= 3 *)
  let sys = Polyhedra.of_constrs 2 [ Polyhedra.ge_ints [ -1; 0; 3 ] ] in
  let swapped = Polyhedra.rename sys [| 1; 0 |] in
  let pt a b = Array.map Bigint.of_int [| a; b |] in
  Alcotest.(check bool) "x1 constrained" false (Polyhedra.sat_point swapped (pt 0 5));
  Alcotest.(check bool) "x0 free" true (Polyhedra.sat_point swapped (pt 99 1))

let test_milp_node_limit () =
  (* a system forcing branching with a tiny node budget must raise *)
  let n = 6 in
  let cs =
    (* sum 2*x_i = 7: every LP vertex fractional, integer infeasible *)
    Polyhedra.eq_ints (List.init (n + 1) (fun j -> if j = n then -7 else 2))
    :: List.concat_map
         (fun j ->
           [
             Polyhedra.ge_ints (List.init (n + 1) (fun q -> if q = j then 1 else 0));
             Polyhedra.ge_ints
               (List.init (n + 1) (fun q -> if q = j then -1 else if q = n then 5 else 0));
           ])
         (Putil.range n)
  in
  let sys = Polyhedra.of_constrs n cs in
  (match
     Milp.ilp
       ~budget:{ Milp.max_nodes = 1 }
       sys (Vec.zero n)
   with
  | exception Diag.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected node limit");
  (* with a sane budget it terminates with infeasible *)
  match Milp.ilp sys (Vec.zero n) with
  | Milp.Ilp_infeasible -> ()
  | _ -> Alcotest.fail "2*sum = 7 should be integer-infeasible"

let test_bigint_edges () =
  Alcotest.(check string) "min_int magnitude" (string_of_int min_int)
    (Bigint.to_string (Bigint.of_int min_int));
  Alcotest.(check bool) "min/max" true
    (Bigint.equal
       (Bigint.min (Bigint.of_int 3) (Bigint.of_int (-7)))
       (Bigint.of_int (-7)));
  Alcotest.(check bool) "to_int_opt overflow" true
    (Bigint.to_int_opt (Bigint.pow (Bigint.of_int 10) 30) = None);
  Alcotest.(check bool) "hash equal values" true
    (Bigint.hash (Bigint.of_int 42) = Bigint.hash (Bigint.of_string "42"))

let test_q_to_float () =
  Alcotest.(check (float 1e-12)) "1/4" 0.25 (Q.to_float (Q.of_ints 1 4));
  Alcotest.(check (float 1e6)) "huge"
    1e30
    (Q.to_float (Q.of_bigint (Bigint.pow (Bigint.of_int 10) 30)))

let test_wavefront_degrees_clamped () =
  (* asking for more degrees than the band has is clamped, not an error *)
  let t = Fixtures.transform Kernels.jacobi_1d in
  let b = List.hd (Pluto.Tiling.bands_of t) in
  let bands_sizes = [ (b, Array.make b.Pluto.Tiling.b_len 8) ] in
  let tgt = Pluto.Tiling.tile t ~bands_sizes in
  let levels = Pluto.Tiling.target_band_levels t ~bands_sizes b in
  let tgtw = Pluto.Tiling.wavefront tgt ~levels ~degrees:99 in
  let pars =
    Array.to_list tgtw.Pluto.Types.tpar
    |> List.filter (fun x -> x = Pluto.Types.Par)
  in
  Alcotest.(check int) "clamped to band width - 1" 1 (List.length pars)

let test_mark_outer_parallel_degrees () =
  let t = Fixtures.transform Kernels.matmul in
  let tgt = Pluto.Tiling.untiled_target t in
  let cleared =
    { tgt with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) tgt.Pluto.Types.tpar }
  in
  let one = Pluto.Tiling.mark_outer_parallel cleared ~max_degrees:1 in
  let two = Pluto.Tiling.mark_outer_parallel cleared ~max_degrees:2 in
  let count tgt =
    Array.to_list tgt.Pluto.Types.tpar
    |> List.filter (fun x -> x = Pluto.Types.Par)
    |> List.length
  in
  Alcotest.(check int) "one" 1 (count one);
  Alcotest.(check int) "two" 2 (count two)

let test_codegen_size_positive () =
  List.iter
    (fun k ->
      let r = Fixtures.compiled k in
      Alcotest.(check bool)
        (k.Kernels.name ^ " nonempty AST")
        true
        (Codegen.size r.Driver.code > 0))
    [ Kernels.jacobi_1d; Kernels.lu ]

let test_simulate_deterministic () =
  let r = Fixtures.compiled Kernels.mvt in
  let go () = Machine.simulate Machine.default_machine r.Driver.code ~params:[| 150 |] in
  let a = go () and b = go () in
  Alcotest.(check bool) "bit-identical results" true (a = b)

let suite =
  ( "more",
    [
      QCheck_alcotest.to_alcotest prop_cache_matches_reference;
      Alcotest.test_case "cache reset" `Quick test_cache_reset;
      Alcotest.test_case "polyhedra rename" `Quick test_polyhedra_rename;
      Alcotest.test_case "milp node limit" `Quick test_milp_node_limit;
      Alcotest.test_case "bigint edges" `Quick test_bigint_edges;
      Alcotest.test_case "Q.to_float" `Quick test_q_to_float;
      Alcotest.test_case "wavefront degree clamp" `Quick test_wavefront_degrees_clamped;
      Alcotest.test_case "mark_outer_parallel degrees" `Quick test_mark_outer_parallel_degrees;
      Alcotest.test_case "codegen size" `Quick test_codegen_size_positive;
      Alcotest.test_case "simulator determinism" `Quick test_simulate_deterministic;
    ] )
