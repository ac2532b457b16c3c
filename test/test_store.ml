(* The sharded self-healing solver store: layout, crash-safe publish with
   tmp cleanup on every failure path, orphan GC, checksummed entries, LRU
   eviction under a byte budget, and N concurrent writer processes
   hammering one cache directory. *)

let counter_of name =
  match List.assoc_opt name (Stats.counters ()) with Some v -> v | None -> 0

(* Run [f] against a fresh store directory, always unconfiguring the
   process-global store and fault state afterwards. *)
let with_store f =
  Pool.with_temp_dir ~prefix:"store_test" (fun tmp ->
      let dir = Filename.concat tmp "cache" in
      Fun.protect
        ~finally:(fun () ->
          Fault.install None;
          Store.set_budget None;
          Store.set_dir None)
        (fun () ->
          Store.set_dir (Some dir);
          f dir))

let rec walk dir f =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk p f else f p)
      (Sys.readdir dir)

let files_with_suffix dir suffix =
  let acc = ref [] in
  walk dir (fun p -> if Filename.check_suffix p suffix then acc := p :: !acc);
  !acc

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

(* Entries land in two-hex-digit shard subdirectories and round-trip. *)
let test_sharded_layout () =
  with_store (fun dir ->
      for i = 1 to 32 do
        Store.write ~kind:"t" ~key:(string_of_int i) (i * i)
      done;
      for i = 1 to 32 do
        Alcotest.(check (option int))
          "round-trip" (Some (i * i))
          (Store.read ~kind:"t" ~key:(string_of_int i))
      done;
      let entries = files_with_suffix dir ".store" in
      Alcotest.(check int) "one file per entry" 32 (List.length entries);
      List.iter
        (fun p ->
          let shard = Filename.basename (Filename.dirname p) in
          Alcotest.(check bool)
            ("shard dir is 2 hex digits: " ^ shard)
            true
            (String.length shard = 2 && String.for_all is_hex shard))
        entries)

(* A failed publish (injected rename failure) leaves no tmp file behind and
   counts store.write_failures — the satellite fix for the .tmp leak. *)
let test_write_failure_cleans_tmp () =
  with_store (fun dir ->
      Stats.reset ();
      Fault.install
        (Some { Fault.none with Fault.fail_at = [ ("store.write.rename", [ 1 ]) ] });
      Store.write ~kind:"t" ~key:"a" 1;
      Fault.install None;
      Alcotest.(check int) "write failure counted" 1
        (counter_of "store.write_failures");
      Alcotest.(check (list string))
        "no tmp left behind" [] (files_with_suffix dir ".tmp");
      Alcotest.(check (option int)) "entry not published" None
        (Store.read ~kind:"t" ~key:"a");
      (* same story for ENOSPC at open, partial write, and fsync failure *)
      List.iter
        (fun site ->
          Fault.install (Some { Fault.none with Fault.fail_at = [ (site, [ 1 ]) ] });
          Store.write ~kind:"t" ~key:site 2;
          Fault.install None;
          Alcotest.(check (list string))
            ("no tmp after " ^ site)
            [] (files_with_suffix dir ".tmp"))
        [ "store.write.open"; "store.write.partial"; "store.write.fsync" ])

(* A writer SIGKILLed mid-publish (simulated) leaves an orphan tmp that the
   GC collects; the entry itself was never visible. *)
let test_crash_orphan_gc () =
  with_store (fun dir ->
      Stats.reset ();
      Fault.install
        (Some { Fault.none with Fault.fail_at = [ ("store.write.crash", [ 1 ]) ] });
      Store.write ~kind:"t" ~key:"a" 1;
      Fault.install None;
      Alcotest.(check int) "one orphan tmp" 1
        (List.length (files_with_suffix dir ".tmp"));
      (* a young orphan survives the default-age GC (it might be live) *)
      Store.gc ();
      Alcotest.(check int) "young tmp kept" 1
        (List.length (files_with_suffix dir ".tmp"));
      Store.gc ~max_tmp_age_s:0.0 ();
      Alcotest.(check (list string))
        "orphan collected" [] (files_with_suffix dir ".tmp");
      Alcotest.(check bool) "gc counted" true (counter_of "store.gc_orphans" > 0);
      Alcotest.(check (option int)) "entry never visible" None
        (Store.read ~kind:"t" ~key:"a"))

(* Startup GC removes legacy pre-shard flat entries and orphaned touch
   files. *)
let test_startup_gc_legacy () =
  with_store (fun dir ->
      Store.write ~kind:"t" ~key:"keep" 7;
      let flat = Filename.concat dir "legacy-0123456789abcdef.store" in
      let oc = open_out_bin flat in
      output_string oc "old flat entry";
      close_out oc;
      let orphan_touch = Filename.concat dir "aa" in
      (try Sys.mkdir orphan_touch 0o755 with Sys_error _ -> ());
      let t = Filename.concat orphan_touch "gone-ffff.store.touch" in
      close_out (open_out_bin t);
      (* re-point the store at the same directory: set_dir runs the GC *)
      Store.set_dir (Some dir);
      Alcotest.(check bool) "flat entry removed" false (Sys.file_exists flat);
      Alcotest.(check bool) "orphan touch removed" false (Sys.file_exists t);
      Alcotest.(check (option int))
        "real entry survives" (Some 7)
        (Store.read ~kind:"t" ~key:"keep"))

(* A flipped byte anywhere in an entry — including inside the marshaled
   value, where Marshal itself might not notice — fails the checksum and
   reads as an eviction + miss. *)
let test_checksum_catches_corruption () =
  with_store (fun dir ->
      Store.write ~kind:"t" ~key:"a" 123456789;
      match files_with_suffix dir ".store" with
      | [ file ] ->
          let ic = open_in_bin file in
          let raw = really_input_string ic (in_channel_length ic) in
          close_in ic;
          (* flip one byte near the end: inside the marshaled value *)
          let b = Bytes.of_string raw in
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          let oc = open_out_bin file in
          output_bytes oc b;
          close_out oc;
          Stats.reset ();
          Alcotest.(check (option int))
            "corrupt entry is a miss" None
            (Store.read ~kind:"t" ~key:"a");
          Alcotest.(check int) "evicted" 1 (counter_of "store.evictions");
          Alcotest.(check bool) "file dropped" false (Sys.file_exists file)
      | l -> Alcotest.failf "expected one entry file, got %d" (List.length l))

(* LRU eviction under a byte budget: recently-touched entries survive,
   cold ones go, and the footprint ends under budget. *)
let test_lru_eviction () =
  with_store (fun _dir ->
      let blob tag = String.concat "-" (List.init 200 (fun i -> tag ^ string_of_int i)) in
      Store.write ~kind:"t" ~key:"old" (blob "old");
      Unix.sleepf 0.02;
      Store.write ~kind:"t" ~key:"new" (blob "new");
      Unix.sleepf 0.02;
      (* touch "old": a hit refreshes its recency past "new"'s *)
      Alcotest.(check bool)
        "old readable" true
        (Store.read ~kind:"t" ~key:"old" = Some (blob "old"));
      let one_entry = Store.usage_bytes () / 2 in
      Stats.reset ();
      Store.set_budget (Some (one_entry + one_entry / 2));
      Store.evict_to_budget ();
      Alcotest.(check bool) "under budget" true
        (Store.usage_bytes () <= one_entry + one_entry / 2);
      Alcotest.(check bool) "eviction counted" true
        (counter_of "store.lru_evictions" > 0);
      Alcotest.(check bool)
        "recently-used survives" true
        (Store.read ~kind:"t" ~key:"old" = Some (blob "old"));
      Alcotest.(check (option string))
        "cold entry evicted" None
        (Store.read ~kind:"t" ~key:"new"))

(* Satellite: N forked writer processes hammering one cache directory with
   overlapping keys.  No corrupt reads (every read returns the write for
   that key or a miss), no orphans after GC, and the merged hit/miss
   counters sum to exactly the reads issued. *)
let test_concurrent_writers () =
  with_store (fun dir ->
      Stats.reset ();
      let nworkers = 4 and rounds = 120 and keyspace = 40 in
      let value_of key = key ^ "|" ^ key in
      let worker w =
        (* workers share the parent's store configuration via fork *)
        for i = 0 to rounds - 1 do
          let key = Printf.sprintf "k%d" ((i + (w * 7)) mod keyspace) in
          Store.write ~kind:"cw" ~key (value_of key);
          Stats.incr "test.store_reads";
          match Store.read ~kind:"cw" ~key with
          | None -> () (* a racing eviction is a miss, never a wrong value *)
          | Some v ->
              if not (String.equal v (value_of key)) then
                failwith ("corrupt read for " ^ key)
        done;
        w
      in
      let out = Pool.map ~jobs:nworkers ~f:worker (List.init nworkers Fun.id) in
      List.iter
        (fun (o : _ Pool.outcome) ->
          match o.Pool.value with
          | Ok _ -> ()
          | Error d -> Alcotest.failf "worker failed: %s" d.Diag.message)
        out;
      (* merged counters sum consistently: every read is a hit or a miss *)
      let reads = counter_of "test.store_reads" in
      Alcotest.(check int) "reads issued" (nworkers * rounds) reads;
      Alcotest.(check int)
        "hits + misses = reads" reads
        (counter_of "store.hits" + counter_of "store.misses");
      Alcotest.(check bool) "writes happened" true (counter_of "store.writes" > 0);
      (* every key is readable with the correct value from the parent *)
      for i = 0 to keyspace - 1 do
        let key = Printf.sprintf "k%d" i in
        match Store.read ~kind:"cw" ~key with
        | Some v -> Alcotest.(check string) ("value of " ^ key) (value_of key) v
        | None -> Alcotest.failf "key %s missing after all writers finished" key
      done;
      Store.gc ~max_tmp_age_s:0.0 ();
      Alcotest.(check (list string))
        "no orphans after GC" [] (files_with_suffix dir ".tmp"))

(* A Memo table looks in memory, then the store, then computes; past its
   budget of 16 it trims the oldest entries down to 14 (budget - budget/8),
   so an entry touched on every round survives. *)
let test_memo_policy () =
  with_store (fun _dir ->
      let t : int Memo.t =
        Memo.create ~kind:"memo-test" ~budget:16 ~hits:"memo.hits"
          ~misses:"memo.misses" ~evictions:"memo.evictions" ()
      in
      let computed = ref 0 in
      let square i =
        Memo.lookup t (string_of_int i) (fun () ->
            incr computed;
            i * i)
      in
      Alcotest.(check int) "computed" 49 (square 7);
      Alcotest.(check int) "memory hit" 49 (square 7);
      Memo.clear t;
      Alcotest.(check int) "store hit" 49 (square 7);
      Alcotest.(check int) "computed once" 1 !computed;
      for i = 101 to 116 do
        ignore (square i);
        ignore (square 7)
      done;
      Alcotest.(check int) "trimmed to budget - budget/8" 14 (Memo.length t);
      Alcotest.(check int) "evictions counted" 3 (counter_of "memo.evictions");
      let hits = counter_of "memo.hits" in
      ignore (square 7);
      Alcotest.(check int) "the hot entry survived" (hits + 1)
        (counter_of "memo.hits");
      Alcotest.(check int) "an evicted entry comes back from the store" 10201
        (square 101);
      Alcotest.(check int) "no recompute" 17 !computed)

(* The solver stores hold marshaled [Bigint.t]s, so their entries are
   sub-versioned by the integers' layout.  An entry written under the plain
   stamp — the layout before immediate integers — must be a miss: here it
   holds a wrong answer, and neither solver may return it. *)
let test_solver_old_layout_miss () =
  with_store (fun _dir ->
      Fun.protect ~finally:Milp.clear_caches (fun () ->
          Milp.clear_caches ();
          (* 3 <= x <= 7 *)
          let sys =
            Polyhedra.of_constrs 1
              [ Polyhedra.ge_ints [ 1; -3 ]; Polyhedra.ge_ints [ -1; 7 ] ]
          in
          let feasible_key =
            match Polyhedra.canon ~integer:true sys with
            | Some c -> "f:" ^ Polyhedra.digest c
            | None -> Alcotest.fail "system is empty"
          in
          let lp_key = "f:" ^ Polyhedra.digest sys ^ "1," in
          Store.write ~kind:"milp-feasible" ~key:feasible_key
            (None : Bigint.t array option);
          Store.write ~kind:"milp-lp" ~key:lp_key Milp.Lp_infeasible;
          Alcotest.(check bool) "the old entry is on disk" true
            ((Store.read ~kind:"milp-feasible" ~key:feasible_key
               : Bigint.t array option option)
            = Some None);
          Alcotest.(check bool) "feasible: old entry is a miss" true
            (Milp.feasible_cached sys <> None);
          match Milp.lp sys [| Q.one |] with
          | Milp.Lp_optimal (v, _) ->
              Alcotest.(check string) "lp: old entry is a miss" "3" (Q.to_string v)
          | _ -> Alcotest.fail "lp: the old entry's answer was returned"))

(* PLUTO_FAULT_* environment round-trip. *)
let test_fault_env () =
  let clear () =
    List.iter
      (fun v -> Unix.putenv v "")
      [ "PLUTO_FAULT_SEED"; "PLUTO_FAULT_RATE"; "PLUTO_FAULT_ONLY"; "PLUTO_FAULT_AT" ]
  in
  Fun.protect
    ~finally:(fun () ->
      clear ();
      Fault.install None)
    (fun () ->
      clear ();
      Alcotest.(check bool) "unset env = disabled" true (Fault.of_env () = None);
      Unix.putenv "PLUTO_FAULT_SEED" "42";
      Unix.putenv "PLUTO_FAULT_ONLY" "store.write,pool.";
      Unix.putenv "PLUTO_FAULT_AT" "store.write.rename@3,store.write.rename@5";
      match Fault.of_env () with
      | None -> Alcotest.fail "env not parsed"
      | Some c ->
          Alcotest.(check int) "seed" 42 c.Fault.seed;
          Alcotest.(check (list string))
            "only" [ "store.write"; "pool." ] c.Fault.only;
          Alcotest.(check bool)
            "fail_at" true
            (c.Fault.fail_at = [ ("store.write.rename", [ 3; 5 ]) ]);
          (* deterministic: the 3rd and 5th calls fire, no others *)
          Fault.install (Some c);
          let fired =
            List.init 6 (fun _ -> Fault.fire "store.write.rename")
          in
          Alcotest.(check (list bool))
            "exact schedule"
            [ false; false; true; false; true; false ]
            fired;
          Alcotest.(check bool)
            "filtered site never fires" false
            (Fault.fire "store.read.open"))

let suite =
  ( "store",
    [
      Alcotest.test_case "sharded layout round-trips" `Quick test_sharded_layout;
      Alcotest.test_case "failed publish cleans its tmp" `Quick
        test_write_failure_cleans_tmp;
      Alcotest.test_case "crash orphan collected by gc" `Quick
        test_crash_orphan_gc;
      Alcotest.test_case "startup gc removes legacy files" `Quick
        test_startup_gc_legacy;
      Alcotest.test_case "checksum catches silent corruption" `Quick
        test_checksum_catches_corruption;
      Alcotest.test_case "lru eviction respects budget and recency" `Quick
        test_lru_eviction;
      Alcotest.test_case "concurrent writers share one store" `Quick
        test_concurrent_writers;
      Fixtures.stats_case "memo lookup order and trim" `Quick test_memo_policy;
      Alcotest.test_case "solver entries of the old layout are misses" `Quick
        test_solver_old_layout_miss;
      Alcotest.test_case "fault env knobs parse" `Quick test_fault_env;
    ] )
