(** [--compare A B]: the regression table between two sets of runs, and
    [--smoke]: the quick self-check [dune runtest] runs. *)

module J = Manifest.Json

type spec = { name : string; better : string; bound : float option }

type benchmark = {
  workloads : string list;
  end_to_end : spec list;
  per_layer : spec list;
}

let load_benchmark path =
  let j =
    match J.parse (Surfaces.read_file path) with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  in
  let items k = match J.mem k j with Some (J.Arr xs) -> xs | _ -> [] in
  let spec x =
    { name = J.str_mem "name" x ~default:"?";
      better = J.str_mem "better" x ~default:"lower";
      bound = Option.bind (J.mem "bound" x) J.num }
  in
  { workloads = List.map (fun x -> J.str_mem "name" x ~default:"?") (items "workloads");
    end_to_end = List.map spec (items "end_to_end");
    per_layer = List.map spec (items "per_layer") }

(* "FILE" or "FILE@SET": the records of one file, optionally only one set. *)
let load_side arg =
  let path, set =
    match String.rindex_opt arg '@' with
    | Some i -> (String.sub arg 0 i, Some (String.sub arg (i + 1) (String.length arg - i - 1)))
    | None -> (arg, None)
  in
  List.filter
    (fun r -> match set with None -> true | Some s -> r.Metric.set = s)
    (Metric.read_records path)

let values records ~workload ~trace name =
  List.filter_map
    (fun (r : Metric.record) ->
      if r.Metric.workload <> workload || r.Metric.trace <> trace then None
      else
        List.find_map
          (fun (m : Metric.t) -> if m.Metric.name = name then Some m else None)
          r.Metric.metrics)
    records

let fmt_side (s : Sample.summary) =
  Printf.sprintf "%.5g [%.5g, %.5g] n=%d" s.Sample.median s.Sample.p25 s.Sample.p75 s.Sample.n

(** One row per (workload, metric): medians and quartiles over each side's
    runs, and a verdict.  Deterministic metrics must match exactly; an
    end-to-end metric is WORSE past its bound, and unresolved when either
    side's interquartile spread exceeds the bound (unless every run of B
    beats every run of A).  Exit 1 on any WORSE, DRIFT or missing metric. *)
let compare ~benchmark files =
  match files with
  | [ a; b ] ->
      let bench = load_benchmark benchmark in
      let ra = load_side a and rb = load_side b in
      let bad = ref 0 in
      Printf.printf "A = %s\nB = %s\n%-6s %-28s %-34s %-34s %9s  %s\n" a b "wkld" "metric"
        "A median [p25, p75]" "B median [p25, p75]" "change" "verdict";
      List.iter
        (fun workload ->
          let rows ~trace specs =
            List.iter
              (fun spec ->
                let ma = values ra ~workload ~trace spec.name
                and mb = values rb ~workload ~trace spec.name in
                if ma = [] && mb = [] then ()
                else if ma = [] || mb = [] then begin
                  incr bad;
                  Printf.printf "%-6s %-28s missing on side %s\n" workload spec.name
                    (if ma = [] then "A" else "B")
                end
                else
                  let med = List.map (fun m -> m.Metric.s.Sample.median) in
                  let va = med ma and vb = med mb in
                  let sa = Sample.summarize va and sb = Sample.summarize vb in
                  let change =
                    if sa.Sample.median = 0.0 then 0.0
                    else (sb.Sample.median -. sa.Sample.median) /. Float.abs sa.Sample.median
                  in
                  let lower = spec.better = "lower" in
                  let beats x y = if lower then x < y else x > y in
                  let verdict =
                    if List.exists (fun m -> m.Metric.exact) (ma @ mb) then
                      if List.for_all (fun v -> v = List.hd va) (va @ vb) then "exact"
                      else "DRIFT"
                    else
                      match spec.bound with
                      | None -> "-"
                      | Some bound ->
                          let worse = if lower then change else -.change in
                          if Sample.spread sa > bound || Sample.spread sb > bound then
                            if List.for_all (fun x -> List.for_all (beats x) va) vb then "better"
                            else "unresolved"
                          else if worse > bound then "WORSE"
                          else "ok"
                  in
                  if verdict = "WORSE" || verdict = "DRIFT" then incr bad;
                  Printf.printf "%-6s %-28s %-34s %-34s %+8.2f%%  %s\n" workload spec.name
                    (fmt_side sa) (fmt_side sb) (100.0 *. change) verdict)
              specs
          in
          rows ~trace:false bench.end_to_end;
          rows ~trace:true bench.per_layer)
        bench.workloads;
      if !bad = 0 then 0 else 1
  | _ ->
      prerr_endline "perf: --compare takes two record files, A and B";
      2

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(** Run every workload of [benchmark] with --quick twice, untraced and
    traced, on one seed.  Each run must pass its own correctness checks and
    print every metric its list names; the two runs must agree on the
    kernel order, the daemon request digest, every exact metric and the
    daemon's compile count. *)
let smoke ~benchmark ~self ~plutocc ~plutod =
  let bench = load_benchmark benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  Surfaces.with_scratch (fun tmp ->
      List.iter
        (fun w ->
          let run trace =
            let base = Filename.concat tmp (Printf.sprintf "%s.%d" w trace) in
            let code =
              Surfaces.wait
                (Surfaces.spawn ~tmp ~stdout:(base ^ ".out") ~stderr:(base ^ ".err") self
                   [ "--workload"; w; "--seed"; "7"; "--quick"; "--trace"; string_of_int trace;
                     "--json"; base ^ ".json"; "--plutocc"; plutocc; "--plutod"; plutod ])
            in
            if code <> 0 then
              problem "%s --trace %d exited %d: %s" w trace code
                (Surfaces.read_file (base ^ ".err"));
            let printed =
              match J.parse (last_line (Surfaces.read_file (base ^ ".out"))) with
              | Ok j ->
                  if not (J.bool_mem "correct" j ~default:false) then
                    problem "%s --trace %d: not correct" w trace;
                  (match J.mem "metrics" j with Some (J.Obj fs) -> List.map fst fs | _ -> [])
              | Error msg ->
                  problem "%s --trace %d: last line is not JSON (%s)" w trace msg;
                  []
            in
            List.iter
              (fun s ->
                if not (List.mem s.name printed) then
                  problem "%s --trace %d: %s not printed" w trace s.name)
              (if trace = 0 then bench.end_to_end else bench.per_layer);
            match Metric.read_records (base ^ ".json") with
            | [ r ] -> Some r
            | _ | (exception _) ->
                problem "%s --trace %d: no record" w trace;
                None
          in
          match (run 0, run 1) with
          | Some r0, Some r1 ->
              if r0.Metric.kernel_order <> r1.Metric.kernel_order then
                problem "%s: kernel order differs between runs" w;
              if r0.Metric.request_digest <> r1.Metric.request_digest then
                problem "%s: daemon request digest differs between runs" w;
              List.iter
                (fun (m : Metric.t) ->
                  if m.Metric.exact || m.Metric.name = "server.compiles" then
                    match
                      List.find_opt (fun (m' : Metric.t) -> m'.Metric.name = m.Metric.name)
                        r1.Metric.metrics
                    with
                    | Some m' when m'.Metric.s.Sample.median = m.Metric.s.Sample.median -> ()
                    | _ -> problem "%s: %s differs between runs" w m.Metric.name)
                r0.Metric.metrics
          | _ -> ())
        bench.workloads);
  List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) (List.rev !problems);
  if !problems = [] then begin
    Printf.printf "perf smoke: %d workloads ok\n" (List.length bench.workloads);
    0
  end
  else 1
