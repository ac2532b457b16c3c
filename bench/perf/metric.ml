(** One reported number: a median with quartiles and sample count, and
    whether it must repeat exactly (counts and simulated results of a
    deterministic compiler). *)

type t = { name : string; unit_ : string; s : Sample.summary; exact : bool }

(* A median over samples, e.g. one per round. *)
let samples name unit_ xs = { name; unit_; s = Sample.summarize xs; exact = false }

(* One statistic ([n] = the samples it was computed from). *)
let measured ?(n = 1) name unit_ v =
  { name; unit_; s = { (Sample.exact v) with Sample.n }; exact = false }

let exact name unit_ v = { name; unit_; s = Sample.exact v; exact = true }

(* Every digit of the double: a value is reported as measured. *)
let num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json m =
  Printf.sprintf
    "{\"value\": %s, \"unit\": %s, \"p25\": %s, \"p75\": %s, \"n\": %d, \"exact\": %b}"
    (num m.s.Sample.median) (Manifest.json_string m.unit_) (num m.s.Sample.p25)
    (num m.s.Sample.p75) m.s.Sample.n m.exact

(** One run's line in a [--json] file. *)
let record_json ~workload ~seed ~trace ~quick ~seconds ~set ~correct ~attempted
    ~failed ~order ~digest metrics =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"trace\": %b, \"quick\": %b, \
     \"seconds\": %d, \"set\": %s, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"kernel_order\": [%s], \"request_digest\": %s, \
     \"metrics\": {%s}}"
    (Manifest.json_string workload) seed trace quick seconds (Manifest.json_string set)
    correct attempted failed
    (String.concat ", " (List.map Manifest.json_string order))
    (Manifest.json_string digest)
    (String.concat ", "
       (List.map (fun m -> Manifest.json_string m.name ^ ": " ^ to_json m) metrics))

(** What [--compare] and [--smoke] read back from a record. *)
type record = {
  workload : string;
  trace : bool;
  set : string;
  kernel_order : string list;  (** of the first corpus round *)
  request_digest : string;  (** of the daemon loop's request lines *)
  metrics : t list;
}

let of_json j =
  let module J = Manifest.Json in
  let metrics =
    match J.mem "metrics" j with
    | Some (J.Obj fields) ->
        List.map
          (fun (name, m) ->
            let f k = J.num_mem k m ~default:nan in
            { name; unit_ = J.str_mem "unit" m ~default:"";
              s = { Sample.median = f "value"; p25 = f "p25"; p75 = f "p75";
                    n = int_of_float (J.num_mem "n" m ~default:1.0) };
              exact = J.bool_mem "exact" m ~default:false })
          fields
    | _ -> []
  in
  { workload = J.str_mem "workload" j ~default:"?";
    trace = J.bool_mem "trace" j ~default:false;
    set = J.str_mem "set" j ~default:"";
    kernel_order =
      (match J.mem "kernel_order" j with
      | Some (J.Arr xs) -> List.filter_map J.str xs
      | _ -> []);
    request_digest = J.str_mem "request_digest" j ~default:"";
    metrics }

(** Records from a file holding either a JSON array of records or one
    record per line. *)
let read_records path =
  let text = Surfaces.read_file path in
  let objs =
    match Manifest.Json.parse text with
    | Ok (Manifest.Json.Arr xs) -> xs
    | Ok (Manifest.Json.Obj _ as o) -> [ o ]
    | _ ->
        List.filter_map
          (fun line ->
            if String.trim line = "" then None
            else
              match Manifest.Json.parse line with
              | Ok j -> Some j
              | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))
          (String.split_on_char '\n' text)
  in
  List.map of_json objs
