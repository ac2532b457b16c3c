(* See stats.mli.  Plain global hashtables; no locking (the compiler is
   single-threaded per process, and the tuner's forked workers each get their
   own copy-on-write tables). *)

let counters_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let timers_tbl : (string, float * int) Hashtbl.t = Hashtbl.create 16

let reset () =
  Hashtbl.reset counters_tbl;
  Hashtbl.reset timers_tbl

let add k n =
  match Hashtbl.find_opt counters_tbl k with
  | Some v -> Hashtbl.replace counters_tbl k (v + n)
  | None -> Hashtbl.replace counters_tbl k n

let incr k = add k 1
let counter k = Option.value ~default:0 (Hashtbl.find_opt counters_tbl k)

let add_time k dt =
  match Hashtbl.find_opt timers_tbl k with
  | Some (t, n) -> Hashtbl.replace timers_tbl k (t +. dt, n + 1)
  | None -> Hashtbl.replace timers_tbl k (dt, 1)

let time k f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add_time k (Unix.gettimeofday () -. t0)) f

let counters () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters_tbl []
  |> List.sort compare

(* A snapshot is plain data (no closures), so it survives Marshal across the
   fork boundary: workers reset, do their task, snapshot, and ship the
   snapshot up the result pipe for the parent to merge. *)
type snapshot = {
  snap_counters : (string * int) list;
  snap_timers : (string * float * int) list;
}

let snapshot () =
  {
    snap_counters =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters_tbl [];
    snap_timers =
      Hashtbl.fold (fun k (t, n) acc -> (k, t, n) :: acc) timers_tbl [];
  }

let merge s =
  List.iter (fun (k, v) -> add k v) s.snap_counters;
  List.iter
    (fun (k, t, n) ->
      match Hashtbl.find_opt timers_tbl k with
      | Some (t0, n0) -> Hashtbl.replace timers_tbl k (t0 +. t, n0 + n)
      | None -> Hashtbl.replace timers_tbl k (t, n))
    s.snap_timers

let snapshot_counter s k =
  match List.assoc_opt k s.snap_counters with Some v -> v | None -> 0

let snapshot_counters s = List.sort compare s.snap_counters

let timers () =
  Hashtbl.fold (fun k (t, n) acc -> (k, t, n) :: acc) timers_tbl []
  |> List.sort compare

(* Hand-rolled JSON: keys are our own identifiers (no exotic characters),
   but escape anyway so the output is always well-formed. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json () =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"counters\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%s: %d" (json_string k) v))
    (counters ());
  Buffer.add_string b "}, \"timers\": {";
  List.iteri
    (fun i (k, t, n) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "%s: {\"seconds\": %.6f, \"calls\": %d}"
           (json_string k) t n))
    (timers ());
  Buffer.add_string b "}}";
  Buffer.contents b
