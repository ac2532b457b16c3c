(** In-memory span recorder for the traced corpus replay.

    A span is one call into a layer, timed from the benchmark's side of the
    call.  Spans nest through an explicit stack (the parent is the span open
    when the call began) and carry the {!Stats} counter delta of the call.
    Nothing is written while the benchmark runs; {!to_json} serializes the
    whole list once at exit. *)

type t = {
  id : int;
  name : string;
  kernel : string;
  round : int;
  parent : int;  (** -1 for a root *)
  t0 : float;
  t1 : float;
  counters : (string * int) list;  (** non-zero counter deltas *)
}

let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let counter_delta before after =
  List.filter_map
    (fun (k, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt k before) in
      if d <> 0 then Some (k, d) else None)
    after

(* Counter snapshots are taken outside [t0, t1], so their cost lands in the
   parent's self time: the root's self time is the tracing overhead plus the
   glue between calls. *)
let with_span ~kernel ~round name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let c0 = Stats.counters () in
  stack := id :: !stack;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    stack := List.tl !stack;
    let counters = counter_delta c0 (Stats.counters ()) in
    recorded := { id; name; kernel; round; parent; t0; t1; counters } :: !recorded
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let duration s = s.t1 -. s.t0

(** Self time of every span: its duration minus its direct children's. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

let to_json spans =
  let span_json s =
    Printf.sprintf
      "{\"id\": %d, \"name\": %s, \"kernel\": %s, \"round\": %d, \"parent\": \
       %d, \"start\": %.6f, \"end\": %.6f, \"counters\": %s}"
      s.id (Manifest.json_string s.name) (Manifest.json_string s.kernel) s.round
      s.parent s.t0 s.t1
      (Manifest.counters_to_json s.counters)
  in
  "[\n" ^ String.concat ",\n" (List.map span_json (List.rev spans)) ^ "\n]\n"
