(** The OpenMP shape of generated code, read off the loop AST: whether the
    outermost loop runs in parallel and which [reduction(op:var)] clauses
    the parallel loops carry.  Shared by the bench's reductions table and
    the [reduction] check of [ci/check.ml]. *)

let rec par_levels = function
  | Codegen.For { level; parallel; body; _ } ->
      (if parallel then [ level ] else []) @ List.concat_map par_levels body
  | Codegen.Leaf _ -> []

let outer_parallel (c : Codegen.t) =
  List.mem 0 (List.concat_map par_levels c.Codegen.body)

(** Every clause as ["op:var"], sorted, without duplicates. *)
let clauses (c : Codegen.t) =
  List.sort_uniq compare
    (List.concat_map
       (List.map (fun (o, v) -> o ^ ":" ^ v))
       (Array.to_list c.Codegen.reductions))
