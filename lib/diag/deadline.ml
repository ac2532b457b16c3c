(* See deadline.mli.  One absolute deadline for the whole process: the
   compile is single-threaded, and a forked worker inherits (and then owns)
   its copy. *)

exception Expired

let grace_s = 1.0

let current : float option ref = ref None

let within allowance f =
  match allowance with
  | None -> f ()
  | Some s ->
      let prev = !current in
      let d = Unix.gettimeofday () +. s in
      current := Some (match prev with Some p -> Float.min p d | None -> d);
      Fun.protect ~finally:(fun () -> current := prev) f

(* [>=]: a zero allowance has expired the moment it is armed, even when the
   clock has not ticked between arming and checking. *)
let check () =
  match !current with
  | Some d when Unix.gettimeofday () >= d -> raise Expired
  | _ -> ()
