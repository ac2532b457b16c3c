(* Command-line value converters shared by plutocc and plutod. *)

open Cmdliner

let of_parser parse =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), Format.pp_print_int)

(* "64M", "512k", "2G" or plain bytes. *)
let size =
  of_parser (fun spec ->
      let s = String.trim spec in
      let n = String.length s in
      let mult, digits =
        match if n = 0 then ' ' else s.[n - 1] with
        | 'k' | 'K' -> (1024, String.sub s 0 (n - 1))
        | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
        | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
        | _ -> (1, s)
      in
      match int_of_string_opt (String.trim digits) with
      | Some v when v > 0 -> Ok (v * mult)
      | _ -> Error (Printf.sprintf "%S is not a positive size (try 64M, 512K, 2G)" spec))

(* An integer in [min, Driver.int_max]: the range every integer compile
   option is held to, on the command line as on the daemon's wire. *)
let int_at_least min =
  of_parser (fun s ->
      match int_of_string_opt s with
      | Some v when v >= min && v <= Driver.int_max -> Ok v
      | _ ->
          Error
            (Printf.sprintf "%S is not an integer in %s" s (Driver.int_range ~min)))
