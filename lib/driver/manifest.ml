(** The shared compile-result schema: one entry per compiled source, one
    manifest per run — and exactly one JSON encoding of both.

    [plutocc --batch] writes manifests of these entries to disk and the
    compile daemon ([plutod], {!Server}) answers every request with one
    entry on the wire, so the two surfaces can never drift: both go through
    {!entry_to_json}.  The daemon additionally needs to *parse* requests and
    responses, so the minimal JSON reader lives here too ({!Json}), next to
    the encoders it must stay in sync with. *)

type status = Success | Degraded | Failed

type entry = {
  e_file : string;
  e_status : status;
  e_rung : string;  (** "fast" | "auto" | "feautrier" | "identity" | "none" *)
  e_diags : Diag.t list;
  e_code : string option;  (** rendered C, absent on failure *)
  e_output : string option;  (** where the parent wrote it, if [out_dir] *)
  e_elapsed_s : float;
  e_retried : bool;  (** a crashed worker attempt preceded this result *)
}

type manifest = {
  m_jobs : int;
  m_cache_dir : string option;
  m_entries : entry list;
  m_elapsed_s : float;
  m_counters : (string * int) list;  (** aggregated across all workers *)
}

(* The one place an entry's status is derived: no code is a failure, code
   from a fallback rung a degradation. *)
let entry ?(retried = false) ~file ~rung ~diags ~elapsed code =
  let status =
    match code with
    | None -> Failed
    | Some _ -> if Driver.degraded diags then Degraded else Success
  in
  {
    e_file = file;
    e_status = status;
    e_rung = rung;
    e_diags = diags;
    e_code = code;
    e_output = None;
    e_elapsed_s = elapsed;
    e_retried = retried;
  }

let status_name = function
  | Success -> "ok"
  | Degraded -> "degraded"
  | Failed -> "error"

let status_of_name = function
  | "ok" -> Some Success
  | "degraded" -> Some Degraded
  | "error" -> Some Failed
  | _ -> None

(* ------------------------------- encoding -------------------------------- *)

let needs_escape c = c < ' ' || c = '"' || c = '\\'

(* The escape of a byte for which [needs_escape] holds. *)
let json_escape = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | c -> Printf.sprintf "\\u%04x" (Char.code c)

(* Length of [s] encoded as a JSON string, quotes included. *)
let json_length s =
  let n = ref (String.length s + 2) in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then n := !n + String.length (json_escape c) - 1
  done;
  !n

(* Append [s] as a JSON string: the runs between escapes are copied whole. *)
let add_json_string b s =
  Buffer.add_char b '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring b s !run (i - !run);
      Buffer.add_string b (json_escape c);
      run := i + 1
    end
  done;
  Buffer.add_substring b s !run (String.length s - !run);
  Buffer.add_char b '"'

let json_string s =
  let b = Buffer.create (json_length s) in
  add_json_string b s;
  Buffer.contents b

let add_diag b (d : Diag.t) =
  Buffer.add_string b "{\"severity\": ";
  add_json_string b (Diag.severity_name d.Diag.sev);
  Buffer.add_string b ", \"code\": ";
  add_json_string b d.Diag.code;
  Buffer.add_string b ", \"message\": ";
  add_json_string b d.Diag.message;
  Buffer.add_char b '}'

(* [extra] appends raw (already-encoded) fields into the same object: the
   daemon tacks its "code"/"cached"/"coalesced"/"stats" fields onto the
   exact encoding the batch manifest uses.  The daemon sends one of these
   per request, the rendered code included, so the whole encoding goes into
   one buffer sized up front: no intermediate copy of the code. *)
let entry_to_json ?(include_code = false) ?(extra = []) e =
  let opt_length = function None -> 4 | Some s -> json_length s in
  let size =
    160 + json_length e.e_file + json_length e.e_rung + opt_length e.e_output
    + List.fold_left
        (fun n (d : Diag.t) ->
          n + 40 + json_length (Diag.severity_name d.Diag.sev)
          + json_length d.Diag.code + json_length d.Diag.message)
        0 e.e_diags
    + (if include_code then 12 + opt_length e.e_code else 0)
    + List.fold_left
        (fun n (k, raw) -> n + 4 + json_length k + String.length raw)
        0 extra
  in
  let b = Buffer.create size in
  let add_opt = function
    | None -> Buffer.add_string b "null"
    | Some s -> add_json_string b s
  in
  Buffer.add_string b "{\"file\": ";
  add_json_string b e.e_file;
  Buffer.add_string b ", \"status\": ";
  add_json_string b (status_name e.e_status);
  Buffer.add_string b ", \"rung\": ";
  add_json_string b e.e_rung;
  Buffer.add_string b ", \"output\": ";
  add_opt e.e_output;
  Printf.bprintf b ", \"elapsed_s\": %.6f, \"retried\": %b, \"diagnostics\": ["
    e.e_elapsed_s e.e_retried;
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string b ", ";
      add_diag b d)
    e.e_diags;
  Buffer.add_char b ']';
  if include_code then begin
    Buffer.add_string b ", \"code\": ";
    add_opt e.e_code
  end;
  List.iter
    (fun (k, raw) ->
      Buffer.add_string b ", ";
      add_json_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b raw)
    extra;
  Buffer.add_char b '}';
  Buffer.contents b

let counters_to_json counters =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%s: %d" (json_string k) v))
    (List.sort compare counters);
  Buffer.add_char b '}';
  Buffer.contents b

let manifest_to_json m =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" m.m_jobs);
  Buffer.add_string b
    (Printf.sprintf "  \"cache_dir\": %s,\n"
       (match m.m_cache_dir with None -> "null" | Some d -> json_string d));
  Buffer.add_string b (Printf.sprintf "  \"elapsed_s\": %.6f,\n" m.m_elapsed_s);
  Buffer.add_string b "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b ("    " ^ entry_to_json e))
    m.m_entries;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b ("  \"stats\": " ^ counters_to_json m.m_counters);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* -------------------------------- parsing -------------------------------- *)

(* A minimal JSON reader for the daemon protocol: requests and responses are
   one object per line, written either by {!entry_to_json} above or by the
   [plutocc --connect] client.  Recursive descent, no dependencies; numbers
   are floats (the protocol never needs 2^53-scale integers). *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  let parse_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then bad "unexpected end of input"
      else begin
        let c = s.[!pos] in
        incr pos;
        c
      end
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      let g = next () in
      if g <> c then bad "expected %C at offset %d, got %C" c (!pos - 1) g
    in
    let lit word v =
      String.iter expect word;
      v
    in
    let hex4 () =
      let v = ref 0 in
      for _ = 1 to 4 do
        let c = next () in
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> bad "bad hex digit %C in \\u escape" c
        in
        v := (!v * 16) + d
      done;
      !v
    in
    let add_utf8 b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let string_body () =
      let b = Buffer.create 32 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' ->
            (match next () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                let cp = hex4 () in
                (* surrogate pair *)
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  expect '\\';
                  expect 'u';
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    bad "unpaired UTF-16 surrogate"
                  else
                    add_utf8 b
                      (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else add_utf8 b cp
            | c -> bad "bad escape \\%C" c);
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ()
    in
    let number () =
      let start = !pos in
      let consume () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
            incr pos;
            true
        | _ -> false
      in
      while consume () do
        ()
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some f -> Num f
      | None -> bad "bad number %S" lit
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | None -> bad "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec field () =
              skip_ws ();
              expect '"';
              let k = string_body () in
              skip_ws ();
              expect ':';
              let v = value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match next () with
              | ',' -> field ()
              | '}' -> ()
              | c -> bad "expected ',' or '}' in object, got %C" c
            in
            field ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let items = ref [] in
            let rec item () =
              let v = value () in
              items := v :: !items;
              skip_ws ();
              match next () with
              | ',' -> item ()
              | ']' -> ()
              | c -> bad "expected ',' or ']' in array, got %C" c
            in
            item ();
            Arr (List.rev !items)
          end
      | Some '"' ->
          incr pos;
          Str (string_body ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | Some c -> bad "unexpected character %C" c
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then bad "trailing bytes after JSON value (offset %d)" !pos;
    v

  let parse s =
    match parse_string s with v -> Ok v | exception Bad m -> Error m

  let mem k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let str = function Str s -> Some s | _ -> None
  let num = function Num f -> Some f | _ -> None
  let bool = function Bool b -> Some b | _ -> None

  let str_mem k j ~default =
    match mem k j with Some (Str s) -> s | _ -> default

  let bool_mem k j ~default =
    match mem k j with Some (Bool b) -> b | _ -> default

  let num_mem k j ~default =
    match mem k j with Some (Num f) -> f | _ -> default
end

(* --------------------------- entry round trip ----------------------------- *)

let diag_of_json j =
  let sev =
    match Json.str_mem "severity" j ~default:"error" with
    | "warning" -> Diag.Warning
    | "note" -> Diag.Note
    | _ -> Diag.Error
  in
  let code = Json.str_mem "code" j ~default:"unknown" in
  let message = Json.str_mem "message" j ~default:"" in
  { Diag.sev; code; span = None; message }

(** Parse an entry object written by {!entry_to_json} back into an {!entry}
    (spans are not carried on the wire; they come back as [None]). *)
let entry_of_json j =
  match Json.mem "status" j with
  | None -> Error "entry: missing \"status\""
  | Some s -> (
      match Option.bind (Json.str s) status_of_name with
      | None -> Error "entry: bad \"status\""
      | Some e_status ->
          let e_diags =
            match Json.mem "diagnostics" j with
            | Some (Json.Arr ds) -> List.map diag_of_json ds
            | _ -> []
          in
          Ok
            {
              e_file = Json.str_mem "file" j ~default:"<wire>";
              e_status;
              e_rung = Json.str_mem "rung" j ~default:"none";
              e_diags;
              e_code = Option.bind (Json.mem "code" j) Json.str;
              e_output = Option.bind (Json.mem "output" j) Json.str;
              e_elapsed_s = Json.num_mem "elapsed_s" j ~default:0.0;
              e_retried = Json.bool_mem "retried" j ~default:false;
            })

(* ------------------------- compile options wire --------------------------- *)

(* The daemon must compile exactly as a standalone [plutocc] with the same
   flags would, so the client serializes every field of
   {!Driver.option_fields} and the decoder starts from
   [Driver.default_options] and overrides exactly the fields present.  The
   rendering is canonical (table order, no whitespace variation): the
   daemon's dedup digest and the tuner's store key hash it directly. *)
let options_to_json =
  (* keys are escaped once: the daemon encodes on every request *)
  let keys =
    List.map (fun (Driver.Field f as row) -> (json_string f.key ^ ": ", row)) Driver.option_fields
  in
  let value (type a) b (f : a Driver.field) (v : a) =
    let int i = Buffer.add_string b (string_of_int i) in
    match (f.kind, v) with
    | Driver.Bool, v -> Buffer.add_string b (string_of_bool v)
    | Driver.Int, i -> int i
    | (Driver.Int_opt, None | Driver.Ints_opt, None) -> Buffer.add_string b "null"
    | Driver.Int_opt, Some i -> int i
    | Driver.Ints_opt, Some a ->
        Buffer.add_char b '[';
        Array.iteri (fun k i -> if k > 0 then Buffer.add_char b ','; int i) a;
        Buffer.add_char b ']'
  in
  fun (o : Driver.options) ->
    let b = Buffer.create 256 in
    Buffer.add_char b '{';
    List.iteri
      (fun i (key, Driver.Field f) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b key;
        value b f (f.get o))
      keys;
    Buffer.add_char b '}';
    Buffer.contents b

(* A wrongly typed, out-of-range or unknown field is an error, never
   silently ignored: the daemon answers it with a [bad-request] entry. *)
let options_of_json j =
  let decode (type a) (f : a Driver.field) (v : Json.t) : (a, string) result =
    let int = function
      | Json.Num x
        when Float.is_integer x && x >= float f.min && x <= float Driver.int_max
        ->
          Some (int_of_float x)
      | _ -> None
    in
    let ints = function
      | Json.Arr xs ->
          let is = List.filter_map int xs in
          if List.compare_lengths is xs = 0 then Some (Array.of_list is) else None
      | _ -> None
    in
    let nullable dec = function
      | Json.Null -> Some None
      | v -> Option.map Option.some (dec v)
    in
    (* the message is built only on failure: the daemon decodes every request *)
    let expect what = function
      | Some x -> Ok x
      | None ->
          Error
            (Printf.sprintf "%S: expected %s" f.key (what (Driver.int_range ~min:f.min)))
    in
    match f.kind with
    | Driver.Bool -> expect (fun _ -> "true or false") (Json.bool v)
    | Driver.Int -> expect (fun r -> "an integer in " ^ r) (int v)
    | Driver.Int_opt -> expect (fun r -> "null or an integer in " ^ r) (nullable int v)
    | Driver.Ints_opt ->
        expect (fun r -> "null or an array of integers in " ^ r) (nullable ints v)
  in
  let row k = List.find_opt (fun (Driver.Field f) -> f.key = k) Driver.option_fields in
  let rec decode_all o = function
    | [] -> Ok o
    | (k, v) :: rest -> (
        match row k with
        | None -> Error (Printf.sprintf "unknown option %S" k)
        | Some (Driver.Field f) -> (
            match decode f v with
            | Ok x -> decode_all (f.set o x) rest
            | Error m -> Error m))
  in
  match j with
  | Json.Obj fields -> decode_all Driver.default_options fields
  | _ -> Error "\"options\" must be an object"
