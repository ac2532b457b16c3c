(* See memo.mli. *)

type 'v entry = { value : 'v; mutable tick : int }

type 'v t = {
  kind : string;
  version : string option;
  budget : int option;  (* None: a solver-pool table *)
  hits : string;
  misses : string;
  store_hits : string option;
  evictions : string option;
  tbl : (string, 'v entry) Hashtbl.t;
}

type pooled = Pooled : 'v t -> pooled
type journal = (string * string * Obj.t) list

let pool : (string, pooled) Hashtbl.t = Hashtbl.create 8
let pool_budget = ref 100_000
let set_budget n = pool_budget := max 16 n
let journaling = ref false
let journaled : journal ref = ref []

(* One clock for every table: only the order of ticks within a table
   matters, and that order is the order of its events. *)
let clock = ref 0

let tick () =
  incr clock;
  !clock

let create ?version ?budget ?store_hits ?evictions ~kind ~hits ~misses () =
  let t =
    {
      kind;
      version;
      budget;
      hits;
      misses;
      store_hits;
      evictions;
      tbl = Hashtbl.create 1024;
    }
  in
  if budget = None then begin
    if Hashtbl.mem pool kind then invalid_arg ("Memo.create: duplicate kind " ^ kind);
    Hashtbl.replace pool kind (Pooled t)
  end;
  t

(* Past the budget, evict the oldest entries down to budget - budget/8 so
   the next trim is many inserts away. *)
let trim t =
  let budget = match t.budget with Some b -> max 0 b | None -> !pool_budget in
  let n = Hashtbl.length t.tbl in
  if n <= budget then 0
  else begin
    let by_age = Array.make n (0, "") in
    let i = ref 0 in
    Hashtbl.iter
      (fun k e ->
        by_age.(!i) <- (e.tick, k);
        incr i)
      t.tbl;
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) by_age;
    let drop = n - (budget - (budget / 8)) in
    for j = 0 to drop - 1 do
      Hashtbl.remove t.tbl (snd by_age.(j))
    done;
    Option.iter (fun c -> Stats.add c drop) t.evictions;
    drop
  end

let install t key v =
  Hashtbl.replace t.tbl key { value = v; tick = tick () };
  ignore (trim t);
  if !journaling && t.budget = None then
    journaled := (t.kind, key, Obj.repr v) :: !journaled

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      Stats.incr t.hits;
      e.tick <- tick ();
      Some e.value
  | None -> (
      Stats.incr t.misses;
      let stored =
        match t.version with
        | None -> Store.read ~kind:t.kind ~key
        | Some version -> Store.read_versioned ~version ~kind:t.kind ~key
      in
      match stored with
      | Some v ->
          Option.iter Stats.incr t.store_hits;
          install t key v;
          Some v
      | None -> None)

let add t key v =
  (match t.version with
  | None -> Store.write ~kind:t.kind ~key v
  | Some version -> Store.write_versioned ~version ~kind:t.kind ~key v);
  install t key v

let lookup t key compute =
  match find t key with
  | Some v -> v
  | None ->
      let v = compute () in
      add t key v;
      v

let clear t = Hashtbl.reset t.tbl
let length t = Hashtbl.length t.tbl
let entry_count () = Hashtbl.fold (fun _ (Pooled t) n -> n + length t) pool 0

let set_journal on =
  journaling := on;
  journaled := []

let take_journal () =
  let j = !journaled in
  journaled := [];
  j

let journal_length = List.length

let absorb (j : journal) =
  List.iter
    (fun (kind, key, v) ->
      match Hashtbl.find_opt pool kind with
      | Some (Pooled t) when not (Hashtbl.mem t.tbl key) ->
          Hashtbl.add t.tbl key { value = Obj.obj v; tick = tick () }
      | _ -> ())
    j;
  Hashtbl.fold (fun _ (Pooled t) n -> n + trim t) pool 0
