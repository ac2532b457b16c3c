(* Arbitrary-precision signed integers with an immediate small form.

   A value in [-(2^61-1), 2^61-1] is an immediate native int.  Any other value
   is a pointer to a [big] record: sign and magnitude, the magnitude stored
   little-endian in base 2^30, with no trailing zero limb.  Every value has
   exactly one form — a result that fits is always made immediate — so
   [equal], polymorphic [=], [Hashtbl.hash] and [Marshal] all agree.

   The bound leaves one bit of headroom below [max_int]: the sum or
   difference of two small values never overflows a native int, and
   negation never leaves the range.  Limb products fit in OCaml's 63-bit
   native int (30 + 30 bits plus carries), so the big path needs no wider
   arithmetic. *)

type big = { sign : int; mag : int array }
type t

(* The two forms, told apart by the runtime tag bit.  These five lines are
   the only [Obj] use under lib/ and bin/ outside lib/store. *)
let is_small (x : t) = Obj.is_int (Obj.repr x)
let small (x : t) : int = Obj.obj (Obj.repr x)
let of_small (n : int) : t = Obj.obj (Obj.repr n)
let big (x : t) : big = Obj.obj (Obj.repr x)
let of_big (b : big) : t = Obj.obj (Obj.repr b)

let max_small = (1 lsl 61) - 1
let fits n = n >= -max_small && n <= max_small

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

(* ---------- magnitude helpers (arrays of limbs, little-endian) ---------- *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_cmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else loop (i - 1)
    in
    loop (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  mag_normalize r

(* precondition: a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let v = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- v land base_mask;
          carry := v lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let v = r.(!k) + !carry in
          r.(!k) <- v land base_mask;
          carry := v lsr base_bits;
          incr k
        done
      end
    done;
    mag_normalize r
  end

(* Short division by a single positive limb; returns (quotient, remainder). *)
let mag_divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

(* Binary long division for multi-limb divisors: scan the dividend's bits
   from most to least significant, maintaining remainder [r] < divisor. *)
let mag_divmod a b =
  let c = mag_cmp a b in
  if c < 0 then ([||], a)
  else if Array.length b = 1 then begin
    let q, r = mag_divmod_limb a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    let la = Array.length a in
    let nbits = la * base_bits in
    let q = Array.make la 0 in
    (* remainder scratch: at most length of b + 1 limbs *)
    let lr = Array.length b + 1 in
    let r = Array.make lr 0 in
    let rlen = ref 0 in
    (* r := 2*r + bit, in place *)
    let shift_in bit =
      let carry = ref bit in
      for i = 0 to !rlen - 1 do
        let v = (r.(i) lsl 1) lor !carry in
        r.(i) <- v land base_mask;
        carry := v lsr base_bits
      done;
      if !carry <> 0 then begin
        r.(!rlen) <- !carry;
        incr rlen
      end
    in
    let r_ge_b () =
      let lb = Array.length b in
      if !rlen <> lb then !rlen > lb
      else
        let rec loop i =
          if i < 0 then true
          else if r.(i) <> b.(i) then r.(i) > b.(i)
          else loop (i - 1)
        in
        loop (lb - 1)
    in
    let r_sub_b () =
      let lb = Array.length b in
      let borrow = ref 0 in
      for i = 0 to !rlen - 1 do
        let d = r.(i) - (if i < lb then b.(i) else 0) - !borrow in
        if d < 0 then begin
          r.(i) <- d + base;
          borrow := 1
        end
        else begin
          r.(i) <- d;
          borrow := 0
        end
      done;
      while !rlen > 0 && r.(!rlen - 1) = 0 do
        decr rlen
      done
    in
    for bit = nbits - 1 downto 0 do
      let limb = bit / base_bits and off = bit mod base_bits in
      shift_in ((a.(limb) lsr off) land 1);
      if r_ge_b () then begin
        r_sub_b ();
        q.(limb) <- q.(limb) lor (1 lsl off)
      end
    done;
    (mag_normalize q, mag_normalize (Array.sub r 0 !rlen))
  end

(* --------------------------- the two forms --------------------------- *)

(* The limb record of any native int, [min_int] included.  Not normalized:
   callers either know the value does not fit or pass it straight to the
   limb arithmetic. *)
let big_of_int n =
  let sign = Stdlib.compare n 0 in
  (* peel limbs with arithmetic that stays in the negative range, where
     [min_int] has a representable magnitude *)
  let rec limbs v acc =
    if v = 0 then Array.of_list (List.rev acc)
    else limbs (-((-v) lsr base_bits)) ((-v land base_mask) :: acc)
  in
  { sign; mag = limbs (if n > 0 then -n else n) [] }

let to_big x = if is_small x then big_of_int (small x) else big x

(* The one normalization point of the limb path: a magnitude below 2^61 (at
   most two limbs, or three with a top limb of 1) becomes immediate. *)
let of_mag sign mag =
  let n = Array.length mag in
  if n = 0 then of_small 0
  else if n <= 2 || (n = 3 && mag.(2) < 2) then begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    of_small (if sign < 0 then - !v else !v)
  end
  else of_big { sign; mag }

let of_int n = if fits n then of_small n else of_big (big_of_int n)

(* ------------------------------ public API ------------------------------ *)

let zero = of_small 0
let one = of_small 1
let minus_one = of_small (-1)

let to_int_opt x =
  if is_small x then Some (small x)
  else begin
    let b = big x in
    let n = Array.length b.mag in
    if n > 3 then None
    else begin
      (* the magnitude, negated: the negative range also holds [min_int] *)
      let rec value i acc =
        if i < 0 then Some acc
        else if acc < Stdlib.min_int asr base_bits then None
        else
          let shifted = acc lsl base_bits in
          if shifted < Stdlib.min_int + b.mag.(i) then None
          else value (i - 1) (shifted - b.mag.(i))
      in
      match value (n - 1) 0 with
      | Some v when b.sign < 0 -> Some v
      | Some v when v <> Stdlib.min_int -> Some (-v)
      | _ -> None
    end
  end

let to_int x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int: value does not fit in a native int"

let sign x = if is_small x then Stdlib.compare (small x) 0 else (big x).sign
let is_zero x = x == zero
let is_one x = x == one

let big_compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then mag_cmp a.mag b.mag
  else mag_cmp b.mag a.mag

(* A big value lies outside the small range, so its sign alone orders it
   against a small one. *)
let compare a b =
  if is_small a then
    if is_small b then Int.compare (small a) (small b) else -(big b).sign
  else if is_small b then (big a).sign
  else big_compare (big a) (big b)

let equal a b =
  a == b || ((not (is_small a)) && (not (is_small b)) && big_compare (big a) (big b) = 0)

let hash (x : t) = Hashtbl.hash x

let neg x =
  if is_small x then of_small (- small x)
  else
    let b = big x in
    of_big { b with sign = - b.sign }

let abs x =
  if is_small x then of_small (Stdlib.abs (small x))
  else
    let b = big x in
    if b.sign > 0 then x else of_big { b with sign = 1 }

let big_add a b =
  if a.sign = 0 then of_mag b.sign b.mag
  else if b.sign = 0 then of_mag a.sign a.mag
  else if a.sign = b.sign then of_mag a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_cmp a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then of_mag a.sign (mag_sub a.mag b.mag)
    else of_mag b.sign (mag_sub b.mag a.mag)
  end

let add a b =
  if is_small a && is_small b then of_int (small a + small b)
  else big_add (to_big a) (to_big b)

let sub a b =
  if is_small a && is_small b then of_int (small a - small b)
  else add a (neg b)

(* Below 2^31 in magnitude the product is below 2^62 and cannot overflow;
   above, the division check catches a wrapped product. *)
let mul a b =
  if is_small a && is_small b then begin
    let x = small a and y = small b in
    let p = x * y in
    if Stdlib.abs x lor Stdlib.abs y < 1 lsl 31 || x = 0 || p / x = y then
      of_int p
    else
      of_mag (if x lxor y < 0 then -1 else 1)
        (mag_mul (big_of_int x).mag (big_of_int y).mag)
  end
  else if is_zero a || is_zero b then zero
  else
    let a = to_big a and b = to_big b in
    of_mag (a.sign * b.sign) (mag_mul a.mag b.mag)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if is_small a && is_small b then
    (of_small (small a / small b), of_small (small a mod small b))
  else if is_small a then (zero, a) (* |a| <= max_small < |b| *)
  else begin
    let a = big a and b = to_big b in
    let qm, rm = mag_divmod a.mag b.mag in
    (of_mag (a.sign * b.sign) qm, of_mag a.sign rm)
  end

let div a b =
  if is_small a && is_small b && not (is_zero b) then of_small (small a / small b)
  else fst (divmod a b)

let rem a b =
  if is_small a && is_small b && not (is_zero b) then of_small (small a mod small b)
  else snd (divmod a b)

let fdiv a b =
  let q, r = divmod a b in
  if (not (is_zero r)) && sign r <> sign b then sub q one else q

let fmod a b =
  let r = rem a b in
  if (not (is_zero r)) && sign r <> sign b then add r b else r

let cdiv a b =
  let q, r = divmod a b in
  if (not (is_zero r)) && sign r = sign b then add q one else q

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

(* Euclid on the limbs, finishing natively once both magnitudes are below
   2^60 (two limbs). *)
let rec mag_gcd a b =
  if Array.length b = 0 then of_mag 1 a
  else if Array.length a <= 2 && Array.length b <= 2 then
    of_small (int_gcd (small (of_mag 1 a)) (small (of_mag 1 b)))
  else mag_gcd b (snd (mag_divmod a b))

let gcd a b =
  if is_small a && is_small b then
    of_small (int_gcd (Stdlib.abs (small a)) (Stdlib.abs (small b)))
  else mag_gcd (to_big a).mag (to_big b).mag

let lcm a b =
  if is_zero a || is_zero b then zero else abs (div (mul a b) (gcd a b))

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let mul_int t n = mul t (of_int n)
let add_int t n = add t (of_int n)

let pow t n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one t n

(* The solver layers print every coefficient (canonical forms, digests,
   cache keys), and almost all of them are small: those strings are shared
   from a table instead of formatted each time. *)
let table_bound = 256
let small_strings = Array.init ((2 * table_bound) + 1) (fun i -> string_of_int (i - table_bound))

let big_to_string b =
  let chunks = ref [] in
  let m = ref b.mag in
  while Array.length !m > 0 do
    let q, r = mag_divmod_limb !m 1_000_000_000 in
    chunks := r :: !chunks;
    m := q
  done;
  let buf = Buffer.create 32 in
  if b.sign < 0 then Buffer.add_char buf '-';
  (match !chunks with
  | [] -> assert false
  | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
  Buffer.contents buf

let to_string x =
  if is_small x then begin
    let n = small x in
    if n >= -table_bound && n <= table_bound then small_strings.(n + table_bound)
    else string_of_int n
  end
  else big_to_string (big x)

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Ops = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( ! ) = of_int
end
