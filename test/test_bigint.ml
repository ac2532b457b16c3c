(* Unit and property tests for the arbitrary-precision integers. *)

let bi = Bigint.of_int
let s = Bigint.to_string

let check_str name expected actual = Alcotest.(check string) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let test_of_to_int () =
  List.iter
    (fun n -> check_int (string_of_int n) n (Bigint.to_int (bi n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) + 17; -((1 lsl 45) + 3); max_int; 1 - max_int ]

let test_string_roundtrip () =
  List.iter
    (fun str -> check_str str str (s (Bigint.of_string str)))
    [
      "0";
      "1";
      "-1";
      "999999999";
      "1000000000";
      "123456789012345678901234567890";
      "-987654321987654321987654321";
    ]

let test_add_sub () =
  let a = Bigint.of_string "123456789012345678901234567890" in
  let b = Bigint.of_string "-98765432109876543210" in
  check_str "a+b" "123456788913580246791358024680" (s (Bigint.add a b));
  check_str "a-b" "123456789111111111011111111100" (s (Bigint.sub a b));
  check_str "b-a" "-123456789111111111011111111100" (s (Bigint.sub b a));
  check_str "a-a" "0" (s (Bigint.sub a a))

let test_mul () =
  let a = Bigint.of_string "123456789012345678901234567890" in
  let b = Bigint.of_string "-98765432109876543210" in
  check_str "a*b" "-12193263113702179522496570642237463801111263526900"
    (s (Bigint.mul a b));
  check_str "a*0" "0" (s (Bigint.mul a Bigint.zero));
  check_str "a*1" (s a) (s (Bigint.mul a Bigint.one))

let test_divmod_matches_native () =
  for x = -60 to 60 do
    for y = -60 to 60 do
      if y <> 0 then begin
        let q, r = Bigint.divmod (bi x) (bi y) in
        check_int (Printf.sprintf "%d/%d" x y) (x / y) (Bigint.to_int q);
        check_int (Printf.sprintf "%d mod %d" x y) (x mod y) (Bigint.to_int r)
      end
    done
  done

let test_fdiv_cdiv () =
  (* floor/ceil division across sign combinations *)
  let cases =
    [ (7, 2, 3, 4); (-7, 2, -4, -3); (7, -2, -4, -3); (-7, -2, 3, 4); (6, 3, 2, 2) ]
  in
  List.iter
    (fun (a, b, f, c) ->
      check_int (Printf.sprintf "fdiv %d %d" a b) f (Bigint.to_int (Bigint.fdiv (bi a) (bi b)));
      check_int (Printf.sprintf "cdiv %d %d" a b) c (Bigint.to_int (Bigint.cdiv (bi a) (bi b))))
    cases

let test_fmod_nonneg () =
  for a = -20 to 20 do
    for b = 1 to 7 do
      let r = Bigint.to_int (Bigint.fmod (bi a) (bi b)) in
      Alcotest.(check bool)
        (Printf.sprintf "fmod %d %d in range" a b)
        true
        (r >= 0 && r < b);
      check_int "fmod consistency" a ((Bigint.to_int (Bigint.fdiv (bi a) (bi b)) * b) + r)
    done
  done

let test_gcd_lcm () =
  check_int "gcd 462 1071" 21 (Bigint.to_int (Bigint.gcd (bi 462) (bi (-1071))));
  check_int "gcd 0 5" 5 (Bigint.to_int (Bigint.gcd Bigint.zero (bi 5)));
  check_int "gcd 0 0" 0 (Bigint.to_int (Bigint.gcd Bigint.zero Bigint.zero));
  check_int "lcm 4 6" 12 (Bigint.to_int (Bigint.lcm (bi 4) (bi 6)));
  check_int "lcm 0 6" 0 (Bigint.to_int (Bigint.lcm Bigint.zero (bi 6)))

let test_compare () =
  Alcotest.(check bool) "lt" true (Bigint.compare (bi (-5)) (bi 3) < 0);
  Alcotest.(check bool) "big vs small" true
    (Bigint.compare (Bigint.of_string "10000000000000000000000") (bi max_int) > 0);
  Alcotest.(check bool) "neg big" true
    (Bigint.compare (Bigint.of_string "-10000000000000000000000") (bi min_int) < 0)

let test_pow () =
  check_str "2^100" "1267650600228229401496703205376" (s (Bigint.pow (bi 2) 100));
  check_str "x^0" "1" (s (Bigint.pow (bi 12345) 0));
  check_str "(-3)^3" "-27" (s (Bigint.pow (bi (-3)) 3))

(* ------------------------------- properties ------------------------------- *)

let arb_big =
  (* random signed decimal strings up to 40 digits *)
  QCheck.make
    ~print:Bigint.to_string
    QCheck.Gen.(
      let* ndig = int_range 1 40 in
      let* digits =
        list_repeat ndig (map Char.chr (int_range (Char.code '0') (Char.code '9')))
      in
      let* neg = bool in
      let str = String.of_seq (List.to_seq digits) in
      let v = Bigint.of_string str in
      return (if neg then Bigint.neg v else v))

let prop_ring =
  QCheck.Test.make ~name:"add/mul ring laws" ~count:300
    (QCheck.triple arb_big arb_big arb_big)
    (fun (a, b, c) ->
      let open Bigint in
      equal (add a b) (add b a)
      && equal (mul a b) (mul b a)
      && equal (add (add a b) c) (add a (add b c))
      && equal (mul (mul a b) c) (mul a (mul b c))
      && equal (mul a (add b c)) (add (mul a b) (mul a c)))

let prop_divmod =
  QCheck.Test.make ~name:"divmod invariants" ~count:500
    (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (Bigint.is_zero b));
      let q, r = Bigint.divmod a b in
      Bigint.equal a (Bigint.add (Bigint.mul q b) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
      && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:300 arb_big (fun a ->
      Bigint.equal a (Bigint.of_string (Bigint.to_string a)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:300
    (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      let g = Bigint.gcd a b in
      if Bigint.is_zero g then Bigint.is_zero a && Bigint.is_zero b
      else
        Bigint.is_zero (Bigint.rem a g)
        && Bigint.is_zero (Bigint.rem b g)
        && Bigint.sign g > 0)

(* Values hugging the base-2^30 digit boundaries — ±(2^30)^k ± small — where
   carry propagation, borrow chains and limb normalization bugs live.  The
   generic [arb_big] almost never lands on them. *)
let arb_boundary =
  QCheck.make ~print:Bigint.to_string
    QCheck.Gen.(
      let* k = int_range 0 4 in
      let* off = int_range (-3) 3 in
      let* neg = bool in
      let v =
        Bigint.add
          (Bigint.pow (Bigint.of_int (1 lsl 30)) k)
          (Bigint.of_int off)
      in
      return (if neg then Bigint.neg v else v))

let prop_boundary_string_roundtrip =
  QCheck.Test.make ~name:"boundary: string roundtrip" ~count:200 arb_boundary
    (fun a -> Bigint.equal a (Bigint.of_string (Bigint.to_string a)))

let prop_boundary_mul_div_cancel =
  QCheck.Test.make ~name:"boundary: (a*b)/b = a" ~count:300
    (QCheck.pair arb_boundary arb_boundary)
    (fun (a, b) ->
      QCheck.assume (not (Bigint.is_zero b));
      let p = Bigint.mul a b in
      Bigint.equal (Bigint.div p b) a && Bigint.is_zero (Bigint.rem p b))

let prop_boundary_add_sub_carry =
  QCheck.Test.make ~name:"boundary: add/sub carry chains" ~count:300
    (QCheck.pair arb_boundary arb_boundary)
    (fun (a, b) ->
      let open Bigint in
      equal (sub (add a b) b) a
      && equal (add (sub a b) b) a
      && equal (neg (sub a b)) (sub b a)
      && compare (abs (add a b)) (add (abs a) (abs b)) <= 0)

(* All four division conventions on all four sign combinations: truncation
   toward zero (divmod), floor (fdiv/fmod), ceiling (cdiv). *)
let prop_boundary_division_signs =
  QCheck.Test.make ~name:"boundary: division sign conventions" ~count:400
    (QCheck.pair arb_boundary arb_boundary)
    (fun (a, b) ->
      QCheck.assume (not (Bigint.is_zero b));
      let open Bigint in
      let q, r = divmod a b in
      let fq = fdiv a b and fr = fmod a b in
      let cq = cdiv a b in
      (* truncated: a = q*b + r, |r| < |b|, r carries a's sign *)
      equal a (add (mul q b) r)
      && compare (abs r) (abs b) < 0
      && (is_zero r || sign r = sign a)
      (* floor: a = fq*b + fr, fr in [0, |b|) when b > 0, (−|b|, 0] when
         b < 0, i.e. fr carries b's sign *)
      && equal a (add (mul fq b) fr)
      && compare (abs fr) (abs b) < 0
      && (is_zero fr || sign fr = sign b)
      (* ceiling vs floor: cdiv = fdiv iff exact, else fdiv + 1 *)
      && equal cq
           (if is_zero fr then fq else add fq one)
      (* truncation lies between floor and ceiling *)
      && compare fq q <= 0 && compare q cq <= 0)

let prop_boundary_gcd =
  QCheck.Test.make ~name:"boundary: gcd invariants" ~count:300
    (QCheck.pair arb_boundary arb_boundary)
    (fun (a, b) ->
      let open Bigint in
      let g = gcd a b in
      equal g (gcd b a)
      && equal g (gcd (abs a) (abs b))
      && equal (gcd a zero) (abs a)
      &&
      if is_zero g then is_zero a && is_zero b
      else
        is_zero (rem a g) && is_zero (rem b g)
        && sign g > 0
        (* any common divisor d divides g: check with d = gcd(a,b) scaled
           components a/g, b/g being coprime *)
        && equal (gcd (div a g) (div b g)) one)

let prop_fdiv_cdiv_bounds =
  QCheck.Test.make ~name:"fdiv/cdiv tight" ~count:300
    (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (Bigint.sign b > 0);
      let f = Bigint.fdiv a b and c = Bigint.cdiv a b in
      (* f*b <= a < (f+1)*b  and  (c-1)*b < a <= c*b *)
      Bigint.compare (Bigint.mul f b) a <= 0
      && Bigint.compare a (Bigint.mul (Bigint.add f Bigint.one) b) < 0
      && Bigint.compare a (Bigint.mul c b) <= 0
      && Bigint.compare (Bigint.mul (Bigint.sub c Bigint.one) b) a < 0)

(* ------------------------- the immediate boundary ------------------------- *)

(* Values in [-(2^61-1), 2^61-1] are immediate native ints; the rest are limb
   records.  [h] is far outside native range, so an operand shifted by [h]
   is a limb record, and an operation on it runs the limb path whatever the
   operand's form: each operation is checked against that path, through
   [to_string], at the edges of the two forms and of native ints. *)
let h = Bigint.pow (bi 2) 100

let edge_values =
  let p k = Bigint.pow (bi 2) k in
  List.concat_map
    (fun v ->
      List.concat_map
        (fun d ->
          let x = Bigint.add v (bi d) in
          [ x; Bigint.neg x ])
        [ -2; -1; 0; 1; 2 ])
    [ p 61; p 62; p 63; bi max_int; p 31; p 30 ]
  @ [ bi min_int; Bigint.sub (bi min_int) Bigint.one; Bigint.zero; Bigint.one ]

(* Factors whose products cross 2^62 and 2^63. *)
let crossing_factors =
  let p k = Bigint.pow (bi 2) k in
  List.concat_map
    (fun v -> [ v; Bigint.neg v ])
    [ p 31; Bigint.add (p 31) Bigint.one; Bigint.sub (p 31) Bigint.one; p 32;
      bi 3037000499; bi 3037000500; p 30; bi 3; Bigint.add (p 61) Bigint.one ]

let via_limbs_add a b = Bigint.sub (Bigint.add (Bigint.add a h) b) h
let via_limbs_sub a b = Bigint.sub (Bigint.sub (Bigint.add a h) b) h
let via_limbs_mul a b = Bigint.sub (Bigint.mul (Bigint.add a h) b) (Bigint.mul h b)

let check_op name expected actual =
  check_str name (s expected) (s actual)

let test_edges_vs_limbs () =
  let all = edge_values @ crossing_factors in
  List.iter
    (fun a ->
      check_op ("neg " ^ s a) (Bigint.sub (Bigint.sub h a) h) (Bigint.neg a);
      check_op ("abs " ^ s a)
        (if Bigint.sign a < 0 then Bigint.sub h (Bigint.add h a) else a)
        (Bigint.abs a);
      check_str ("roundtrip " ^ s a) (s a) (s (Bigint.of_string (s a)));
      (match Bigint.to_int_opt a with
      | Some n -> check_str ("native " ^ s a) (string_of_int n) (s a)
      | None ->
          Alcotest.(check bool) ("beyond native " ^ s a) true
            (Bigint.compare a (bi max_int) > 0 || Bigint.compare a (bi min_int) < 0));
      List.iter
        (fun b ->
          let what op = Printf.sprintf "%s %s %s" (s a) op (s b) in
          check_op (what "+") (via_limbs_add a b) (Bigint.add a b);
          check_op (what "-") (via_limbs_sub a b) (Bigint.sub a b);
          check_op (what "*") (via_limbs_mul a b) (Bigint.mul a b);
          check_int (what "compare")
            (Bigint.compare (Bigint.add a h) (Bigint.add b h))
            (Bigint.compare a b);
          check_op (what "gcd")
            (Bigint.div (Bigint.gcd (Bigint.mul a h) (Bigint.mul b h)) h)
            (Bigint.gcd a b);
          if not (Bigint.is_zero b) then begin
            (* (a*h) / (b*h) has a's quotient by b and h times its remainder *)
            let q, r = Bigint.divmod (Bigint.mul a h) (Bigint.mul b h) in
            let q', r' = Bigint.divmod a b in
            check_op (what "/") q q';
            check_op (what "mod") (Bigint.div r h) r';
            check_op (what "fdiv") (Bigint.fdiv (Bigint.mul a h) (Bigint.mul b h))
              (Bigint.fdiv a b);
            check_op (what "cdiv") (Bigint.cdiv (Bigint.mul a h) (Bigint.mul b h))
              (Bigint.cdiv a b);
            check_op (what "fmod")
              (Bigint.div (Bigint.fmod (Bigint.mul a h) (Bigint.mul b h)) h)
              (Bigint.fmod a b)
          end)
        all)
    all

(* One form per value: a result that fits is immediate however it was
   reached, so [equal] values are [=], hash alike and marshal to the same
   bytes. *)
let test_single_form () =
  let p k = Bigint.pow (bi 2) k in
  let same name a b =
    Alcotest.(check bool) (name ^ ": equal") true (Bigint.equal a b);
    Alcotest.(check bool) (name ^ ": =") true (a = b);
    check_int (name ^ ": hash") (Hashtbl.hash a) (Hashtbl.hash b);
    check_str (name ^ ": marshal") (Marshal.to_string a []) (Marshal.to_string b [])
  in
  let top = (1 lsl 61) - 1 in
  same "2^61-1 from limbs" (bi top) (Bigint.sub (p 62) (Bigint.add (p 61) Bigint.one));
  same "-(2^61-1) from limbs" (bi (-top)) (Bigint.sub (Bigint.add (p 61) Bigint.one) (p 62));
  same "2^61 two ways" (p 61) (Bigint.mul (p 31) (p 30));
  same "zero from limbs" Bigint.zero (Bigint.sub h h);
  same "small quotient" (bi 4) (Bigint.div (Bigint.mul h (bi 4)) h);
  same "small remainder" (bi 5) (Bigint.rem (Bigint.add (Bigint.mul h (bi 4)) (bi 5)) h);
  same "small gcd" (bi 6) (Bigint.gcd (Bigint.mul h (bi 6)) (Bigint.mul (Bigint.add h Bigint.one) (bi 6)));
  same "max_int" (bi max_int) (Bigint.of_string (string_of_int max_int));
  same "min_int" (bi min_int) (Bigint.of_string (string_of_int min_int));
  same "negated 2^61" (Bigint.neg (p 61)) (Bigint.sub Bigint.zero (p 61))

let suite =
  ( "bigint",
    [
      Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
      Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
      Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "divmod vs native" `Quick test_divmod_matches_native;
      Alcotest.test_case "fdiv/cdiv" `Quick test_fdiv_cdiv;
      Alcotest.test_case "fmod non-negative" `Quick test_fmod_nonneg;
      Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "pow" `Quick test_pow;
      Alcotest.test_case "edges: every op vs the limb path" `Quick test_edges_vs_limbs;
      Alcotest.test_case "edges: one form per value" `Quick test_single_form;
      QCheck_alcotest.to_alcotest prop_ring;
      QCheck_alcotest.to_alcotest prop_divmod;
      QCheck_alcotest.to_alcotest prop_string_roundtrip;
      QCheck_alcotest.to_alcotest prop_gcd_divides;
      QCheck_alcotest.to_alcotest prop_fdiv_cdiv_bounds;
      QCheck_alcotest.to_alcotest prop_boundary_string_roundtrip;
      QCheck_alcotest.to_alcotest prop_boundary_mul_div_cancel;
      QCheck_alcotest.to_alcotest prop_boundary_add_sub_carry;
      QCheck_alcotest.to_alcotest prop_boundary_division_signs;
      QCheck_alcotest.to_alcotest prop_boundary_gcd;
    ] )
