(* Tests for the accurate reader: parsing, correct rounding in every mode,
   overflow/underflow semantics, and agreement with the host strtod. *)

module Nat = Bignum.Nat
module Ratio = Bignum.Ratio
module R = Reader
open Fp

let value = Alcotest.testable Value.pp Value.equal

let ok_read ?mode fmt s =
  match R.read ?mode fmt s with
  | Ok v -> v
  | Error e -> Alcotest.failf "read %S failed: %s" s (Robust.Error.to_string e)

let ok_read_float ?mode s =
  match R.read_float ?mode s with
  | Ok v -> v
  | Error e -> Alcotest.failf "read_float %S failed: %s" s (Robust.Error.to_string e)

let qtest ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Parsing *)

let test_parse_forms () =
  let num s =
    match R.parse s with
    | Ok (R.Number d) -> d
    | Ok _ -> Alcotest.failf "parse %S: not a number" s
    | Error e -> Alcotest.failf "parse %S: %s" s (Robust.Error.to_string e)
  in
  let check s digits exp10 neg =
    let d = num s in
    Alcotest.(check string) (s ^ " digits") digits (Nat.to_string d.digits);
    Alcotest.(check int) (s ^ " exp10") exp10 d.R.exp10;
    Alcotest.(check bool) (s ^ " neg") neg d.R.neg
  in
  check "123" "123" 0 false;
  check "-123" "123" 0 true;
  check "+123" "123" 0 false;
  check "1.5" "15" (-1) false;
  check "0.001" "1" (-3) false;
  check ".5" "5" (-1) false;
  check "5." "5" 0 false;
  check "1e10" "1" 10 false;
  check "1E10" "1" 10 false;
  check "2.5e-3" "25" (-4) false;
  check "1_000.5" "10005" (-1) false;
  check "0" "0" 0 false;
  check "00012" "12" 0 false

let test_parse_specials () =
  Alcotest.(check bool) "inf" true (R.parse "inf" = Ok (R.Infinity false));
  Alcotest.(check bool) "-INF" true (R.parse "-INF" = Ok (R.Infinity true));
  Alcotest.(check bool) "Infinity" true
    (R.parse "Infinity" = Ok (R.Infinity false));
  Alcotest.(check bool) "nan" true (R.parse "NaN" = Ok R.Not_a_number)

let test_parse_errors () =
  let fails s =
    match R.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  List.iter fails [ ""; "-"; "."; "e5"; "1e"; "1e+"; "1.5x"; "--1"; "1..2" ]

(* ------------------------------------------------------------------ *)
(* Correct rounding, nearest-even, vs the host libc *)

let test_known_doubles () =
  let check s =
    Alcotest.(check (float 0.)) s (float_of_string s) (ok_read_float s)
  in
  List.iter check
    [
      "0.1"; "0.2"; "0.3"; "1.5"; "3.141592653589793"; "2.718281828459045";
      "1e308"; "1e-308"; "1e-320"; "4.9e-324"; "1.7976931348623157e308";
      "123456789012345678901234567890"; "0.000001"; "9007199254740993";
      "5e-324"; "2.2250738585072011e-308" (* the famous slow strtod case *);
      "2.2250738585072014e-308"; "1e23"; "8.98846567431158e307";
    ]

let test_unbiased_tie_1e23 () =
  (* 10^23 lies exactly between two doubles; ties-to-even picks the one
     with even mantissa (the paper's example motivating input-rounding
     awareness). *)
  let v = ok_read Format_spec.binary64 "1e23" in
  (match v with
  | Value.Finite f ->
    Alcotest.(check bool) "mantissa even" true (Nat.is_even f.f)
  | _ -> Alcotest.fail "1e23 not finite");
  Alcotest.(check (float 0.)) "agrees with libc" 1e23 (ok_read_float "1e23");
  (* ties-away goes to the other neighbour *)
  let away = ok_read_float ~mode:Rounding.To_nearest_away "1e23" in
  Alcotest.(check bool) "away picks the other neighbour" true (away <> 1e23)

let test_tie_modes_at_midpoint () =
  (* Exact midpoint between 1.0 and its successor. *)
  let midpoint = "1.00000000000000011102230246251565404236316680908203125" in
  Alcotest.(check (float 0.)) "even tie -> 1.0" 1.0 (ok_read_float midpoint);
  Alcotest.(check (float 0.)) "away tie -> succ 1.0"
    (Ieee.succ_float 1.0)
    (ok_read_float ~mode:Rounding.To_nearest_away midpoint);
  Alcotest.(check (float 0.)) "toward-zero tie -> 1.0" 1.0
    (ok_read_float ~mode:Rounding.To_nearest_toward_zero midpoint);
  Alcotest.(check (float 0.)) "negative midpoint, away"
    (-.Ieee.succ_float 1.0)
    (ok_read_float ~mode:Rounding.To_nearest_away ("-" ^ midpoint))

let test_directed_modes () =
  (* 0.1 is strictly between two doubles. *)
  let below = ok_read_float ~mode:Rounding.Toward_negative "0.1" in
  let above = ok_read_float ~mode:Rounding.Toward_positive "0.1" in
  let near = ok_read_float "0.1" in
  Alcotest.(check (float 0.)) "adjacent" above (Ieee.succ_float below);
  Alcotest.(check bool) "nearest among them" true (near = below || near = above);
  Alcotest.(check (float 0.)) "toward zero = toward neg for positives" below
    (ok_read_float ~mode:Rounding.Toward_zero "0.1");
  (* signs flip the direction *)
  Alcotest.(check (float 0.)) "-0.1 toward positive" (-.below)
    (ok_read_float ~mode:Rounding.Toward_positive "-0.1");
  (* exact values are unchanged in every mode *)
  List.iter
    (fun mode ->
      Alcotest.(check (float 0.))
        ("exact 0.5 " ^ Rounding.to_string mode)
        0.5
        (ok_read_float ~mode "0.5"))
    Rounding.all

let test_overflow () =
  Alcotest.(check value) "1e400 nearest" (Value.Inf false)
    (ok_read Format_spec.binary64 "1e400");
  Alcotest.(check value) "-1e400 nearest" (Value.Inf true)
    (ok_read Format_spec.binary64 "-1e400");
  Alcotest.(check (float 0.)) "1e400 toward zero saturates" Float.max_float
    (ok_read_float ~mode:Rounding.Toward_zero "1e400");
  Alcotest.(check (float 0.)) "1e400 toward negative saturates" Float.max_float
    (ok_read_float ~mode:Rounding.Toward_negative "1e400");
  Alcotest.(check (float 0.)) "-1e400 toward positive saturates"
    (-.Float.max_float)
    (ok_read_float ~mode:Rounding.Toward_positive "-1e400");
  Alcotest.(check (float 0.)) "1e400 toward positive overflows" Float.infinity
    (ok_read_float ~mode:Rounding.Toward_positive "1e400")

let test_underflow () =
  Alcotest.(check value) "1e-1000 nearest" (Value.Zero false)
    (ok_read Format_spec.binary64 "1e-1000");
  Alcotest.(check value) "-1e-1000 nearest" (Value.Zero true)
    (ok_read Format_spec.binary64 "-1e-1000");
  Alcotest.(check (float 0.)) "1e-1000 toward positive is min denormal"
    (Int64.float_of_bits 1L)
    (ok_read_float ~mode:Rounding.Toward_positive "1e-1000");
  Alcotest.(check (float 0.)) "1e-1000 toward zero is zero" 0.
    (ok_read_float ~mode:Rounding.Toward_zero "1e-1000");
  (* denormal reading *)
  Alcotest.(check value) "3e-324 is 2^-1074 territory"
    (Value.finite ~f:Nat.one ~e:(-1074) ())
    (ok_read Format_spec.binary64 "3e-324")

let test_binary16 () =
  let fmt = Format_spec.binary16 in
  Alcotest.(check value) "65504 max half"
    (Value.finite ~f:(Nat.of_int 2047) ~e:5 ())
    (ok_read fmt "65504");
  Alcotest.(check value) "65520 ties to inf" (Value.Inf false)
    (ok_read fmt "65520");
  Alcotest.(check value) "65519.99 rounds back to max"
    (Value.finite ~f:(Nat.of_int 2047) ~e:5 ())
    (ok_read fmt "65519.99");
  Alcotest.(check value) "1e9 toward zero saturates"
    (Value.finite ~f:(Nat.of_int 2047) ~e:5 ())
    (ok_read ~mode:Rounding.Toward_zero fmt "1e9");
  Alcotest.(check value) "0.1 in half precision"
    (Value.finite ~f:(Nat.of_int 1638) ~e:(-14) ())
    (ok_read fmt "0.1")

let test_read_ratio () =
  let fmt = Format_spec.binary64 in
  Alcotest.(check value) "1/3 reads like 0.333... string"
    (ok_read fmt "0.333333333333333333333333333333333333")
    (R.read_ratio fmt (Ratio.of_ints 1 3));
  Alcotest.(check value) "zero" (Value.Zero false) (R.read_ratio fmt Ratio.zero);
  Alcotest.(check value) "exact halves are exact"
    (Value.finite ~f:(Nat.pow_int 2 52) ~e:(-53) ())
    (R.read_ratio fmt Ratio.half)

let test_read_in_base () =
  let fmt = Format_spec.binary64 in
  let ok s base =
    match R.read_in_base ~base fmt s with
    | Ok v -> v
    | Error e -> Alcotest.failf "read_in_base %S: %s" s (Robust.Error.to_string e)
  in
  Alcotest.(check bool) "hex 0.1999...a is 0.1" true
    (Value.equal (ok "0.1999999999999a" 16) (ok "0.1" 10 |> fun v -> v));
  Alcotest.(check bool) "hex ff.f" true
    (Value.equal (ok "ff.f" 16) (ok "255.9375" 10));
  Alcotest.(check bool) "binary fraction" true
    (Value.equal (ok "0.101" 2) (ok "0.625" 10));
  Alcotest.(check bool) "caret exponent base 36" true
    (Value.equal (ok "z^2" 36) (ok "45360" 10));
  Alcotest.(check bool) "e is a digit in base 16" true
    (Value.equal (ok "e" 16) (ok "14" 10));
  Alcotest.(check bool) "e is an exponent in base 10" true
    (Value.equal (ok "1e2" 10) (ok "100" 10));
  Alcotest.(check bool) "hash reads as zero" true
    (Value.equal (ok "1.2##" 10) (ok "1.200" 10));
  Alcotest.(check bool) "negative" true
    (Value.equal (ok "-0.8" 16) (ok "-0.5" 10));
  List.iter
    (fun (s, base) ->
      match R.read_in_base ~base fmt s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "read_in_base %S base %d should fail" s base)
    [ ("", 10); ("z", 16); ("1..2", 10); ("1^", 36); ("^2", 36); ("1e5x", 10) ]

let test_hex_reader () =
  let ok ?mode s =
    match R.Hex.read_float ?mode s with
    | Ok x -> x
    | Error e -> Alcotest.failf "hex read %S: %s" s (Robust.Error.to_string e)
  in
  Alcotest.(check (float 0.)) "0x1p+0" 1.0 (ok "0x1p+0");
  Alcotest.(check (float 0.)) "0x1.8p+1" 3.0 (ok "0x1.8p+1");
  Alcotest.(check (float 0.)) "0.1 hex" 0.1 (ok "0x1.999999999999ap-4");
  Alcotest.(check (float 0.)) "denormal" 5e-324 (ok "0x0.0000000000001p-1022");
  Alcotest.(check (float 0.)) "negative" (-2.5) (ok "-0x1.4p+1");
  Alcotest.(check (float 0.)) "no exponent" 255.0 (ok "0xff");
  Alcotest.(check (float 0.)) "uppercase" 3.0 (ok "0X1.8P+1");
  (* correct rounding into a narrower format *)
  (match R.Hex.read Format_spec.binary16 "0x1.999999999999ap-4" with
  | Ok v ->
    Alcotest.(check value) "0.1 into binary16"
      (Value.finite ~f:(Nat.of_int 1638) ~e:(-14) ())
      v
  | Error e -> Alcotest.fail (Robust.Error.to_string e));
  List.iter
    (fun s ->
      match R.Hex.read_float s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hex %S should fail" s)
    [ ""; "0x"; "1.8p1"; "0x1.8q1"; "0x1p"; "0x1p+"; "0x1.8p1x" ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_decimal_string =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      let digits =
        string_size ~gen:(char_range '0' '9') (int_range 1 25)
      in
      map3
        (fun neg ds e ->
          Printf.sprintf "%s%se%d" (if neg then "-" else "") ds e)
        bool digits (int_range (-320) 320))

let arb_pos_double =
  QCheck.make ~print:string_of_float
    QCheck.Gen.(
      map
        (fun bits ->
          let x = Float.abs (Int64.float_of_bits bits) in
          if Float.is_nan x || x = Float.infinity then 1.5 else x)
        ui64)

let props =
  [
    qtest ~count:500 "agrees with libc strtod" arb_decimal_string (fun s ->
        let ours = ok_read_float s in
        let libc = float_of_string s in
        (Float.is_nan ours && Float.is_nan libc)
        || Int64.equal (Int64.bits_of_float ours) (Int64.bits_of_float libc));
    qtest "%.17g round-trips through the reader" arb_pos_double (fun x ->
        let s = Printf.sprintf "%.17g" x in
        Int64.equal
          (Int64.bits_of_float (ok_read_float s))
          (Int64.bits_of_float x));
    qtest "directed modes bracket nearest" arb_decimal_string (fun s ->
        let down = ok_read_float ~mode:Rounding.Toward_negative s in
        let up = ok_read_float ~mode:Rounding.Toward_positive s in
        let near = ok_read_float s in
        down <= near && near <= up
        && (down = up || up = Ieee.succ_float down));
    qtest "toward_zero shrinks magnitude" arb_decimal_string (fun s ->
        let tz = ok_read_float ~mode:Rounding.Toward_zero s in
        let near = ok_read_float s in
        Float.abs tz <= Float.abs near);
    qtest "exact decimals read exactly in every mode"
      QCheck.(pair arb_pos_double (QCheck.oneofl Rounding.all))
      (fun (x, mode) ->
        (* print the double's exact decimal expansion, then read it back *)
        match Ieee.decompose x with
        | Value.Zero _ -> true
        | Value.Finite v ->
          let digits, k =
            Oracle.Exact_decimal.exact_digits ~base:10 Format_spec.binary64 v
          in
          let s =
            Printf.sprintf "0.%se%d"
              (String.concat ""
                 (Array.to_list (Array.map string_of_int digits)))
              k
          in
          Float.equal (ok_read_float ~mode s) x
        | _ -> true);
    qtest ~count:500 "print_hex matches %h and reads back" arb_pos_double
      (fun x ->
        let ours = Dragon.Printer.print_hex x in
        let libc = Printf.sprintf "%h" x in
        String.equal ours libc
        &&
        match R.Hex.read_float ours with
        | Ok y -> Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float x)
        | Error _ -> false);
    qtest ~count:300 "hex reading = host hex float_of_string" arb_pos_double
      (fun x ->
        let s = Printf.sprintf "%h" x in
        match R.Hex.read_float s with
        | Ok y -> Float.equal y (float_of_string s)
        | Error _ -> false);
    qtest ~count:1000 "fast reader = exact reader" arb_decimal_string (fun s ->
        let fast =
          match R.Fast.read s with Ok x -> x | Error e -> Alcotest.fail (Robust.Error.to_string e)
        in
        let exact = ok_read_float s in
        Int64.equal (Int64.bits_of_float fast) (Int64.bits_of_float exact));
    qtest ~count:300 "fast reader = exact on shortest outputs" arb_pos_double
      (fun x ->
        (* shortest strings are the adversarial case: by construction they
           sit as close to the rounding boundary as any string that still
           converts to x *)
        let s = Dragon.Printer.print x in
        match R.Fast.read s with
        | Ok y -> Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float x)
        | Error e -> Alcotest.fail (Robust.Error.to_string e));
    qtest ~count:300 "printed base-b output reads back textually"
      QCheck.(pair arb_pos_double (QCheck.int_range 2 36))
      (fun (x, base) ->
        let v =
          match Ieee.decompose x with
          | Value.Finite v -> v
          | _ -> QCheck.assume_fail ()
        in
        List.for_all
          (fun notation ->
            let s =
              Dragon.Render.free ~notation ~base
                (Dragon.Free_format.convert ~base Format_spec.binary64 v)
            in
            match R.read_in_base ~base Format_spec.binary64 s with
            | Ok back -> Value.equal back (Value.Finite v)
            | Error _ -> false)
          [ Dragon.Render.Auto; Dragon.Render.Scientific ]);
  ]

(* ------------------------------------------------------------------ *)
(* Robustness: extreme exponents, structured errors, resource budgets,
   fault injection *)

let test_extreme_exponents () =
  let b64 = Format_spec.binary64 in
  (* astronomically scaled inputs must fast-reject to the correctly
     rounded extreme without ever constructing 10^|exponent| *)
  Alcotest.(check value) "1e999999999" (Value.Inf false)
    (ok_read b64 "1e999999999");
  Alcotest.(check value) "-1e999999999" (Value.Inf true)
    (ok_read b64 "-1e999999999");
  Alcotest.(check value) "1e-999999999" (Value.Zero false)
    (ok_read b64 "1e-999999999");
  Alcotest.(check value) "-1e-999999999" (Value.Zero true)
    (ok_read b64 "-1e-999999999");
  (* directed modes keep the same saturation semantics as moderate
     overflow/underflow *)
  Alcotest.(check (float 0.)) "extreme overflow toward zero saturates"
    Float.max_float
    (ok_read_float ~mode:Rounding.Toward_zero "1e999999999");
  Alcotest.(check (float 0.)) "extreme overflow toward negative saturates"
    Float.max_float
    (ok_read_float ~mode:Rounding.Toward_negative "1e999999999");
  Alcotest.(check (float 0.)) "extreme underflow toward positive is min denormal"
    (Int64.float_of_bits 1L)
    (ok_read_float ~mode:Rounding.Toward_positive "1e-999999999");
  Alcotest.(check (float 0.)) "extreme negative underflow toward zero"
    0.
    (ok_read_float ~mode:Rounding.Toward_zero "-1e-999999999" |> Float.abs);
  (* exponent digit strings beyond int range must clamp, not wrap *)
  Alcotest.(check value) "1e[30 nines]" (Value.Inf false)
    (ok_read b64 ("1e" ^ String.make 30 '9'));
  Alcotest.(check value) "1e-[30 nines]" (Value.Zero false)
    (ok_read b64 ("1e-" ^ String.make 30 '9'));
  (* huge written-out magnitudes, no exponent marker at all *)
  Alcotest.(check value) "1 followed by 10k zeros" (Value.Inf false)
    (ok_read b64 ("1" ^ String.make 10_000 '0'));
  Alcotest.(check value) "0.[10k zeros]1" (Value.Zero false)
    (ok_read b64 ("0." ^ String.make 10_000 '0' ^ "1"));
  (* zero mantissas never overflow, whatever the exponent says *)
  Alcotest.(check value) "0e999999999" (Value.Zero false)
    (ok_read b64 "0e999999999");
  Alcotest.(check value) "-0e-999999999" (Value.Zero true)
    (ok_read b64 "-0e-999999999")

let test_structured_errors () =
  let b64 = Format_spec.binary64 in
  let syntax s =
    match R.read b64 s with
    | Error (Robust.Error.Syntax _) -> ()
    | Error e ->
      Alcotest.failf "%S: expected syntax error, got %s" s
        (Robust.Error.to_string e)
    | Ok v -> Alcotest.failf "%S unexpectedly read as %s" s (Value.to_string v)
  in
  List.iter syntax
    [
      ""; " "; "\t"; "\n"; " 1.5"; "1.5 "; "abc"; "1..2"; "--1"; "+-1"; "1e+";
      "1e"; "e5"; "0x"; "+"; "."; "#"; "\xff\xfe\x00"; "1,5"; "1.2.3";
    ];
  (* inputs longer than the cap are rejected up front as budget errors *)
  (match R.read b64 (String.make 100_000 '1') with
  | Error (Robust.Error.Budget { what = "input length"; _ }) -> ()
  | Error e ->
    Alcotest.failf "expected input-length budget error, got %s"
      (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "100k-digit input unexpectedly accepted");
  (* a tighter ambient budget is honored *)
  Robust.Budget.with_budget
    { (Robust.Budget.get ()) with Robust.Budget.max_input_length = 8 }
    (fun () ->
      match R.read b64 "3.14159265358979" with
      | Error (Robust.Error.Budget _) -> ()
      | Error e -> Alcotest.fail (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "budget override ignored")

let test_special_value_roundtrips () =
  let b64 = Format_spec.binary64 in
  Alcotest.(check value) "nan reads" Value.Nan (ok_read b64 "nan");
  Alcotest.(check value) "NAN reads" Value.Nan (ok_read b64 "NAN");
  Alcotest.(check string) "nan prints" "nan" (Dragon.Printer.shortest Float.nan);
  (match Dragon.Printer.print_value b64 Value.Nan with
  | Ok s -> Alcotest.(check string) "nan through result api" "nan" s
  | Error e -> Alcotest.fail (Robust.Error.to_string e));
  Alcotest.(check value) "nan round-trips" Value.Nan
    (ok_read b64 (Dragon.Printer.shortest Float.nan));
  Alcotest.(check value) "-0.0 keeps sign" (Value.Zero true)
    (ok_read b64 "-0.0");
  Alcotest.(check string) "-0 free format" "-0" (Dragon.Printer.shortest (-0.));
  Alcotest.(check string) "-0 fixed format keeps sign" "-0"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Relative 3) (-0.));
  Alcotest.(check string) "-inf fixed format" "-inf"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Absolute 0)
       Float.neg_infinity)

let test_subnormal_boundaries () =
  (* smallest denormal of each format, and the rounding cliff at half of
     it: below half -> zero, above half -> the denormal *)
  Alcotest.(check value) "binary64 min denormal"
    (Value.finite ~f:Nat.one ~e:(-1074) ())
    (ok_read Format_spec.binary64 "4.9e-324");
  Alcotest.(check value) "binary64 below half min denormal"
    (Value.Zero false)
    (ok_read Format_spec.binary64 "2.4e-324");
  Alcotest.(check value) "binary64 above half min denormal"
    (Value.finite ~f:Nat.one ~e:(-1074) ())
    (ok_read Format_spec.binary64 "2.5e-324");
  Alcotest.(check value) "binary32 min denormal"
    (Value.finite ~f:Nat.one ~e:(-149) ())
    (ok_read Format_spec.binary32 "1.401298464324817e-45");
  Alcotest.(check value) "binary32 below half min denormal"
    (Value.Zero false)
    (ok_read Format_spec.binary32 "7e-46");
  Alcotest.(check value) "binary16 min denormal"
    (Value.finite ~f:Nat.one ~e:(-24) ())
    (ok_read Format_spec.binary16 "5.9604644775390625e-8");
  Alcotest.(check value) "binary16 below half min denormal"
    (Value.Zero false)
    (ok_read Format_spec.binary16 "2.9e-8");
  (* each min denormal round-trips through its own format's printer *)
  List.iter
    (fun (fmt, e) ->
      let v = Value.finite ~f:Nat.one ~e () in
      match Dragon.Printer.print_value fmt v with
      | Error err -> Alcotest.fail (Robust.Error.to_string err)
      | Ok s ->
        Alcotest.(check value)
          (Printf.sprintf "min denormal of e=%d round-trips via %s" e s)
          v (ok_read fmt s))
    [
      (Format_spec.binary64, -1074);
      (Format_spec.binary32, -149);
      (Format_spec.binary16, -24);
    ]

let test_fault_injection () =
  let b64 = Format_spec.binary64 in
  (* a failure injected deep in the bignum kernel surfaces as a
     structured Internal error, never as an exception *)
  Robust.Faults.with_fault "nat.pow" (fun () ->
      match R.read b64 "1e300" with
      | Error (Robust.Error.Internal { where = "nat.pow"; _ }) -> ()
      | Error e ->
        Alcotest.failf "expected nat.pow fault, got %s"
          (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "armed nat.pow fault did not fire");
  Robust.Faults.with_fault "nat.divmod" (fun () ->
      match R.read b64 "0.1" with
      | Error (Robust.Error.Internal { where = "nat.divmod"; _ }) -> ()
      | Error e ->
        Alcotest.failf "expected nat.divmod fault, got %s"
          (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "armed nat.divmod fault did not fire");
  (* ... and in the printer's scaling layer *)
  Robust.Faults.with_fault "scaling.scale" (fun () ->
      match
        Dragon.Printer.print_value b64 (Fp.Ieee.decompose 0.1)
      with
      | Error (Robust.Error.Internal { where = "scaling.scale"; _ }) -> ()
      | Error e ->
        Alcotest.failf "expected scaling.scale fault, got %s"
          (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "armed scaling.scale fault did not fire");
  (* disarmed, everything works again *)
  Alcotest.(check (float 0.)) "recovered" 0.1 (ok_read_float "0.1")

(* ------------------------------------------------------------------ *)
(* The tiered fast reader on its tiers' edges: bit for bit, and error
   for error, what the exact reader returns *)

let fast_agrees s =
  let name = if String.length s <= 60 then s else String.sub s 0 57 ^ "..." in
  match (R.Fast.read s, R.read_float s) with
  | Ok x, Ok y ->
    if
      not
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        || (Float.is_nan x && Float.is_nan y))
    then Alcotest.failf "fast %h <> exact %h on %S" x y name
  | Error e, Error f ->
    if not (Robust.Error.equal e f) then
      Alcotest.failf "fast error %s <> exact error %s on %S"
        (Robust.Error.to_string e) (Robust.Error.to_string f) name
  | Ok x, Error f ->
    Alcotest.failf "fast read %h where exact failed (%s) on %S" x
      (Robust.Error.to_string f) name
  | Error e, Ok y ->
    Alcotest.failf "fast failed (%s) where exact read %h on %S"
      (Robust.Error.to_string e) y name

(* The exact decimal expansion of the midpoint between positive finite
   [x] and its successor, as "0.<digits>e<k>", with its last digit
   nudged by [delta] (the expansion of a binary fraction ends in 5, so
   +-1 stays a digit). *)
let midpoint_string ?(delta = 0) x =
  match Ieee.decompose x with
  | Value.Finite v ->
    let mid =
      { v with Value.f = Nat.succ (Nat.shift_left v.Value.f 1); e = v.Value.e - 1 }
    in
    let digits, k =
      Oracle.Exact_decimal.exact_digits ~base:10 Format_spec.binary64 mid
    in
    let n = Array.length digits in
    digits.(n - 1) <- digits.(n - 1) + delta;
    Printf.sprintf "0.%se%d"
      (String.init n (fun i -> Char.chr (Char.code '0' + digits.(i))))
      k
  | _ -> Alcotest.failf "midpoint_string: %h is not finite" x

let test_fast_midpoints () =
  let st = Random.State.make [| 16 |] in
  let random_normal () =
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.of_int (1 + Random.State.int st 2046)) 52)
         (Random.State.int64 st (Int64.shift_left 1L 52)))
  in
  let random_subnormal () =
    Int64.float_of_bits (Random.State.int64 st (Int64.shift_left 1L 52))
  in
  let named =
    [ 1.0; 0.1; 0.5; 1e23; 9007199254740992.; 2.2250738585072014e-308;
      Float.pred 2.2250738585072014e-308; 5e-324; Float.pred Float.max_float;
      1.7976931348623157e308 (* midpoint above max_float: overflow cliff *) ]
  in
  List.iter
    (fun x ->
      List.iter (fun delta -> fast_agrees (midpoint_string ~delta x)) [ -1; 0; 1 ])
    (named
    @ List.init 150 (fun _ -> random_normal ())
    @ List.init 50 (fun _ -> random_subnormal ()))

let test_fast_named_cases () =
  List.iter fast_agrees
    [
      "9007199254740993";
      "9007199254740993." ^ String.make 30 '0' ^ "1";
      "2.2250738585072011e-308";
      "2.2250738585072012e-308";
      "2.4703282292062327e-324";
      "2.4703282292062328e-324";
      "1.7976931348623157e308";
      "1.7976931348623158e308";
      "0.5";
      "0.125";
      "1e22";
      "1e23";
      "-0.5";
      "-1e23";
    ];
  (* the named values themselves, where the exact reader is the oracle *)
  Alcotest.(check (float 0.)) "0.5" 0.5 (Result.get_ok (R.Fast.read "0.5"));
  Alcotest.(check (float 0.)) "0.125" 0.125 (Result.get_ok (R.Fast.read "0.125"));
  Alcotest.(check (float 0.)) "1e23" 1e23 (Result.get_ok (R.Fast.read "1e23"));
  Alcotest.(check (float 0.)) "9007199254740993 ties to even"
    9007199254740992. (Result.get_ok (R.Fast.read "9007199254740993"))

let test_fast_long_mantissas () =
  let st = Random.State.make [| 19 |] in
  let digits n =
    String.init n (fun i ->
        Char.chr
          (Char.code '0'
          + if i = 0 then 1 + Random.State.int st 9 else Random.State.int st 10))
  in
  for n = 19 to 45 do
    for _ = 1 to 20 do
      let d = digits n in
      let point = Random.State.int st (n + 1) in
      let e = Random.State.int st 640 - 320 in
      fast_agrees
        (Printf.sprintf "%s.%se%d" (String.sub d 0 point)
           (String.sub d point (n - point)) e);
      (* 18 significant digits, then only zeros: dropped but exact *)
      fast_agrees (String.sub d 0 18 ^ String.make (n - 18) '0')
    done
  done;
  (* leading zeros never count toward the 18 kept digits *)
  List.iter fast_agrees
    [
      "0." ^ String.make 30 '0' ^ "1e30";
      "0." ^ String.make 30 '0' ^ "1e31";
      String.make 30 '0' ^ "1";
      String.make 30 '0' ^ "123456789012345678901234567";
      "0." ^ String.make 25 '0' ^ "123456789012345678901234567e20";
    ]

let test_fast_grammar_edges () =
  List.iter fast_agrees
    [
      "1."; ".5"; "-0"; "+0"; "-0.0e7"; "1e"; "1e+"; "1e-"; "1_000"; "1_0.5e1";
      "inf"; "-inf"; "Infinity"; "nan"; "-NaN"; " 1"; "1 "; ""; "+"; "-"; ".";
      "e5"; "1..2"; "1.2.3"; "1e5.0"; "0x10"; "1e2000000000"; "1e-2000000000";
      "-1e2000000000"; "1e99999999999999999999"; "0e99999999999999999999";
    ];
  (* over the input-length budget: the same structured budget error *)
  fast_agrees (String.make 100_000 '1');
  Robust.Budget.with_budget
    { (Robust.Budget.get ()) with Robust.Budget.max_input_length = 8 }
    (fun () -> fast_agrees "3.14159265358979")

(* A hit builds no bignum: reading a batch of certified inputs allocates
   only each result (the [Ok] block and its boxed float). *)
let test_fast_hit_allocation () =
  let inputs =
    [| "0.1"; "6.02214076e23"; "2.2250738585072014e-308"; "123456.789e-30";
       "1.7976931348623157e308"; "-0.3333333333333333" |]
  in
  Array.iter (fun s -> ignore (R.Fast.read s)) inputs;
  let before = R.Fast.stats () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Array.iter (fun s -> ignore (Sys.opaque_identity (R.Fast.read s))) inputs
  done;
  let words = (Gc.minor_words () -. w0) /. 6000. in
  let after = R.Fast.stats () in
  Alcotest.(check int) "no fallback" before.R.Fast.fallback after.R.Fast.fallback;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per hit" words)
    true (words <= 8.)

let () =
  Alcotest.run "reader"
    [
      ( "parse",
        [
          Alcotest.test_case "number forms" `Quick test_parse_forms;
          Alcotest.test_case "specials" `Quick test_parse_specials;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "known doubles vs libc" `Quick test_known_doubles;
          Alcotest.test_case "1e23 unbiased tie" `Quick test_unbiased_tie_1e23;
          Alcotest.test_case "tie modes at midpoint" `Quick
            test_tie_modes_at_midpoint;
          Alcotest.test_case "directed modes" `Quick test_directed_modes;
          Alcotest.test_case "overflow" `Quick test_overflow;
          Alcotest.test_case "underflow" `Quick test_underflow;
          Alcotest.test_case "binary16" `Quick test_binary16;
          Alcotest.test_case "read_ratio" `Quick test_read_ratio;
          Alcotest.test_case "read_in_base" `Quick test_read_in_base;
          Alcotest.test_case "hex literals" `Quick test_hex_reader;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "extreme exponents fast-reject" `Quick
            test_extreme_exponents;
          Alcotest.test_case "structured errors and budgets" `Quick
            test_structured_errors;
          Alcotest.test_case "special-value round-trips" `Quick
            test_special_value_roundtrips;
          Alcotest.test_case "subnormal boundaries" `Quick
            test_subnormal_boundaries;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
        ] );
      ( "fast-tier",
        [
          Alcotest.test_case "exact midpoints and their neighbours" `Quick
            test_fast_midpoints;
          Alcotest.test_case "named hard cases" `Quick test_fast_named_cases;
          Alcotest.test_case "long mantissas and leading zeros" `Quick
            test_fast_long_mantissas;
          Alcotest.test_case "grammar edges and budgets" `Quick
            test_fast_grammar_edges;
          Alcotest.test_case "hits allocate only the result" `Quick
            test_fast_hit_allocation;
        ] );
      ("props", props);
    ]
