(* Cross-module integration tests: rendering, the float-level API, wide
   and custom formats (binary80/binary128), and full print-read-print
   pipelines through our own reader. *)

module Nat = Bignum.Nat
module Ratio = Bignum.Ratio
open Fp
open Dragon

let qtest ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let b64 = Format_spec.binary64

(* ------------------------------------------------------------------ *)
(* Rendering *)

let test_render_free () =
  let render ?notation digits k =
    Render.free ?notation ~base:10 { Free_format.digits = Array.of_list digits; k }
  in
  Alcotest.(check string) "1.5" "1.5" (render [ 1; 5 ] 1);
  Alcotest.(check string) "0.15" "0.15" (render [ 1; 5 ] 0);
  Alcotest.(check string) "0.00015" "0.00015" (render [ 1; 5 ] (-3));
  Alcotest.(check string) "150.0" "150.0" (render [ 1; 5 ] 3);
  Alcotest.(check string) "scientific low" "1.5e-7" (render [ 1; 5 ] (-6));
  Alcotest.(check string) "positional edge low" "0.0000015"
    (render [ 1; 5 ] (-5));
  Alcotest.(check string) "scientific high" "1.5e22" (render [ 1; 5 ] 23);
  Alcotest.(check string) "single digit sci" "1e23" (render [ 1 ] 24);
  Alcotest.(check string) "forced scientific" "1.5e0"
    (render ~notation:Render.Scientific [ 1; 5 ] 1);
  Alcotest.(check string) "forced positional" "150000000000000000000000.0"
    (render ~notation:Render.Positional [ 1; 5 ] 24);
  Alcotest.(check string) "negative" "-2.5"
    (Render.free ~neg:true ~base:10 { Free_format.digits = [| 2; 5 |]; k = 1 });
  Alcotest.(check string) "base 36 letters" "z.z"
    (Render.free ~base:36 { Free_format.digits = [| 35; 35 |]; k = 1 });
  Alcotest.(check string) "specials" "0" (Render.zero ());
  Alcotest.(check string) "neg zero" "-0" (Render.zero ~neg:true ());
  Alcotest.(check string) "inf" "inf" (Render.infinity ());
  Alcotest.(check string) "nan" "nan" Render.nan

let test_render_fixed () =
  let mk digits k = { Fixed_format.digits = Array.of_list digits; k } in
  let d n = Fixed_format.Digit n and h = Fixed_format.Hash in
  Alcotest.(check string) "hash tail" "1.23##"
    (Render.fixed ~base:10 (mk [ d 1; d 2; d 3; h; h ] 1));
  Alcotest.(check string) "hash in integer part" "123#.#"
    (Render.fixed ~base:10 (mk [ d 1; d 2; d 3; h; h ] 4));
  Alcotest.(check string) "scientific with hash" "1.23##e5"
    (Render.fixed ~notation:Render.Scientific ~base:10
       (mk [ d 1; d 2; d 3; h; h ] 6))

(* The layout rules as plain string assembly: the reference the
   exact-length renderer must match byte for byte, on every notation,
   on each side of the radix point (k <= 0, 0 < k < n, k >= n), with
   '#' marks, and in bases whose exponent marker is '^'. *)
let reference_layout ~notation ~neg ~k ~base chars =
  let n = String.length chars in
  let positional =
    match notation with
    | Render.Positional -> true
    | Render.Scientific -> false
    | Render.Auto -> k > -6 && k - n <= 21 && k <= 21
  in
  let body =
    if positional then
      if k <= 0 then "0." ^ String.make (-k) '0' ^ chars
      else if k < n then String.sub chars 0 k ^ "." ^ String.sub chars k (n - k)
      else chars ^ String.make (k - n) '0' ^ ".0"
    else
      (if n <= 1 then if n = 0 then "0" else chars
       else String.sub chars 0 1 ^ "." ^ String.sub chars 1 (n - 1))
      ^ String.make 1 (Render.exponent_marker base)
      ^ string_of_int (k - 1)
  in
  (if neg then "-" else "") ^ body

let test_render_layout_grid () =
  List.iter
    (fun base ->
      for n = 0 to 24 do
        let digit i = (i * 7 + 3) mod base in
        let hashes = n / 3 in
        let free = Array.init n digit in
        let fixed =
          Array.init n (fun i ->
              if i >= n - hashes then Fixed_format.Hash
              else Fixed_format.Digit (digit i))
        in
        let chars a = String.init n (fun i -> a i) in
        let free_chars = chars (fun i -> Render.digit_char free.(i)) in
        let fixed_chars =
          chars (fun i ->
              match fixed.(i) with
              | Fixed_format.Digit d -> Render.digit_char d
              | Fixed_format.Hash -> '#')
        in
        for k = -30 to 30 do
          List.iter
            (fun notation ->
              List.iter
                (fun neg ->
                  let name = Printf.sprintf "base %d n %d k %d" base n k in
                  Alcotest.(check string) ("free " ^ name)
                    (reference_layout ~notation ~neg ~k ~base free_chars)
                    (Render.free ~notation ~neg ~base
                       { Free_format.digits = free; k });
                  Alcotest.(check string) ("fixed " ^ name)
                    (reference_layout ~notation ~neg ~k ~base fixed_chars)
                    (Render.fixed ~notation ~neg ~base
                       { Fixed_format.digits = fixed; k }))
                [ false; true ])
            [ Render.Auto; Render.Positional; Render.Scientific ]
        done
      done)
    [ 2; 10; 14; 15; 36 ]

(* ------------------------------------------------------------------ *)
(* Float-level API *)

let test_print_exact () =
  Alcotest.(check string) "0.5 exact" "0.5" (Printer.print_exact 0.5);
  Alcotest.(check string) "3 exact" "3.0" (Printer.print_exact 3.);
  Alcotest.(check string) "0.1 exact (55 digits)"
    "0.1000000000000000055511151231257827021181583404541015625"
    (Printer.print_exact 0.1);
  Alcotest.(check string) "-0.25 exact" "-0.25" (Printer.print_exact (-0.25));
  Alcotest.(check bool) "min denormal has 751 digits" true
    (let s = Printer.print_exact ~notation:Render.Scientific 5e-324 in
     (* d.<750 digits>e-324 *)
     String.length s = 752 + String.length "e-324");
  Alcotest.(check string) "exact in base 2 is the mantissa"
    "0.101"
    (Printer.print_exact ~base:2 0.625);
  Alcotest.(check string) "specials" "inf" (Printer.print_exact Float.infinity)

let test_decimal_format () =
  (* base-10 format: reading a <=16-digit decimal is exact, and the
     shortest output is just the significand with zeros stripped *)
  let fmt = Format_spec.decimal64_like in
  (match Reader.read fmt "123.4500" with
  | Ok (Value.Finite v) ->
    Alcotest.(check string) "prints back minimally" "123.45"
      (Render.free ~base:10 (Free_format.convert fmt v))
  | _ -> Alcotest.fail "read failed");
  (match Reader.read fmt "1e-398" with
  | Ok (Value.Finite v) ->
    Alcotest.(check bool) "denormal decimal round-trips" true
      (Value.equal
         (Reader.read_ratio fmt (Free_format.to_ratio ~base:10 (Free_format.convert fmt v)))
         (Value.Finite v))
  | _ -> Alcotest.fail "read failed");
  (* 17 significant input digits must round to the 16 the format holds *)
  match Reader.read fmt "12345678901234567" with
  | Ok (Value.Finite v) ->
    Alcotest.(check int) "16 digits stored" 16
      (Array.length (Nat.to_base_digits ~base:10 v.Value.f));
    Alcotest.(check string) "rounded to p = 16" "1.234567890123457e16"
      (Render.free ~notation:Render.Scientific ~base:10
         (Free_format.convert fmt v))
  | _ -> Alcotest.fail "read failed"

let test_printer_api () =
  Alcotest.(check string) "shortest" "0.1" (Printer.shortest 0.1);
  Alcotest.(check string) "nan" "nan" (Printer.print Float.nan);
  Alcotest.(check string) "-inf" "-inf" (Printer.print Float.neg_infinity);
  Alcotest.(check string) "-0" "-0" (Printer.print (-0.));
  Alcotest.(check string) "fixed of zero" "0"
    (Printer.print_fixed (Fixed_format.Relative 5) 0.);
  Alcotest.(check string) "print_value binary32"
    "0.33333334"
    (match Reader.read Format_spec.binary32 "0.3333333333" with
    | Ok v -> Printer.print_value_exn Format_spec.binary32 v
    | Error e -> Alcotest.fail (Robust.Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Wide and custom formats *)

let arb_finite_in (fmt : Format_spec.t) =
  let gen =
    QCheck.Gen.(
      let* denormal = QCheck.Gen.frequency [ (9, return false); (1, return true) ] in
      let* e = int_range fmt.emin fmt.emax in
      let* bits = list_size (return ((fmt.p / 60) + 1)) (int_bound max_int) in
      let f =
        List.fold_left
          (fun acc b -> Nat.add (Nat.shift_left acc 60) (Nat.of_int b))
          Nat.one bits
      in
      (* force exactly p digits (normalized) or a small denormal mantissa *)
      let f =
        if denormal then
          Nat.add Nat.one
            (snd (Nat.divmod f (Format_spec.min_normal_mantissa fmt)))
        else
          Nat.add (Format_spec.min_normal_mantissa fmt)
            (snd (Nat.divmod f (Format_spec.min_normal_mantissa fmt)))
      in
      let e = if Nat.compare f (Format_spec.min_normal_mantissa fmt) < 0 then fmt.emin else e in
      return { Value.neg = false; f; e })
  in
  QCheck.make ~print:(fun v -> Value.to_string (Value.Finite v)) gen

let wide_format_props ?(count = 15) fmt name =
  [
    qtest ~count
      (name ^ ": integer path = rational reference")
      (arb_finite_in fmt)
      (fun v ->
        Free_format.equal (Free_format.convert fmt v) (Reference.free fmt v));
    qtest ~count
      (name ^ ": output conditions hold")
      (arb_finite_in fmt)
      (fun v ->
        match Reference.check_output fmt v (Free_format.convert fmt v) with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_reportf "%s: %s" (Value.to_string (Value.Finite v)) e);
    qtest ~count
      (name ^ ": round-trips through the reader")
      (arb_finite_in fmt)
      (fun v ->
        let r = Free_format.convert fmt v in
        Value.equal
          (Reader.read_ratio fmt (Free_format.to_ratio ~base:10 r))
          (Value.Finite v));
    qtest ~count
      (name ^ ": all strategies agree")
      (arb_finite_in fmt)
      (fun v ->
        let results =
          List.map (fun strategy -> Free_format.convert ~strategy fmt v) Scaling.all
        in
        match results with
        | first :: rest -> List.for_all (Free_format.equal first) rest
        | [] -> false);
  ]

let test_binary128_shortest_bound () =
  (* 2^-16494, the smallest binary128 denormal, still prints briefly *)
  let v = { Value.neg = false; f = Nat.one; e = -16494 } in
  let r = Free_format.convert Format_spec.binary128 v in
  Alcotest.(check bool) "short denormal output" true
    (Array.length r.Free_format.digits <= 3);
  (* max finite binary128 round-trips *)
  let vmax =
    { Value.neg = false;
      f = Nat.pred (Format_spec.mantissa_limit Format_spec.binary128);
      e = 16271 }
  in
  let rmax = Free_format.convert Format_spec.binary128 vmax in
  Alcotest.(check bool) "max finite round-trips" true
    (Value.equal
       (Reader.read_ratio Format_spec.binary128
          (Free_format.to_ratio ~base:10 rmax))
       (Value.Finite vmax));
  (* binary128 shortest output never exceeds 36 digits *)
  Alcotest.(check bool) "max finite at most 36 digits" true
    (Array.length rmax.Free_format.digits <= 36)

(* ------------------------------------------------------------------ *)
(* Full pipelines through our own reader *)

let arb_double =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      map
        (fun bits ->
          let x = Int64.float_of_bits bits in
          if Float.is_nan x || Float.abs x = Float.infinity then 1.5 else x)
        ui64)

let pipeline_props =
  [
    qtest ~count:400 "print |> our reader = identity (binary64, all modes)"
      QCheck.(pair arb_double (QCheck.oneofl Rounding.all))
      (fun (x, mode) ->
        let s = Printer.print ~mode x in
        match Reader.read_float ~mode s with
        | Ok y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | Error _ -> false);
    qtest ~count:200 "print in base b |> read back via ratio"
      QCheck.(pair arb_double (QCheck.int_range 2 36))
      (fun (x, base) ->
        QCheck.assume (x <> 0.);
        match Ieee.decompose (Float.abs x) with
        | Value.Finite v ->
          let r = Free_format.convert ~base b64 v in
          Value.equal
            (Reader.read_ratio b64 (Free_format.to_ratio ~base r))
            (Value.Finite v)
        | _ -> true);
    qtest ~count:200 "print is idempotent (print (read (print x)) = print x)"
      arb_double
      (fun x ->
        let s = Printer.print x in
        match Reader.read_float s with
        | Ok y -> String.equal s (Printer.print y)
        | Error _ -> false);
    qtest ~count:200 "fixed 17 digits reads back (binary64)" arb_double
      (fun x ->
        QCheck.assume (x <> 0.);
        let s = Printer.print_fixed (Fixed_format.Relative 17) x in
        (* insignificant positions read as zero *)
        let s = String.map (fun c -> if c = '#' then '0' else c) s in
        match Reader.read_float s with
        | Ok y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | Error _ -> QCheck.Test.fail_reportf "unreadable %S" s);
    qtest ~count:100 "host printf %.17g agrees with naive fixed 17 read-back"
      arb_double
      (fun x ->
        QCheck.assume (x <> 0. && Float.is_finite x);
        let ours = Baselines.Naive_fixed.print ~ndigits:17 (Float.abs x) in
        float_of_string ours = Float.abs x);
  ]

let () =
  Alcotest.run "integration"
    [
      ( "render",
        [
          Alcotest.test_case "free" `Quick test_render_free;
          Alcotest.test_case "fixed" `Quick test_render_fixed;
          Alcotest.test_case "layout grid" `Quick test_render_layout_grid;
        ] );
      ( "printer-api",
        [
          Alcotest.test_case "floats" `Quick test_printer_api;
          Alcotest.test_case "print_exact" `Quick test_print_exact;
          Alcotest.test_case "decimal64-like format" `Quick test_decimal_format;
        ] );
      ( "binary128",
        Alcotest.test_case "extremes" `Quick test_binary128_shortest_bound
        :: wide_format_props Format_spec.binary128 "binary128" );
      ("binary80", wide_format_props Format_spec.binary80 "binary80");
      ( "ternary-wide",
        wide_format_props ~count:60
          (Format_spec.make ~name:"ternary-wide" ~b:3 ~p:40 ~emin:(-80)
             ~emax:80 ())
          "ternary p=40" );
      ("pipelines", pipeline_props);
    ]
