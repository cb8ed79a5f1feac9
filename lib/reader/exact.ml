module Nat = Bignum.Nat
module Bigint = Bignum.Bigint
module Ratio = Bignum.Ratio
module Format_spec = Fp.Format_spec
module Value = Fp.Value
module Rounding = Fp.Rounding
module Error = Robust.Error
module Budget = Robust.Budget

type decimal = { neg : bool; digits : Nat.t; exp10 : int }

type parsed = Number of decimal | Infinity of bool | Not_a_number

(* Exponent digits accumulate into a native int; clamp the magnitude so a
   ridiculous exponent string cannot overflow the accumulator.  Anything
   at the clamp is light-years outside every representable format and is
   settled by the fast-reject gate below. *)
let exp_clamp = 2_000_000_000

(* [catch] on an already-result-returning body. *)
let guarded f = Result.join (Error.catch f)

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* Everything but the input-length budget check, which [parse_body]
   makes first and the fast reader makes before its own scan. *)
let parse_text s =
  let len = String.length s in
  let pos = ref 0 in
  let error what = Error (Error.syntax ~pos:!pos ~input:s what) in
  if len = 0 then Error (Error.syntax ~input:s "empty string")
  else begin
    let neg =
      match s.[0] with
      | '-' ->
        incr pos;
        true
      | '+' ->
        incr pos;
        false
      | _ -> false
    in
    let rest = String.lowercase_ascii (String.sub s !pos (len - !pos)) in
    match rest with
    | "inf" | "infinity" -> Ok (Infinity neg)
    | "nan" -> Ok Not_a_number
    | _ ->
      let digits = Buffer.create 32 in
      let frac_len = ref 0 in
      let seen_digit = ref false in
      let take_digits ~counting =
        let continue = ref true in
        while !continue && !pos < len do
          match s.[!pos] with
          | '0' .. '9' as c ->
            Buffer.add_char digits c;
            seen_digit := true;
            if counting then incr frac_len;
            incr pos
          | '_' -> incr pos
          | _ -> continue := false
        done
      in
      take_digits ~counting:false;
      if !pos < len && s.[!pos] = '.' then begin
        incr pos;
        take_digits ~counting:true
      end;
      if not !seen_digit then error "expected digits"
      else begin
        let exp =
          if !pos < len && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
            incr pos;
            let esign =
              if !pos < len && s.[!pos] = '-' then (
                incr pos;
                -1)
              else if !pos < len && s.[!pos] = '+' then (
                incr pos;
                1)
              else 1
            in
            let start = !pos in
            let v = ref 0 in
            while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
              if !v < exp_clamp then
                v := (!v * 10) + (Char.code s.[!pos] - Char.code '0');
              incr pos
            done;
            if !pos = start then None else Some (esign * min !v exp_clamp)
          end
          else Some 0
        in
        match exp with
        | None -> error "expected exponent digits"
        | Some exp ->
          if !pos <> len then error "trailing characters"
          else
            Ok
              (Number
                 {
                   neg;
                   digits =
                     ((Nat.of_string ("0" ^ Buffer.contents digits))
                      [@lint.can_raise
                        Invalid_argument] (* buffer holds only '0'..'9' *));
                   exp10 = exp - !frac_len;
                 })
      end
  end

let parse_body s =
  Budget.check_input_length (String.length s);
  parse_text s

let parse s = guarded (fun () -> parse_body s)
let parse_prechecked s = guarded (fun () -> parse_text s)

(* ------------------------------------------------------------------ *)
(* Fast rejection of extreme magnitudes (Lemire-style gate)

   The value is m × base^scale with m non-zero and [bits] significant
   bits.  Its base-2 logarithm lies in [scale·log2 base + bits - 1,
   scale·log2 base + bits).  When that interval sits wholly above the
   format's overflow cliff or below its underflow cliff (with several
   bits of safety margin for the float estimate), the rounded result is
   already decided; a tiny surrogate fraction with the same
   classification goes through the one true rounding routine so every
   mode's overflow/underflow semantics (saturate vs infinity, zero vs
   minimum denormal) come out exactly as the real computation would —
   without ever constructing base^|scale|. *)

let decide_extreme ?mode (fmt : Format_spec.t) ~neg ~base ~bits ~scale =
  let log2b = log (float_of_int base) /. log 2. in
  let log2_fmt_b = log (float_of_int fmt.b) /. log 2. in
  let lo = (float_of_int scale *. log2b) +. float_of_int (bits - 1) in
  let hi = (float_of_int scale *. log2b) +. float_of_int bits in
  (* largest finite < fmt.b^(emax+p); smallest positive = fmt.b^emin *)
  let max_bits = (float_of_int (fmt.emax + fmt.p) *. log2_fmt_b) +. 4. in
  let min_bits = (float_of_int (fmt.emin - 2) *. log2_fmt_b) -. 4. in
  if lo > max_bits then
    let k = int_of_float max_bits + 8 in
    Some
      (Fp.Softfloat.round_fraction ?mode fmt ~neg (Nat.shift_left Nat.one k)
         Nat.one)
  else if hi < min_bits then
    let k = int_of_float (-.min_bits) + 8 in
    Some
      (Fp.Softfloat.round_fraction ?mode fmt ~neg Nat.one
         (Nat.shift_left Nat.one k))
  else None
[@@lint.can_raise
  Assert_failure
  (* raising internal: round_fraction asserts its invariants and the
     budget checks raise Error.E; every caller sits under [guarded] *)]

(* ------------------------------------------------------------------ *)
(* Correctly rounded conversion *)

(* Rounding an exact magnitude into the format lives in Fp.Softfloat
   (round_fraction); the reader only assembles u/v from text. *)

let read_ratio ?(mode = Rounding.To_nearest_even) fmt r =
  if Ratio.sign r = 0 then Value.Zero false
  else begin
    let abs = Ratio.abs r in
    Fp.Softfloat.round_fraction ~mode fmt ~neg:(Ratio.sign r < 0)
      ((Bigint.to_nat_exn (Ratio.num abs))
       [@lint.can_raise Invalid_argument] (* Ratio.abs: num >= 0 *))
      ((Bigint.to_nat_exn (Ratio.den abs))
       [@lint.can_raise Invalid_argument] (* Ratio invariant: den > 0 *))
  end
[@@lint.can_raise
  Assert_failure
  (* deliberate raising API: feeds round_fraction directly; callers that
     sit on a boundary wrap it (oracle, tests run it bare) *)]

let read_decimal ?(mode = Rounding.To_nearest_even) fmt (d : decimal) =
  if Nat.is_zero d.digits then Value.Zero d.neg
  else begin
    let bits = Nat.bit_length d.digits in
    match
      decide_extreme ~mode fmt ~neg:d.neg ~base:10 ~bits ~scale:d.exp10
    with
    | Some v -> v
    | None ->
      Budget.check_exponent d.exp10;
      Budget.check_bignum_bits
        (bits + int_of_float (3.33 *. float_of_int (abs d.exp10)) + 64);
      let u, v =
        if d.exp10 >= 0 then (Nat.mul d.digits (Nat.pow_int 10 d.exp10), Nat.one)
        else (d.digits, Nat.pow_int 10 (-d.exp10))
      in
      Fp.Softfloat.round_fraction ~mode fmt ~neg:d.neg u v
  end
[@@lint.can_raise
  Assert_failure
  (* deliberate raising API: budget checks raise Error.E and the bignum
     kernels assert invariants; [read] guards it, other callers must *)]

let read_in_base_body ?mode ~base fmt s =
  if base < 2 || base > 36 then
    Error
      (Error.range ~what:"base" (Printf.sprintf "%d not in 2..36" base))
  else begin
    let len = String.length s in
    Budget.check_input_length len;
    let err what = Error (Error.syntax ~input:s what) in
    if len = 0 then err "empty string"
    else begin
      let pos = ref 0 in
      let neg =
        match s.[0] with
        | '-' ->
          incr pos;
          true
        | '+' ->
          incr pos;
          false
        | _ -> false
      in
      let digit_value c =
        let v =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'z' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'Z' -> Char.code c - Char.code 'A' + 10
          | '#' -> 0 (* insignificant positions read as zero *)
          | _ -> -1
        in
        if v >= 0 && v < base then Some v else None
      in
      let exp_marker c = c = '^' || (base <= 14 && (c = 'e' || c = 'E')) in
      let digits = ref [] in
      let ndigits = ref 0 in
      let frac_len = ref 0 in
      let in_frac = ref false in
      let parse_error = ref None in
      let stop = ref false in
      while (not !stop) && !pos < len && !parse_error = None do
        let c = s.[!pos] in
        if exp_marker c then stop := true
        else begin
          (match c with
          | '.' ->
            if !in_frac then parse_error := Some "second radix point"
            else in_frac := true
          | '_' -> ()
          | c -> (
            match digit_value c with
            | Some d ->
              digits := d :: !digits;
              incr ndigits;
              if !in_frac then incr frac_len
            | None -> parse_error := Some "unexpected character"));
          incr pos
        end
      done;
      match !parse_error with
      | Some e -> err e
      | None ->
        if !ndigits = 0 then err "no digits"
        else begin
          let exp =
            if !stop then begin
              (* exponent part: decimal integer *)
              incr pos;
              let esign =
                if !pos < len && s.[!pos] = '-' then (
                  incr pos;
                  -1)
                else if !pos < len && s.[!pos] = '+' then (
                  incr pos;
                  1)
                else 1
              in
              let start = !pos in
              let v = ref 0 in
              while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
                if !v < exp_clamp then
                  v := (!v * 10) + (Char.code s.[!pos] - Char.code '0');
                incr pos
              done;
              if !pos = start || !pos <> len then None
              else Some (esign * min !v exp_clamp)
            end
            else if !pos <> len then None
            else Some 0
          in
          match exp with
          | None -> err "malformed exponent"
          | Some exp ->
            let mantissa =
              Nat.of_base_digits ~base (Array.of_list (List.rev !digits))
            in
            if Nat.is_zero mantissa then Ok (Value.Zero neg)
            else begin
              let scale = exp - !frac_len in
              let bits = Nat.bit_length mantissa in
              match decide_extreme ?mode fmt ~neg ~base ~bits ~scale with
              | Some v -> Ok v
              | None ->
                Budget.check_exponent scale;
                Budget.check_bignum_bits
                  (bits
                  + int_of_float
                      (float_of_int (abs scale)
                      *. (log (float_of_int base) /. log 2.))
                  + 64);
                let u, v =
                  if scale >= 0 then
                    (Nat.mul mantissa (Nat.pow_int base scale), Nat.one)
                  else (mantissa, Nat.pow_int base (-scale))
                in
                Ok (Fp.Softfloat.round_fraction ?mode fmt ~neg u v)
            end
        end
    end
  end
[@@lint.can_raise
  Assert_failure
  (* raising internal: same contract as [read_decimal]; the public
     [read_in_base] wraps it under [guarded] *)]

let read_in_base ?mode ~base fmt s =
  guarded (fun () -> read_in_base_body ?mode ~base fmt s)

let read ?mode fmt s =
  guarded (fun () ->
      match parse_body s with
      | Error _ as e -> e
      | Ok (Infinity neg) -> Ok (Value.Inf neg)
      | Ok Not_a_number -> Ok Value.Nan
      | Ok (Number d) -> Ok (read_decimal ?mode fmt d))

(* [compose] runs outside [read]'s guard, so it gets its own: a bit
   pattern that trips an internal invariant must surface as a structured
   error here too, not as an escaping exception. *)
let read_float ?mode s =
  guarded (fun () ->
      match read ?mode Format_spec.binary64 s with
      | Error _ as e -> e
      | Ok v -> Ok (Fp.Ieee.compose v))
