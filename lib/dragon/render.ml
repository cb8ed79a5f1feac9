type notation = Auto | Scientific | Positional

let digit_chars = "0123456789abcdefghijklmnopqrstuvwxyz"

let digit_char d =
  if d < 0 || d > 35 then invalid_arg "Render.digit_char";
  digit_chars.[d]

(* Positional layout is pleasant only for moderate scale factors; outside
   this window fall back to scientific (the bounds echo what typical
   runtime systems, including Chez Scheme, choose). *)
let use_positional k n = k > -6 && k - n <= 21 && k <= 21

(* 'e' is a digit from base 15 on; '^' is never a digit. *)
let exponent_marker base = if base <= 14 then 'e' else '^'

(* [count] digits from the [first]-th on, written at [pos] of [b] *)
let put_digits b digit pos first count =
  for i = 0 to count - 1 do
    Bytes.set b (pos + i) (digit (first + i))
  done

(* Lays out [n] digits, the i-th read by [digit i], into one string of
   exactly the final length: the text is fully determined by [neg], [k],
   [n] and the notation, so it is sized up front and filled by index. *)
let layout ~notation ~neg ~k ~base ~n digit =
  let positional =
    match notation with
    | Positional -> true
    | Scientific -> false
    | Auto -> use_positional k n
  in
  let sign = if neg then 1 else 0 in
  let exponent = if positional then "" else string_of_int (k - 1) in
  let len =
    sign
    +
    if positional then
      if k <= 0 then 2 - k + n (* 0.000ddd *)
      else if k < n then n + 1 (* dd.ddd *)
      else k + 2 (* ddd000.0 *)
    else
      (* d.ddd, or a lone "0" when there are no digits, then the
         exponent *)
      max n 1 + (if n > 1 then 1 else 0) + 1 + String.length exponent
  in
  let b = Bytes.create len in
  if neg then Bytes.set b 0 '-';
  if positional then begin
    if k <= 0 then begin
      Bytes.blit_string "0." 0 b sign 2;
      Bytes.fill b (sign + 2) (-k) '0';
      put_digits b digit (sign + 2 - k) 0 n
    end
    else if k < n then begin
      put_digits b digit sign 0 k;
      Bytes.set b (sign + k) '.';
      put_digits b digit (sign + k + 1) k (n - k)
    end
    else begin
      (* pad up to the radix point when all digits sit above it *)
      put_digits b digit sign 0 n;
      Bytes.fill b (sign + n) (k - n) '0';
      Bytes.blit_string ".0" 0 b (sign + k) 2
    end
  end
  else begin
    let pos =
      if n = 0 then begin
        Bytes.set b sign '0';
        sign + 1
      end
      else begin
        Bytes.set b sign (digit 0);
        if n > 1 then begin
          Bytes.set b (sign + 1) '.';
          put_digits b digit (sign + 2) 1 (n - 1)
        end;
        sign + n + if n > 1 then 1 else 0
      end
    in
    Bytes.set b pos (exponent_marker base);
    Bytes.blit_string exponent 0 b (pos + 1) (String.length exponent)
  end;
  Bytes.unsafe_to_string b

(* The converters emit digits in [0, base) with base <= 36, so the
   renderers index [digit_chars] directly. *)
let free ?(notation = Auto) ?(neg = false) ~base (t : Free_format.t) =
  let digits = t.digits in
  layout ~notation ~neg ~k:t.k ~base ~n:(Array.length digits) (fun i ->
      digit_chars.[digits.(i)])

let fixed ?(notation = Auto) ?(neg = false) ~base (t : Fixed_format.t) =
  let digits = t.digits in
  layout ~notation ~neg ~k:t.k ~base ~n:(Array.length digits) (fun i ->
      match digits.(i) with
      | Fixed_format.Digit d -> digit_chars.[d]
      | Fixed_format.Hash -> '#')

let zero ?(neg = false) () = if neg then "-0" else "0"
let infinity ?(neg = false) () = if neg then "-inf" else "inf"
let nan = "nan"
