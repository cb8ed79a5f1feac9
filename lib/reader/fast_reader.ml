module Nat = Bignum.Nat

type stats = { exact : int; extended : int; fallback : int }

(* Tier counters are telemetry counters (atomic, summed across worker
   domains) and always-on: [stats ()] is a public contract the ablation
   bench reads with telemetry switched off.  One uncontended
   fetch-and-add per conversion. *)
let tier_counter tier =
  Telemetry.Metrics.counter
    ~labels:[ ("tier", tier) ]
    ~help:"Reader conversions by tier: hardware-exact fast path, \
           table-certified, or exact bignum fallback."
    "bdprint_reader_tier_total"
[@@lint.can_raise
  Invalid_argument
  (* registry rejects malformed metric names at module init — a bad name
     here is a programming error that should abort startup loudly *)]

let n_exact = tier_counter "exact"
let n_extended = tier_counter "extended"
let n_fallback = tier_counter "fallback"

let stats () =
  {
    exact = Telemetry.Metrics.value n_exact;
    extended = Telemetry.Metrics.value n_extended;
    fallback = Telemetry.Metrics.value n_fallback;
  }

(* Powers of ten exactly representable in binary64: 10^22 = 2^22 * 5^22
   and 5^22 < 2^53. *)
let exact_pow10 =
  Array.init 23 (fun i -> 10. ** float_of_int i)
  [@@lint.domain_safe "read-only lookup table built at init"]

let two53 = 9007199254740992 (* 2^53 *)

(* Significant digits the scanner keeps: 10^18 < 2^60 fits the table
   product's multiplicand, and 19 digits would overflow a native int. *)
let max_kept = 18

(* Same clamp as the exact parser: anything at it is far outside every
   format and settled by the exact reader's fast-reject gate. *)
let exp_clamp = 2_000_000_000

(* The exact path, for everything the scanner does not decide: text
   outside the plain grammar ([_] separators, [inf]/[nan], malformed
   input, whose structured errors come from [Exact.parse] itself) and
   uncertain verdicts.  The bignum is built here and only here. *)
let exact_path s =
  Result.join
    (Robust.Error.catch (fun () ->
         match Exact.parse_prechecked s with
         | Error _ as e -> e
         | Ok (Exact.Infinity neg) ->
           Ok (if neg then Float.neg_infinity else Float.infinity)
         | Ok Exact.Not_a_number -> Ok Float.nan
         | Ok (Exact.Number d) ->
           if Nat.is_zero d.Exact.digits then Ok (if d.Exact.neg then -0. else 0.)
           else begin
             (Telemetry.Metrics.incr n_fallback)
             [@lint.always_on
               "tier counters back the always-available stats contract"];
             Ok (Fp.Ieee.compose (Exact.read_decimal Fp.Format_spec.binary64 d))
           end))

(* The tiers on a scanned decimal: the value is w·10^q, or lies in
   (w, w+1)·10^q when [truncated]. *)
let decide s ~neg ~w ~q ~truncated =
  if w = 0 then Ok (if neg then -0. else 0.)
  else if (not truncated) && w <= two53 && q >= -22 && q <= 22 then begin
    (* Hardware-exact (Clinger): both operands exact, one IEEE
       operation *)
    (Telemetry.Metrics.incr n_exact)
    [@lint.always_on "tier counters back the always-available stats contract"];
    let x =
      if q >= 0 then float_of_int w *. Array.unsafe_get exact_pow10 q
      else float_of_int w /. Array.unsafe_get exact_pow10 (-q)
    in
    Ok (if neg then -.x else x)
  end
  else begin
    let r = Fastpath.read_decimal ~w ~q ~truncated in
    if r = Fastpath.uncertain then exact_path s
    else begin
      (Telemetry.Metrics.incr n_extended)
      [@lint.always_on "tier counters back the always-available stats contract"];
      (* r is the result's bit pattern relative to 1.0's; adding ±1.0's
         pattern rebuilds ±x *)
      Ok
        (Int64.float_of_bits
           (Int64.add (Int64.of_int r)
              (if neg then 0xBFF0_0000_0000_0000L else 0x3FF0_0000_0000_0000L)))
    end
  end

(* One pass over [+-]? digits [. digits]? ([eE] [+-]? digits)?, keeping
   the first [max_kept] significant digits in a native int.  Dropped
   digits move the decimal exponent and, when any is nonzero, set
   [truncated].  Anything else goes to the exact path whole. *)
let scan s =
  let len = String.length s in
  let i = ref 0 in
  let neg = len > 0 && String.unsafe_get s 0 = '-' in
  if len > 0 && (neg || String.unsafe_get s 0 = '+') then i := 1;
  let w = ref 0 and kept = ref 0 and dropped = ref 0 in
  let truncated = ref false and digits = ref 0 in
  (* digits after the point, -1 before it *)
  let frac = ref (-1) in
  let continue = ref true in
  while !continue && !i < len do
    match String.unsafe_get s !i with
    | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      incr digits;
      if !kept < max_kept then begin
        (* leading zeros are not significant *)
        if !kept > 0 || d > 0 then begin
          w := (!w * 10) + d;
          incr kept
        end
      end
      else begin
        incr dropped;
        if d > 0 then truncated := true
      end;
      if !frac >= 0 then incr frac;
      incr i
    | '.' when !frac < 0 ->
      frac := 0;
      incr i
    | _ -> continue := false
  done;
  (* the decimal exponent that [w] carries before any [e] part *)
  let shift = !dropped - max 0 !frac in
  if !digits = 0 then exact_path s
  else if !i = len then decide s ~neg ~w:!w ~q:shift ~truncated:!truncated
  else if String.unsafe_get s !i <> 'e' && String.unsafe_get s !i <> 'E' then
    exact_path s
  else begin
    incr i;
    let esign =
      if !i < len && String.unsafe_get s !i = '-' then (
        incr i;
        -1)
      else (
        if !i < len && String.unsafe_get s !i = '+' then incr i;
        1)
    in
    let start = !i and v = ref 0 in
    while !i < len && String.unsafe_get s !i >= '0' && String.unsafe_get s !i <= '9' do
      if !v < exp_clamp then
        v := (!v * 10) + (Char.code (String.unsafe_get s !i) - Char.code '0');
      incr i
    done;
    (* no exponent digits, or trailing text: the exact path reports it *)
    if !i = start || !i <> len then exact_path s
    else
      decide s ~neg ~w:!w ~q:((esign * min !v exp_clamp) + shift)
        ~truncated:!truncated
  end

let read s =
  match Robust.Budget.check_input_length (String.length s) with
  | () -> scan s
  | exception Robust.Error.E e -> Error e
