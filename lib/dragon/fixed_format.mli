(** Fixed-format conversion (paper, Section 4): correctly rounded output
    to a requested digit position, with [#] marks past the point where the
    floating-point value stops carrying information.

    A position request is either {e absolute} — stop at the [base^j]
    place — or {e relative} — produce [i] significant digits.  The
    rounding range of the value is widened (never narrowed) to the
    half-quantum [base^j / 2] on each side where the quantum dominates the
    float gap; where the float gap dominates instead, trailing positions
    cannot affect the value read back and are printed as [#]. *)

type request = Absolute of int | Relative of int

type digit = Digit of int | Hash

type t = {
  digits : digit array;
      (** positions [k-1, k-2, ..., j] most significant first; [#] only in
          a (possibly empty) suffix *)
  k : int;  (** the value printed is [0.d1 d2 ... × base^k] *)
}

val convert :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  request ->
  (t, Robust.Error.t) result
(** Fixed-format digits for the magnitude of a non-zero finite value.
    [tie] (default [Closer_up], as in the paper) breaks exact half-quantum
    ties.

    Never raises: a base outside 2..36 or [Relative i] with [i < 1] is a
    [Range] error, and a request whose digit span exceeds the
    {!Robust.Budget} cap ([--places 1000000] style) is a [Budget] error
    — vetted {e before} any bignum scaling work, so pathological
    requests fail in constant time.  An [Absolute] position far above
    the value short-circuits to the single rounded zero digit.

    Scaling always uses the estimator seeded on the range's upper bound
    ({!Scaling.scale_on_high}), which stays within one of the true scale
    factor even when the quantum dwarfs the value.

    Before any bignum work the conversion tries the table-driven fast
    path ({!Fastpath.convert_fixed}) when all of these hold: base 10; a
    binary format whose mantissa fits 53 bits; a nearest rounding mode;
    [Relative 1..17], or an [Absolute] position spanning at most 17
    digits; no fault point armed; force-pure off; and the
    {!Fastpath.enabled} gate on.  The fast path certifies every digit,
    the widening, the [k] retry and the [0]/[#] tail against one-sided
    error bounds and answers only when all of them are decided; any
    uncertain step (exact ties included) falls back to the exact path,
    so the result is byte-identical to it either way.  Hits and
    fallbacks are counted by [bdprint_fastpath_fixed_hit_total] and
    [bdprint_fastpath_fixed_fallback_total]. *)

val convert_exn :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  request ->
  t
(** {!convert} for call sites with statically valid arguments (tests,
    examples, internal drivers).
    @raise Robust.Error.E on what [convert] would report as [Error]. *)

val significant_digits : t -> int
(** Number of non-[#] positions. *)

val to_ratio : base:int -> t -> Bignum.Ratio.t
(** Exact value denoted, reading [#] as [0]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
