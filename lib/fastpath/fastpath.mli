(** Table-driven fixed-precision digit fast path, for shortest and
    fixed-format output.

    Runs the Burger-Dybvig digit loop on a Q4.112 fixed-point frame
    built from an exact 53x128-bit product of the mantissa and a
    truncated power of ten ({!Pow10_table}), certifying every digit and
    every stopping comparison against one-sided error intervals.  Any
    comparison the intervals cannot decide yields an {e uncertain}
    verdict ([None]) and the caller falls back to the exact
    scratch/word kernels, so hits are byte-identical to the pure
    reference by construction.  Both entry points share one frame, one
    digit loop and one error discipline; fixed format only adds the
    half-quantum widening, the [Relative] retry and the [0]/[#] tail
    classification around it.

    The dispatchers live in [Dragon.Free_format] and
    [Dragon.Fixed_format]; this module is kept free of [Dragon] types so
    the dependency points one way. *)

module Pow10_table : sig
  val q_min : int
  val q_max : int
  val limbs_per_entry : int

  val exps : int array
  (** [exps.(q - q_min)] = gamma(q) = floor(log2 10^q) - 127. *)

  val limbs : int array
  (** [limbs.(limbs_per_entry * (q - q_min) + i)] is the i-th 28-bit
      limb (least significant first) of c(q) = floor(10^q·2^(-gamma(q))),
      2^127 <= c(q) < 2^128.  Generated by tools/gen_pow10.ml and
      re-derived from exact Nat arithmetic by test_fastpath. *)
end

val convert_shortest :
  f:int ->
  e:int ->
  mantissa_bits:int ->
  narrow:bool ->
  high_ok:bool ->
  est:int ->
  (int array * int) option
(** [convert_shortest ~f ~e ~mantissa_bits ~narrow ~high_ok ~est] is
    [Some (digits, k)] — most-significant first, decimal point position
    [k], exactly what [Generate.free] would produce — when every digit
    and the stopping decision are certified, [None] otherwise.

    [f] is the mantissa (must fit 53 bits; the caller checks),
    [mantissa_bits] its bit length, [e] the binary exponent, [narrow]
    whether the low gap is halved (mantissa on a power-of-two
    boundary), [high_ok] the upper-boundary inclusivity from
    [Rounding.boundary_ok], and [est] the caller's [Fast_estimate] of
    ceil(log10 v) — passed in so the certified fixup works from the
    same estimate the reference path would use.  The lower-boundary
    flag [low_ok] is deliberately absent: it only changes the outcome
    when a comparison lands on exact equality, which the one-sided
    intervals can never certify, so those inputs always fall back.

    Honors {!Robust.Budget.check_output_digits} with the reference
    loop's per-digit cadence.  May not be called while any fault point
    is armed (the dispatcher checks {!Robust.Faults.any_armed}): the
    fast path has no bignum trip sites, so running it would desynchronize
    differential fault schedules. *)

type fixed = {
  digits : int array;
      (** the loop's digits, then the trailing zero positions; the
          remaining [span - Array.length digits] positions are [#] *)
  loop_digits : int;  (** digits the loop emitted (before the zeros) *)
  span : int;  (** k - j: total positions, digits, zeros and [#] marks *)
  k : int;  (** decimal point position, as in [Fixed_format.t] *)
}

val convert_fixed :
  f:int ->
  e:int ->
  mantissa_bits:int ->
  narrow:bool ->
  high_ok:bool ->
  est:int ->
  relative:bool ->
  pos:int ->
  fixed option
(** [convert_fixed ... ~relative ~pos] is exactly what
    [Fixed_format.convert] produces for [Relative pos] (when [relative])
    or [Absolute pos], in base 10 with a nearest rounding mode, when
    every step is certified, and [None] otherwise.  The exact path then
    answers, so the caller's output is byte-identical either way.

    The arguments are {!convert_shortest}'s, with [est] the
    [Fast_estimate] of ceil(log10 v) (here only the frame's anchor: the
    result's [k] is certified independently of it).  The attempt is
    uncertain unless [pos] is [1..17] for [Relative], or for [Absolute]
    the position j satisfies [-18 <= j - est <= 1] and the span
    [k - j] is at most 17.  Exact ties (on the half quantum or in the
    loop's tie-break) and a boundary within the error of the half
    quantum are never certifiable, so the tie strategy never decides a
    hit.  Budget and fault contract as {!convert_shortest}. *)

val enabled : unit -> bool
(** Dispatch gate, true by default; [BDPRINT_NO_FASTPATH=1] in the
    environment flips the initial value. *)

val set_enabled : bool -> unit
(** Flip the dispatch gate at runtime (benchmarks measure the exact
    kernels by turning the fast path off; tests compare both paths). *)

val hit_count : unit -> int
(** Value of the [bdprint_fastpath_hit_total] counter (conversions
    answered by the fast path).  Recorded only while telemetry is
    enabled, like every other counter. *)

val fallback_count : unit -> int
(** Value of the [bdprint_fastpath_fallback_total] counter (attempts
    that returned uncertain and fell back).  The fallback {e rate} is
    [fallback / (hit + fallback)]; conversions that never qualified for
    an attempt (non-binary64 mantissas, directed rounding, out-of-table
    exponents) are counted in neither.  Both counters cover shortest
    conversions only. *)

val fixed_hit_count : unit -> int
(** Value of the [bdprint_fastpath_fixed_hit_total] counter: fixed-format
    conversions answered by {!convert_fixed}.  Telemetry-gated. *)

val fixed_fallback_count : unit -> int
(** Value of the [bdprint_fastpath_fixed_fallback_total] counter:
    {!convert_fixed} attempts that returned uncertain.  Requests outside
    the dispatch conditions are never attempted and counted in
    neither. *)

val read_decimal : w:int -> q:int -> truncated:bool -> int
(** The reader's table-certified tier: the correctly rounded
    (nearest-even) binary64 for a decimal whose leading digits are [w]
    and whose exponent is [q].  The decimal is exactly [w·10^q] when
    [truncated] is false; when it is true the input had nonzero digits
    after [w], and its value lies strictly between [w·10^q] and
    [(w+1)·10^q].

    One exact product of [w] (normalized to 60 bits) against the
    table's [c(q)] bounds the value to an interval; the result is
    returned only when the whole interval rounds to the same binary64
    normal.  It comes back as its IEEE bit pattern minus that of [1.0]
    (add [Int64.bits_of_float 1.0] to rebuild it), which keeps every
    normal double inside a native int.  Ties, subnormals, overflow, [q]
    outside the table and [w] outside [1, 2^60) return {!uncertain}, and
    the caller must then run the exact reader.  Raises nothing, and
    allocates nothing once the domain's scratch pool exists. *)

val uncertain : int
(** {!read_decimal}'s "no certified answer" verdict ([min_int], below
    every encoded result). *)
