(** Free-format conversion (paper, Sections 2-3): the shortest digit
    string, correctly rounded, that reads back as the original value under
    the reader's rounding mode. *)

type t = {
  digits : int array;  (** base-[base] digits, most significant first *)
  k : int;  (** the value printed is [0.d1 d2 ... dn × base^k] *)
}

val convert :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  t
(** Shortest correctly rounded digits of the magnitude of a non-zero
    finite value.  Defaults: decimal output, reader rounds to nearest
    even, the paper's fast estimator, ties between equally close outputs
    round up (as in the paper's Scheme code). *)

val digit_count :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  int
(** Length of the shortest output — the statistic behind the paper's
    "average of 15.2 digits" remark. *)

(** {2 Fast-path dispatch}

    The conditions under which shortest ({!convert}) and fixed-format
    ([Fixed_format.convert]) conversions try {!Fastpath} before the
    exact kernels. *)

val fastpath_gate : base:int -> mode:Fp.Rounding.mode -> Fp.Format_spec.t -> bool
(** Decimal output, a binary input format, a nearest rounding mode, the
    {!Fastpath.enabled} gate on, force-pure off and no fault point
    armed.  The caller still checks that the mantissa fits 53 bits. *)

val fastpath_high_ok : mode:Fp.Rounding.mode -> int -> bool
(** Upper-boundary inclusivity for mantissa [f] under a nearest [mode]
    ([Rounding.boundary_ok]'s high flag). *)

val fastpath_narrow : Fp.Format_spec.t -> Fp.Value.finite -> int -> bool
(** Whether the low gap below [v] (mantissa [f] as an int) is narrow
    ([Gaps.gap_low_is_narrow] in machine integers). *)

val to_ratio : base:int -> t -> Bignum.Ratio.t
(** Exact value denoted by a conversion result, for tests. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
