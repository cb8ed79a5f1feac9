(** Convenience API over OCaml floats (IEEE binary64).

    [print] is the paper's free-format algorithm end to end: the result is
    the shortest decimal (or other-base) string that reads back as the
    same double under the given reader rounding mode.  [print_fixed] is
    the fixed-format algorithm with [#] marks.  Zeros, infinities and NaNs
    render as ["0"], ["-0"], ["inf"], ["-inf"], ["nan"]. *)

val print :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  float ->
  string
(** Free format.  Defaults: base 10, reader rounds to nearest even, fast
    estimator, output ties round up, automatic notation. *)

val print_fixed :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  Fixed_format.request ->
  float ->
  string
(** Fixed format to an absolute position or a number of significant
    digits. *)

val shortest : float -> string
(** [print] with all defaults — the drop-in [float -> string]. *)

val print_exact : ?base:int -> ?notation:Render.notation -> float -> string
(** The {e complete} exact decimal (or other even-base) expansion of the
    double — every binary float has a finite one.  [0.1] prints as its
    true 55-digit value; the smallest denormal has 751 digits.  Useful
    for seeing exactly which real number a float is. *)

val print_hex : float -> string
(** C17 hexadecimal-significand notation ([0x1.999999999999ap-4] for
    [0.1]), the always-exact power-of-two special case of base
    conversion; matches the host's [%h] including denormals
    ([0x0.0000000000001p-1022]). *)

val print_value :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  Fp.Format_spec.t ->
  Fp.Value.t ->
  (string, Robust.Error.t) result
(** Free format for a decomposed value in any format.  Never raises:
    misuse (base outside 2..36), budget violations and injected faults
    all come back as [Error]. *)

val print_value_exn :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  Fp.Format_spec.t ->
  Fp.Value.t ->
  string
(** {!print_value} for call sites with statically valid arguments (the
    float convenience API and the examples).
    @raise Robust.Error.E on what {!print_value} reports as [Error]. *)

(** {2 Line conversion} *)

val line_converter :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?format:Fp.Format_spec.t ->
  ?strategy:Scaling.strategy ->
  ?notation:Render.notation ->
  ?request:Fixed_format.request ->
  ?hex:bool ->
  unit ->
  string ->
  (string, Robust.Error.t) result
(** [line_converter ... ()] is the conversion of one input line that
    every front end runs: bdprint, bdprintd, the client's local fallback
    and the benches.  Build it once per run; a call then allocates no
    optional argument.  The line is read ([parse] span) as a C17 hex
    literal when it starts [[+-]?0[xX]], by {!Reader.Fast} for binary64
    round-to-nearest-even and by the exact {!Reader.read} otherwise,
    then printed in hex when [hex], in fixed format when [request] is
    given and by {!print_value} otherwise.  Defaults are bdprint's:
    base 10, nearest-even, binary64, the fast estimator, automatic
    notation.  Never raises. *)

(** {2 Fast-path dispatch}

    Free-format conversions try the table-driven Q4.112 fast path
    ({!Fastpath}) before the exact kernels; an uncertain verdict falls
    back with byte-identical output either way. *)

val set_fastpath_enabled : bool -> unit
(** Steer the dispatch (benchmarks time the exact kernels by turning it
    off; [BDPRINT_NO_FASTPATH=1] does the same at startup). *)

val fastpath_enabled : unit -> bool

val fastpath_stats : unit -> int * int
(** [(hits, fallbacks)] from the [bdprint_fastpath_{hit,fallback}_total]
    counters; recorded only while telemetry is enabled. *)
