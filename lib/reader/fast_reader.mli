(** Certified fast decimal-to-binary64 conversion (Clinger [1] style).

    Clinger's reading paper — the input-side companion of Burger & Dybvig
    — observes that most conversions don't need bignums: either the value
    is exactly computable in hardware floats ([d × 10^k] with both parts
    exactly representable), or an approximation lands far enough from
    the rounding boundary to be {e certified} correct.  Only the residue
    of hard cases needs exact integer arithmetic.

    A scanner makes one pass over the plain grammar
    [[+-]? digits [. digits]? ([eE] [+-]? digits)?], keeping the first 18
    significant digits in a native int and noting whether any dropped
    digit was nonzero.  Nothing is allocated until a tier answers.  The
    three tiers:

    + {b exact} (hardware-exact): [|k| <= 22], nothing dropped and the
      mantissa fits 2^53 — one hardware multiply or divide is correctly
      rounded by IEEE semantics;
    + {b extended} (table-certified): one exact product of the digits
      against the printers' 128-bit power-of-ten table
      ({!Fastpath.read_decimal}) bounds the value to an interval, and the
      answer stands when the whole interval rounds to the same normal;
    + {b fallback}: {!Exact.read_decimal}, the exact bignum path, on an
      uncertain verdict.

    Text outside the plain grammar ([_] separators, [inf], [nan],
    malformed input) goes to {!Exact.parse} whole, so specials and
    structured errors are the exact reader's own.

    Results are {e always} correctly rounded to nearest-even: the fast
    tiers only answer when they can prove they agree with the fallback. *)

val read : string -> (float, Robust.Error.t) result
(** Parse and convert to binary64, round-to-nearest-even.  Never
    raises; shares the exact reader's structured errors, input-length
    budget and fast-reject gate. *)

type stats = { exact : int; extended : int; fallback : int }
(** Conversions per tier.  [extended] counts the table-certified tier
    (the name predates it and is kept for the metric's consumers). *)

val stats : unit -> stats
(** Monotonic tier counters, for the ablation bench. *)
