(* Table-driven fixed-precision digit fast path, for shortest and
   fixed-format output alike.

   The Burger-Dybvig loop proves each digit and the stopping decision
   with exact rational comparisons; this module runs the same loop on a
   128-bit fixed-point approximation and only keeps the answer when the
   approximation's error interval cannot change any comparison.  The
   verdict is three-valued — every comparison is {e certainly true},
   {e certainly false}, or {e uncertain} — and any uncertainty aborts
   the whole attempt so the caller falls back to the exact scratch/word
   kernels.  Hits are therefore byte-identical to the pure reference by
   construction, not by testing alone.

   Number frame.  For v = f·2^e (f < 2^53) and the reference estimate
   [est] of ceil(log10 v), all quantities live in Q4.112 fixed point:
   X = v·10^(-est)·2^112, held as two native-int limbs (hi = integer
   part and top 56 fraction bits, lo = low 56 fraction bits).  X is
   carved out of the exact product P = f·c(-est) of the mantissa and a
   128-bit truncated power of ten (see {!Pow10_table}), computed in
   28-bit limbs so every partial product fits a native int.  The
   boundaries m± = 2^(e-1)·10^(-est)·2^112 (m⁻ halved again for
   mantissas on a power-of-two boundary) come straight from the table
   entry by shifting.

   Error discipline.  The table entry and every window extraction
   UNDERestimate (truncate), so each approximation a of a true value A
   satisfies a ≤ A < a + err with a one-sided error counted in units of
   2^(-112): err starts at 2 per quantity and is multiplied by ten per
   emitted digit, staying below 2·10^17 < 2^62 for the at-most-17
   digits a binary64 shortest form can need.  A comparison is certified
   only when it holds for {e every} pair of true values inside the two
   intervals; exact equality is never certifiable, which is precisely
   the correctly-rounded boundary case the exact fallback exists for.

   Fixed format (paper, Section 4) runs the same loop on the same frame.
   It adds the half quantum H = 10^(j-est)/2·2^112, windowed out of the
   table entry c(j-est) with the same one-sided error of 2, and widens
   each boundary to H where H certainly dominates it (the widened high
   side becomes inclusive); a boundary within the error of H is
   uncertain.  The k fixup then runs on the widened range, as
   [Scaling.scale_on_high] does; a [Relative] request first guesses k
   from the unwidened range and retries when rounding carries into the
   next power of ten, exactly like [Fixed_format.relative].  Positions
   after the loop's last digit are classified as 0 or # by the
   reference's test inc·s·10^t + s <= (rest + m⁺)·10^t, which in frame
   units reads W·10^t >= 1 for W = fraction + m⁺ - inc, certified
   against W's one-sided error.

   Faults and budgets.  The fast path stands aside entirely while any
   fault point is armed ({!Robust.Faults.any_armed} is checked by the
   dispatcher) because it cannot reproduce the reference pipeline's
   trip sites; it {e does} honor per-request deadlines and digit
   budgets by consulting {!Robust.Budget.check_output_digits} with the
   same per-digit cadence as the reference loop.

   The reader's table-certified tier (end of file) runs on the same
   table, pool and exact product. *)

module Metrics = Telemetry.Metrics
module Pow10_table = Pow10_table
module T = Pow10_table

let mask28 = (1 lsl 28) - 1
let mask56 = (1 lsl 56) - 1
let mask60 = (1 lsl 60) - 1

(* Identity masks for the width certifier (see docs/STATIC_ANALYSIS.md):
   each is applied where the mathematical invariant (stated at the use
   site) keeps the value strictly below the mask, so the [land] never
   clears a set bit at runtime — it only lets the abstract interpreter
   carry the invariant across an operation it cannot derive itself. *)
let mask57 = (1 lsl 57) - 1
let mask58 = (1 lsl 58) - 1
let mask61 = (1 lsl 61) - 1

(* The fixed-point one: 2^112 in frame units, as a (hi, lo) pair with
   lo = 0. *)
let one_hi = 1 lsl 56

(* A shortest binary64 form needs at most 17 significant digits; if the
   certified loop has not stopped by then the error terms have swamped
   the margins and the exact kernels should take over (also keeps every
   err·10^n below 2^62). *)
let max_digits = 17

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "BDPRINT_NO_FASTPATH" with
    | Some ("1" | "true" | "yes" | "on") -> false
    | _ -> true)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let m_hit =
  Metrics.counter
    ~help:"Free-format conversions answered by the table-driven fast path."
    "bdprint_fastpath_hit_total"

let m_fallback =
  Metrics.counter
    ~help:"Fast-path attempts that returned an uncertain verdict and fell \
           back to the exact kernels."
    "bdprint_fastpath_fallback_total"

let m_fixed_hit =
  Metrics.counter
    ~help:"Fixed-format conversions answered by the table-driven fast path."
    "bdprint_fastpath_fixed_hit_total"

let m_fixed_fallback =
  Metrics.counter
    ~help:"Fixed-format fast-path attempts that returned an uncertain \
           verdict and fell back to the exact kernels."
    "bdprint_fastpath_fixed_fallback_total"

let hit_count () = Metrics.value m_hit
let fallback_count () = Metrics.value m_fallback
let fixed_hit_count () = Metrics.value m_fixed_hit
let fixed_fallback_count () = Metrics.value m_fixed_fallback


(* Per-domain scratch: three 8-limb windows (table entry, product, and
   the fixed format's half-quantum entry) and the digit buffer, reused
   across conversions so an attempt allocates nothing until it builds
   its result.  [stop] carries the digit loop's stop state (W's hi and
   lo parts and its error, see the header) out to the fixed-format
   tail.  [busy]
   guards against re-entrant use from the same domain (metrics
   callbacks, nested printing): the inner attempt just reports uncertain
   and takes the exact path. *)
type pool = {
  winc : int array;  (* 5 table limbs + zero padding *)
  winp : int array;  (* 7 product limbs + zero padding *)
  winh : int array;  (* 5 half-quantum table limbs + zero padding *)
  digits : int array;
  stop : int array;
  mutable busy : bool;
}
[@@lint.domain_safe
  "only reachable through Domain.DLS; [busy] guards same-domain \
   reentrancy (metrics callbacks), not cross-domain sharing"]

let pool_key =
  Domain.DLS.new_key (fun () ->
      {
        winc = Array.make 8 0;
        winp = Array.make 8 0;
        winh = Array.make 8 0;
        digits = Array.make (max_digits + 2) 0;
        stop = Array.make 3 0;
        busy = false;
      })

(* Bits [pos, pos+56) of the little-endian 28-bit-limb number in [win].
   The byte-widest read touches limbs pos/28 .. pos/28+2, so callers
   keep zero padding above the populated limbs. *)
let[@lint.no_alloc] window56 (win [@lint.width 28]) (pos [@lint.width 8]) =
  let w = pos / 28 and b = pos mod 28 in
  (Array.unsafe_get win w lsr b)
  lor (Array.unsafe_get win (w + 1) lsl (28 - b))
  lor (Array.unsafe_get win (w + 2) lsl (56 - b))
  land mask56
[@@lint.certified_width 62]

(* Bits [pos, pos+60): the hi limb carries four integer bits on top of
   its 56 fraction bits.  The fourth source limb only contributes when
   the in-limb offset pushes past three limbs' worth of bits. *)
let[@lint.no_alloc] window60 (win [@lint.width 28]) (pos [@lint.width 8]) =
  let w = pos / 28 and b = pos mod 28 in
  (Array.unsafe_get win w lsr b)
  lor (Array.unsafe_get win (w + 1) lsl (28 - b))
  lor (Array.unsafe_get win (w + 2) lsl (56 - b))
  lor (if b >= 25 then Array.unsafe_get win (w + 3) lsl (84 - b) else 0)
  land mask60
[@@lint.certified_width 62]

(* win <- the five limbs of c(q); callers have checked q against the
   table bounds. *)
let[@lint.no_alloc] load_entry (win [@lint.width 28])
    (q [@lint.width_signed 10]) =
  let base = T.limbs_per_entry * (q - T.q_min) in
  Array.unsafe_set win 0 (Array.unsafe_get T.limbs base);
  Array.unsafe_set win 1 (Array.unsafe_get T.limbs (base + 1));
  Array.unsafe_set win 2 (Array.unsafe_get T.limbs (base + 2));
  Array.unsafe_set win 3 (Array.unsafe_get T.limbs (base + 3));
  Array.unsafe_set win 4 (Array.unsafe_get T.limbs (base + 4))
[@@lint.certified_width 62]

(* winp <- f · c, exactly, in 28-bit limbs: f = f1·2^28 + f0 against the
   five limbs of c already loaded in [winc].  Splitting f keeps every
   partial product below 2^60 with carry headroom to spare.  The printer
   passes a 53-bit mantissa, the reader a 60-bit normalized digit
   string; either way f·c < 2^188 fits the seven product limbs. *)
let[@lint.no_alloc] fill_product (winp [@lint.width 28]) (winc [@lint.width 28])
    (f [@lint.width 60]) =
  let c0 = Array.unsafe_get winc 0
  and c1 = Array.unsafe_get winc 1
  and c2 = Array.unsafe_get winc 2
  and c3 = Array.unsafe_get winc 3
  and c4 = Array.unsafe_get winc 4 in
  let f0 = f land mask28 and f1 = f lsr 28 in
  let x0 = f0 * c0 in
  let x1 = (f0 * c1) + (x0 lsr 28) in
  let x2 = (f0 * c2) + (x1 lsr 28) in
  let x3 = (f0 * c3) + (x2 lsr 28) in
  let x4 = (f0 * c4) + (x3 lsr 28) in
  let y0 = f1 * c0 in
  let y1 = (f1 * c1) + (y0 lsr 28) in
  let y2 = (f1 * c2) + (y1 lsr 28) in
  let y3 = (f1 * c3) + (y2 lsr 28) in
  let y4 = (f1 * c4) + (y3 lsr 28) in
  let s1 = (x1 land mask28) + (y0 land mask28) in
  let s2 = (x2 land mask28) + (y1 land mask28) + (s1 lsr 28) in
  let s3 = (x3 land mask28) + (y2 land mask28) + (s2 lsr 28) in
  let s4 = (x4 land mask28) + (y3 land mask28) + (s3 lsr 28) in
  let s5 = (x4 lsr 28) + (y4 land mask28) + (s4 lsr 28) in
  let s6 = (y4 lsr 28) + (s5 lsr 28) in
  Array.unsafe_set winp 0 (x0 land mask28);
  Array.unsafe_set winp 1 (s1 land mask28);
  Array.unsafe_set winp 2 (s2 land mask28);
  Array.unsafe_set winp 3 (s3 land mask28);
  Array.unsafe_set winp 4 (s4 land mask28);
  Array.unsafe_set winp 5 (s5 land mask28);
  (* f·c < 2^188, so the top limb holds at most 20 bits: mask28 is an
     identity (c's top limb is below 2^16, which the element width
     cannot express) *)
  Array.unsafe_set winp 6 (s6 land mask28)
[@@lint.certified_width 62]

(* Interval comparisons on (hi, lo) frames.  All approximations are
   underestimates, so "a_true op b_true certainly" demands the op hold
   across both one-sided intervals [a, a+err).  They run several times
   per digit, hence [@inline]. *)

(* a + err ≤ b, with a scalar error on the left. *)
let[@inline][@lint.no_alloc] le2p (ah [@lint.width 61]) (al [@lint.width 56])
    (err [@lint.width 60]) (bh [@lint.width 61]) (bl [@lint.width 56]) =
  let l = al + err in
  let h = ah + (l lsr 56) in
  let l = l land mask56 in
  h < bh || (h = bh && l <= bl)
[@@lint.certified_width 62]

let[@inline][@lint.no_alloc] gt2 (ah [@lint.width 61]) (al [@lint.width 56])
    (bh [@lint.width 61]) (bl [@lint.width 56]) =
  ah > bh || (ah = bh && al > bl)
[@@lint.certified_width 62]

let[@inline][@lint.no_alloc] ge2 (ah [@lint.width 61]) (al [@lint.width 56])
    (bh [@lint.width 61]) (bl [@lint.width 56]) =
  ah > bh || (ah = bh && al >= bl)
[@@lint.certified_width 62]

(* a ≥ 1 frame unit with an inclusive high endpoint, a > 1 without;
   certain for the true value, which is at least a. *)
let[@inline][@lint.no_alloc] reaches_one ~high_ok (ah [@lint.width 61])
    (al [@lint.width 56]) =
  if high_ok then ge2 ah al one_hi 0 else gt2 ah al one_hi 0
[@@lint.certified_width 62]

(* Initial one-sided error of every frame quantity: one unit of window
   truncation plus less than one unit of table truncation (the shift
   bounds below keep f·θ·2^-t, and θ·2^-s for the half quantum, below
   a unit). *)
let err0 = 2

(* Load the frame for v = f·2^e against c(-est): the table entry into
   [winc] and the exact product into [winp].  Returns the window shift
   t (X = floor(P / 2^t) in frame units, P·2^(-t) = f·c·2^(e+gamma+112)),
   or -1 when the estimate is outside the table or t outside the
   certified band. *)
let[@lint.no_alloc] load_frame p ~f:(f [@lint.width 53]) ~lf:(lf [@lint.width 6])
    ~e:(e [@lint.width_signed 12]) ~est:(est [@lint.width_signed 11]) =
  let q = -est in
  if q < T.q_min || q > T.q_max then -1
  else begin
    let gamma = Array.unsafe_get T.exps (q - T.q_min) in
    let t = -(e + gamma + 112) in
    (* t ≥ lf+12 bounds the table error below one frame unit AND proves
       P < 2^(t+116), so the 60-bit hi window captures every product
       bit; t ≤ 81 keeps all window reads inside the padded limbs.  A
       reference estimate within one digit of the true scaling always
       lands here (t ≈ lf + 14). *)
    if t < lf + 12 || t > 81 then -1
    else begin
      let (winc [@lint.width 28]) = p.winc
      and (winp [@lint.width 28]) = p.winp in
      load_entry winc q;
      fill_product winp winc f;
      t
    end
  end
[@@lint.certified_width 62]

(* The estimate fixup, certified (Scaling.scale_estimated's too_low):
   1 when X + m⁺ certainly reaches one frame unit (≥ with an inclusive
   high endpoint, > without), 0 when it certainly stays below, -1 when
   the intervals cannot tell. *)
let[@lint.no_alloc] too_low ~high_ok (xh [@lint.width 60]) (xl [@lint.width 56])
    (mph [@lint.width 60]) (mpl [@lint.width 56]) =
  let sl = xl + mpl in
  let sh = xh + mph + (sl lsr 56) in
  let sl = sl land mask56 in
  if reaches_one ~high_ok sh sl then 1
  else if le2p sh sl (2 * err0) one_hi 0 then 0
  else -1
[@@lint.certified_width 62]

(* The certified digit loop, shared by both output formats.  State at
   digit n: Y (the scaled remainder, premultiplied so the digit is
   floor(Y)) and the boundaries M± in frame units, each an
   underestimate with the one-sided error [err].  Returns the digit
   count with the digits in [p.digits], or -1 for an uncertain verdict;
   on a hit it leaves W = fraction + M⁺ - inc and W's error in
   [p.stop]. *)
let[@lint.no_alloc] rec digit_loop p ~high_ok (n [@lint.width 5])
    (yh [@lint.width 61]) (yl [@lint.width 56]) (mph [@lint.width 61])
    (mpl [@lint.width 56]) (mmh [@lint.width 61]) (mml [@lint.width 56])
    (err [@lint.width 58]) =
  Robust.Budget.check_output_digits n;
  let d = yh lsr 56 in
  if d > 9 then -1
  else begin
    let fh = yh land mask56 and fl = yl in
    (* The emitted digit is certain only if the true fraction cannot
       reach the next integer. *)
    if not (le2p fh fl err one_hi 0) then -1
    else begin
      let tc1_true = le2p fh fl err mmh mml
      and tc1_false = le2p mmh mml err fh fl in
      let sl = fl + mpl in
      (* fraction + m⁺ < 3 frame units ≪ 2^61: mask61 is identity *)
      let sh = (fh + mph + (sl lsr 56)) land mask61 in
      let sl = sl land mask56 in
      let tc2_true = reaches_one ~high_ok sh sl
      and tc2_false = le2p sh sl (2 * err) one_hi 0 in
      if not ((tc1_true || tc1_false) && (tc2_true || tc2_false)) then -1
      else if tc1_false && tc2_false then begin
        (* A leading zero only continues under a mis-scaled frame: the
           reference's first digit is zero only when it rounds up at
           once. *)
        if n >= max_digits || (n = 1 && d = 0) then -1
        else begin
          let (digits [@lint.width 4]) = p.digits in
          Array.unsafe_set digits (n - 1) d;
          (* On the continue branch tc2 is certainly false: fraction +
             m⁺ < 1 frame unit, so each scaled hi part is below 2^57
             (mask57 identities) and the error stays below 2·10^17 <
             2^58 (mask58 identity, see the header's error
             discipline). *)
          let l10 = fl * 10 in
          let yh = (fh * 10) + (l10 lsr 56) and yl = l10 land mask56 in
          let p10 = mpl * 10 in
          let mph = ((mph land mask57) * 10) + (p10 lsr 56)
          and mpl = p10 land mask56 in
          let m10 = mml * 10 in
          let mmh = ((mmh land mask57) * 10) + (m10 lsr 56)
          and mml = m10 land mask56 in
          digit_loop p ~high_ok (n + 1) yh yl mph mpl mmh mml
            ((10 * err) land mask58)
        end
      end
      else begin
        let last =
          if tc1_true && not tc2_true then d
          else if tc2_true && not tc1_true then d + 1
          else begin
            (* Both endpoints in range: the reference breaks the tie by
               comparing 2·frac with one; equality (an exact tie) is
               never certifiable and falls back, so the caller's tie
               strategy is moot on hits. *)
            let t2l = (fl lsl 1) land mask56 in
            let t2h = (fh lsl 1) + (fl lsr 55) in
            if le2p t2h t2l (2 * err) one_hi 0 then d
            else if gt2 t2h t2l one_hi 0 then d + 1
            else -2
          end
        in
        if last < 0 || last > 9 then -1
        else begin
          let (digits [@lint.width 4]) = p.digits in
          Array.unsafe_set digits (n - 1) last;
          (* A rounded-up last digit means tc2 held, so sh ≥ one_hi. *)
          let stop = p.stop in
          Array.unsafe_set stop 0 (if last > d then sh - one_hi else sh);
          Array.unsafe_set stop 1 sl;
          Array.unsafe_set stop 2 (2 * err);
          n
        end
      end
    end
  end
[@@lint.certified_width 62]

(* Enter the digit loop at k = est + fix ([fix] from [too_low]).  The
   loop state starts at Y = v·10^(1-k): when the estimate was not too
   low the frame is premultiplied by ten first (the reference's
   premultiply). *)
let[@lint.no_alloc] start p ~high_ok ~fix (xh [@lint.width 60])
    (xl [@lint.width 56]) (mph [@lint.width 60]) (mpl [@lint.width 56])
    (mmh [@lint.width 60]) (mml [@lint.width 56]) =
  if fix = 1 then digit_loop p ~high_ok 1 xh xl mph mpl mmh mml err0
  else begin
    (* Not too low: X + m⁺ < 1 frame unit and m⁻ ≤ m⁺, so every hi part
       here is below 2^57 and the mask57s are identities. *)
    let l10 = xl * 10 in
    let yh = ((xh land mask57) * 10) + (l10 lsr 56) and yl = l10 land mask56 in
    let p10 = mpl * 10 in
    let mph = ((mph land mask57) * 10) + (p10 lsr 56)
    and mpl = p10 land mask56 in
    let m10 = mml * 10 in
    let mmh = ((mmh land mask57) * 10) + (m10 lsr 56)
    and mml = m10 land mask56 in
    digit_loop p ~high_ok 1 yh yl mph mpl mmh mml (10 * err0)
  end
[@@lint.certified_width 62]

(* Which side of the half quantum H a boundary m falls: 1 when H
   certainly dominates (widen to H, inclusive), 0 when m certainly
   exceeds H, -1 when the intervals overlap.  The reference widens on
   H ≥ m, so exact equality is uncertain here. *)
let[@lint.no_alloc] widens (hh [@lint.width 60]) (hl [@lint.width 56])
    (mh [@lint.width 60]) (ml [@lint.width 56]) =
  if le2p mh ml err0 hh hl then 1 else if le2p hh hl err0 mh ml then 0 else -1
[@@lint.certified_width 62]

(* Classify fixed-format positions m .. total-1 after the loop's last
   digit: zeros while W·10^t < 1, then # marks.  Returns the number of
   digit positions (significant digits plus zeros), or -1.  Called with
   m < total ≤ 17, so the error before each multiply is at most
   4·10^15 and W < 1 frame unit on the continue branch (mask56 and
   mask58 identities). *)
let[@lint.no_alloc] rec tail (digits [@lint.width 4]) ~high_ok
    (m [@lint.width 5]) (total [@lint.width 5]) (wh [@lint.width 60])
    (wl [@lint.width 56]) (we [@lint.width 58]) =
  if reaches_one ~high_ok wh wl then m
  else if not (le2p wh wl we one_hi 0) then -1
  else begin
    Array.unsafe_set digits m 0;
    let m1 = m + 1 in
    if m1 >= total || m1 > max_digits then total
    else begin
      let l10 = wl * 10 in
      tail digits ~high_ok m1 total
        (((wh land mask56) * 10) + (l10 lsr 56))
        (l10 land mask56)
        ((10 * we) land mask58)
    end
  end
[@@lint.certified_width 62]

(* A fixed-format result: bits 0-11 hold k + 1024, 12-16 the digit
   positions (digits plus zeros) in [p.digits], 17-21 the span k - j,
   22-26 the loop's digit count.  Callers pass [kb] = (k + 1024) land
   0xfff; k stays within the table's ±350 (plus the span), so the mask
   is an identity. *)
let[@lint.no_alloc] pack_fixed (n [@lint.width 5]) (nz [@lint.width 5])
    (span [@lint.width 5]) (kb [@lint.width 12]) =
  (n lsl 22) lor (span lsl 17) lor (nz lsl 12) lor kb
[@@lint.certified_width 62]

(* Fixed format at absolute position j (Fixed_format.absolute on the
   frame): the single-digit case, boundary widening to the half quantum,
   the fixup on the widened range, the digit loop and the tail. *)
let[@lint.no_alloc] fixed_at p ~high_ok ~est:(est [@lint.width_signed 11])
    ~j:(j [@lint.width_signed 14]) (xh [@lint.width 60]) (xl [@lint.width 56])
    (mph [@lint.width 60]) (mpl [@lint.width 56]) (mmh [@lint.width 60])
    (mml [@lint.width 56]) =
  let qh = j - est in
  if qh < -18 || qh > 1 then -1
  else begin
    (* H = 10^qh/2·2^112 = (c + θ)·2^(gamma+111): shift s ∈ [13, 76]
       for qh ∈ [-18, 1], well inside the padded window. *)
    let s = -(Array.unsafe_get T.exps (qh - T.q_min) + 111) in
    if s < 13 || s > 76 then -1
    else begin
      let (winh [@lint.width 28]) = p.winh
      and (digits [@lint.width 4]) = p.digits in
      load_entry winh qh;
      let hh = window60 winh (s + 56) and hl = window56 winh s in
      if le2p xh xl err0 hh hl then begin
        (* v < 10^j/2: one zero digit at position j *)
        Array.unsafe_set digits 0 0;
        pack_fixed 1 1 1 ((j + 1 + 1024) land 0xfff)
      end
      else if not (le2p hh hl err0 xh xl) then -1
      else begin
        let wp = widens hh hl mph mpl and wm = widens hh hl mmh mml in
        if wp < 0 || wm < 0 then -1
        else begin
          let mph = if wp = 1 then hh else mph
          and mpl = if wp = 1 then hl else mpl
          and mmh = if wm = 1 then hh else mmh
          and mml = if wm = 1 then hl else mml in
          let high_ok = high_ok || wp = 1 in
          let fix = too_low ~high_ok xh xl mph mpl in
          if fix < 0 then -1
          else begin
            let n = start p ~high_ok ~fix xh xl mph mpl mmh mml in
            let k = est + fix in
            let kb = (k + 1024) land 0xfff in
            let span = k - j in
            if n < 1 || n > max_digits || n > span || span > max_digits then -1
            else if n = span then pack_fixed n n span kb
            else begin
              (* W < 3 frame units, its error below 4·10^16 (n < 17) *)
              let stop = p.stop in
              let (wh [@lint.width 60]) = Array.unsafe_get stop 0
              and (wl [@lint.width 56]) = Array.unsafe_get stop 1
              and (we [@lint.width 58]) = Array.unsafe_get stop 2 in
              let nz = tail digits ~high_ok n span wh wl we in
              if nz < 1 || nz < n || nz > max_digits || nz > span then -1
              else pack_fixed n nz span kb
            end
          end
        end
      end
    end
  end
[@@lint.certified_width 62]

(* Relative i (Fixed_format.relative on the frame): place the last
   digit from the guessed k and retry with the k the attempt produced
   when rounding carried into the next power of ten. *)
let[@lint.no_alloc] rec relative_at p ~high_ok ~est:(est [@lint.width_signed 11])
    ~i:(i [@lint.width 5]) ~attempts:(attempts [@lint.width 2])
    ~guess:(guess [@lint.width_signed 13]) (xh [@lint.width 60])
    (xl [@lint.width 56]) (mph [@lint.width 60]) (mpl [@lint.width 56])
    (mmh [@lint.width 60]) (mml [@lint.width 56]) =
  let r = fixed_at p ~high_ok ~est ~j:(guess - i) xh xl mph mpl mmh mml in
  if r < 0 then -1
  else begin
    let k = (r land 0xfff) - 1024 in
    if k = guess || attempts < 1 then r
    else
      relative_at p ~high_ok ~est ~i ~attempts:(attempts - 1) ~guess:k xh xl
        mph mpl mmh mml
  end
[@@lint.certified_width 62]

type kind = Shortest | Relative | Absolute

(* One attempt on the shared frame.  Shortest: (n lsl 12) lor (k + 1024)
   with the n digits in [p.digits]; fixed: see [pack_fixed]; -1 for an
   uncertain verdict. *)
let[@lint.no_alloc] run p ~f:(f [@lint.width 53]) ~lf:(lf [@lint.width 6])
    ~e:(e [@lint.width_signed 12]) ~narrow ~high_ok
    ~est:(est [@lint.width_signed 11]) ~(kind : kind)
    ~pos:(pos [@lint.width_signed 14]) =
  let t = load_frame p ~f ~lf ~e ~est in
  if t < 0 then -1
  else begin
    let (winc [@lint.width 28]) = p.winc
    and (winp [@lint.width 28]) = p.winp in
    let xh = window60 winp (t + 56) and xl = window56 winp t in
    (* m⁺ = 2^(e-1)·10^q = c·2^(-(t+1)); m⁻ shifts once more when the
       mantissa sits on a power-of-two boundary (narrow low gap). *)
    let mph = window60 winc (t + 57) and mpl = window56 winc (t + 1) in
    let mmh = if narrow then window60 winc (t + 58) else mph
    and mml = if narrow then window56 winc (t + 2) else mpl in
    if kind = Absolute then
      fixed_at p ~high_ok ~est ~j:pos xh xl mph mpl mmh mml
    else begin
      (* Shortest scales on the float range; Relative guesses its k the
         same way before widening (Scaling.scale_on_high on the
         unwidened range). *)
      let fix = too_low ~high_ok xh xl mph mpl in
      if fix < 0 then -1
      else if kind = Shortest then begin
        let n = start p ~high_ok ~fix xh xl mph mpl mmh mml in
        if n < 1 || n > max_digits then -1
        else (n lsl 12) lor (est + fix + 1024)
      end
      else if pos < 1 || pos > max_digits then -1
      else
        relative_at p ~high_ok ~est ~i:pos ~attempts:2 ~guess:(est + fix) xh
          xl mph mpl mmh mml
    end
  end
[@@lint.certified_width 62]

(* Run one attempt with the pool marked busy.  Not [Fun.protect]: the
   two closures it allocates are measurable at this call rate.  [run]
   only raises via the budget hooks. *)
let attempt p ~f ~lf ~e ~narrow ~high_ok ~est ~kind ~pos =
  p.busy <- true;
  match run p ~f ~lf ~e ~narrow ~high_ok ~est ~kind ~pos with
  | r ->
    p.busy <- false;
    r
  | exception ex ->
    let bt = Printexc.get_raw_backtrace () in
    p.busy <- false;
    Printexc.raise_with_backtrace ex bt

(* Attempt a certified shortest conversion of v = f·2^e.  [mantissa_bits]
   is bit_length f, [est] the caller's Fast_estimate of ceil(log10 v) —
   passed in (not recomputed) so the fixup arithmetic is grounded in the
   {e same} estimate the reference path would use.  Returns the digits
   (most significant first, no trailing zeros beyond what the loop
   emitted) and the decimal point position k, or [None] when any step
   is uncertain. *)
let convert_shortest ~f ~e ~mantissa_bits ~narrow ~high_ok ~est =
  let p = Domain.DLS.get pool_key in
  if p.busy then None
  else begin
    let r =
      attempt p ~f ~lf:mantissa_bits ~e ~narrow ~high_ok ~est
        ~kind:Shortest ~pos:0
    in
    if r < 0 then begin
      if Metrics.enabled () then Metrics.incr m_fallback;
      None
    end
    else begin
      if Metrics.enabled () then Metrics.incr m_hit;
      let n = r lsr 12 and k = (r land 0xfff) - 1024 in
      Some (Array.sub p.digits 0 n, k)
    end
  end

type fixed = { digits : int array; loop_digits : int; span : int; k : int }

let convert_fixed ~f ~e ~mantissa_bits ~narrow ~high_ok ~est ~relative ~pos =
  let p = Domain.DLS.get pool_key in
  if p.busy then None
  else begin
    let r =
      attempt p ~f ~lf:mantissa_bits ~e ~narrow ~high_ok ~est
        ~kind:(if relative then Relative else Absolute)
        ~pos
    in
    if r < 0 then begin
      if Metrics.enabled () then Metrics.incr m_fixed_fallback;
      None
    end
    else begin
      if Metrics.enabled () then Metrics.incr m_fixed_hit;
      let nz = (r lsr 12) land 31 in
      Some
        {
          digits = Array.sub p.digits 0 nz;
          loop_digits = r lsr 22;
          span = (r lsr 17) land 31;
          k = (r land 0xfff) - 1024;
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* The reader's table-certified tier

   The input side of the same table and product.  The reader hands in
   the leading digits of a decimal as w < 10^18 and its exponent q; the
   true value V is w·10^q, or lies in (w, w+1)·10^q when nonzero digits
   were dropped after w ([truncated]).  With w normalized to
   ws = w·2^s ∈ [2^59, 2^60) and 10^q = (c + θ)·2^gamma (θ ∈ [0,1)):

     V·2^(s-gamma) ∈ [L, H),  L = ws·c,  H = (ws + δ)(c + 1),

   δ = 2^s when truncated, else 0.  L < 2^188 is the exact seven-limb
   product; its top bit is 186 or 187, which fixes the unit
   u = 2^(128+k), k = 6 or 7, of a 53-bit significand.  Every value of
   [L, H) rounds to the same significand j when floor((L + u/2)/u) =
   floor((H - 1 + u/2)/u) = j and L + u/2 is not a multiple of u (then
   no tie point lies in the interval).  In units of 2^128, with
   T = floor(L/2^128) and M = the next 56 bits of L:

   - the low end is exactly floor((T + u/2)/u): L's bits below 2^128
     cannot reach the next multiple of u;
   - L + (H - L) - 1 < T·2^128 + (M + 2 + δ(C + 1))·2^72 for
     C = floor(c/2^72), so the high end is at most
     floor((T + carry + u/2)/u) with carry the spill of that sum over
     bit 128;
   - L + u/2 is a multiple of u only when L's low 128 bits are zero
     and T + u/2 is a multiple of u, so M = 0 with T on a half unit is
     treated as a possible tie (exactly representable values, whose
     low bits are zero too, have T on a whole unit).

   Subnormal and overflowing results are uncertain too: the exact
   reader owns gradual underflow and infinity. *)

(* The verdict "uncertain"; below every encoded result. *)
let uncertain = min_int

let mask52 = (1 lsl 52) - 1

(* Returns the correctly rounded binary64 as its IEEE bit pattern minus
   that of 1.0, which keeps every normal inside a native int, or
   [uncertain].  Callers check w ∈ [1, 2^60) and q against the table. *)
let[@lint.no_alloc] read_run p ~w:(w [@lint.width 60])
    ~q:(q [@lint.width_signed 10]) ~truncated =
  (* b = floor(log2 w) by binary search; the steps sum to 59 *)
  let b = if w >= 1 lsl 29 then 29 else 0 in
  let b = if w >= 1 lsl (b + 15) then b + 15 else b in
  let b = if w >= 1 lsl (b + 8) then b + 8 else b in
  let b = if w >= 1 lsl (b + 4) then b + 4 else b in
  let b = if w >= 1 lsl (b + 2) then b + 2 else b in
  let b = if w >= 1 lsl (b + 1) then b + 1 else b in
  let s = 59 - b in
  (* A truncated w has 18 digits (w ≥ 10^17 > 2^56), so s ≤ 3. *)
  if truncated && s > 3 then uncertain
  else begin
    (* w < 2^(b+1): mask60 is an identity *)
    let ws = (w lsl s) land mask60 in
    let (winc [@lint.width 28]) = p.winc
    and (winp [@lint.width 28]) = p.winp in
    load_entry winc q;
    fill_product winp winc ws;
    let t = window60 winp 128 and m = window56 winp 72 in
    let k = if t >= 1 lsl 59 then 7 else 6 in
    let h = 1 lsl (k - 1) in
    let y =
      if truncated then m + 2 + ((window56 winc 72 + 1) lsl (s land 3))
      else m + 2
    in
    let jlo = (t + h) lsr k and jhi = (t + (y lsr 56) + h) lsr k in
    if jlo <> jhi || (m = 0 && (t + h) land ((1 lsl k) - 1) = 0) then
      uncertain
    else begin
      (* jlo ∈ [2^52, 2^53] and V rounds to jlo·2^(gamma - s + 128 + k);
         a carry into 2^53 moves up one binade. *)
      let up = jlo lsr 53 in
      let be =
        Array.unsafe_get T.exps (q - T.q_min) - s + 128 + k + 52 + 1023 + up
      in
      if be < 1 || be > 2046 then uncertain
      else ((be - 1023) * (1 lsl 52)) + ((jlo lsr up) land mask52)
    end
  end
[@@lint.certified_width 62]

let read_decimal ~w ~q ~truncated =
  if w < 1 || w >= 1 lsl 60 || q < T.q_min || q > T.q_max then uncertain
  else begin
    (* [read_run] raises nothing and calls back into nothing, so it
       needs no busy mark of its own; it only stays off a pool that an
       outer attempt on this domain holds. *)
    let p = Domain.DLS.get pool_key in
    if p.busy then uncertain else read_run p ~w ~q ~truncated
  end
