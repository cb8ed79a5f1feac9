(* The table-driven fast path (lib/fastpath): the committed power-of-ten
   table re-derived entry by entry from exact Nat arithmetic, the
   128-bit product primitive cross-checked against Ext64.umul128 and
   Nat, uncertain-verdict behavior on hostile estimates, and the
   binary32 sweep — stratified by default, every positive finite value
   under BDPRINT_EXHAUSTIVE32=1 — asserting byte equality between the
   fast path and the exact kernels (themselves differentially pinned to
   the pure reference by test_fuzz) while measuring the fallback rate,
   capped at 5%.  The fixed-format entry point gets its own verdict
   checks and a hit-rate floor on the Schryer sample. *)

module Nat = Bignum.Nat
module T = Fastpath.Pow10_table
open Fp

let b32 = Format_spec.binary32
let b64 = Format_spec.binary64

(* ---------- table verification ---------- *)

(* Independent re-derivation of gamma(q) = floor(log2 10^q) - 127. *)
let gamma_ref q =
  if q >= 0 then Nat.bit_length (Nat.pow_int 10 q) - 1 - 127
  else -Nat.bit_length (Nat.pow_int 10 (-q)) - 127

let entry_nat q =
  let n = ref Nat.zero in
  for i = T.limbs_per_entry - 1 downto 0 do
    n :=
      Nat.add (Nat.shift_left !n 28)
        (Nat.of_int T.limbs.((T.limbs_per_entry * (q - T.q_min)) + i))
  done;
  !n

let test_table_matches_nat () =
  Alcotest.(check int) "span" 701 (T.q_max - T.q_min + 1);
  Alcotest.(check int)
    "limb array size"
    (T.limbs_per_entry * (T.q_max - T.q_min + 1))
    (Array.length T.limbs);
  let two_127 = Nat.shift_left Nat.one 127 in
  let two_128 = Nat.shift_left Nat.one 128 in
  for q = T.q_min to T.q_max do
    let gamma = T.exps.(q - T.q_min) in
    Alcotest.(check int) (Printf.sprintf "gamma(%d)" q) (gamma_ref q) gamma;
    let c = entry_nat q in
    if Nat.compare c two_127 < 0 || Nat.compare c two_128 >= 0 then
      Alcotest.failf "c(%d) not normalized to 128 bits" q;
    (* The underestimate invariant the kernel's one-sided error analysis
       rests on: c·2^gamma <= 10^q < (c+1)·2^gamma, checked exactly. *)
    if q >= 0 then begin
      let n = Nat.pow_int 10 q in
      let lo, hi =
        if gamma >= 0 then (Nat.shift_left c gamma, Nat.shift_left (Nat.succ c) gamma)
        else (c, Nat.succ c)
      in
      let n = if gamma >= 0 then n else Nat.shift_left n (-gamma) in
      if not (Nat.compare lo n <= 0 && Nat.compare n hi < 0) then
        Alcotest.failf "c(%d) is not floor(10^%d * 2^-gamma)" q q
    end
    else begin
      let d = Nat.pow_int 10 (-q) in
      let num = Nat.shift_left Nat.one (-gamma) in
      if
        not
          (Nat.compare (Nat.mul c d) num <= 0
          && Nat.compare num (Nat.mul (Nat.succ c) d) < 0)
      then Alcotest.failf "c(%d) is not floor(2^-gamma / 10^%d)" q (-q)
    end
  done

(* ---------- 128-bit product primitive ---------- *)

let nat_of_u64 = Nat.of_int64_unsigned

let test_umul128_vs_nat () =
  let st = Random.State.make [| 0x6bd; 128 |] in
  let check a b =
    let hi, lo = Ext64.umul128 a b in
    let p = Nat.mul (nat_of_u64 a) (nat_of_u64 b) in
    let hi_ref = Nat.shift_right p 64 in
    let lo_ref = Nat.sub p (Nat.shift_left hi_ref 64) in
    let eq got want =
      match Nat.to_int64_unsigned_opt want with
      | Some w -> Int64.equal got w
      | None -> false
    in
    if not (eq hi hi_ref && eq lo lo_ref) then
      Alcotest.failf "umul128 %Lx * %Lx disagrees with Nat" a b
  in
  check 0L 0L;
  check (-1L) (-1L);
  check Int64.min_int (-1L);
  check 0xFFFFFFFFL 0x100000001L;
  for _ = 1 to 2000 do
    check (Random.State.int64 st Int64.max_int |> Int64.mul 3L)
      (Random.State.int64 st Int64.max_int |> Int64.mul 5L)
  done

(* And the same product the kernel computes limbwise: f·c(q) recomputed
   via two umul128 calls (64x128) against the exact Nat product, for
   random mantissas against random table entries — cross-validating the
   shared primitive and the table in one pass. *)
let test_table_products () =
  let st = Random.State.make [| 0x6bd; 129 |] in
  for _ = 1 to 500 do
    let q = T.q_min + Random.State.int st (T.q_max - T.q_min + 1) in
    let f = 1 + Random.State.full_int st ((1 lsl 53) - 1) in
    let c = entry_nat q in
    let c_lo =
      Nat.to_int64_unsigned_opt
        (Nat.sub c (Nat.shift_left (Nat.shift_right c 64) 64))
      |> Option.get
    and c_hi = Nat.to_int64_unsigned_opt (Nat.shift_right c 64) |> Option.get in
    let f64 = Int64.of_int f in
    let h1, l1 = Ext64.umul128 f64 c_lo in
    let h2, l2 = Ext64.umul128 f64 c_hi in
    let combine =
      Nat.add
        (Nat.add (nat_of_u64 l1) (Nat.shift_left (nat_of_u64 h1) 64))
        (Nat.shift_left
           (Nat.add (nat_of_u64 l2) (Nat.shift_left (nat_of_u64 h2) 64))
           64)
    in
    if not (Nat.equal combine (Nat.mul (Nat.of_int f) c)) then
      Alcotest.failf "64x128 product mismatch at q=%d f=%d" q f
  done

(* ---------- uncertain verdicts on hostile inputs ---------- *)

let test_uncertain_verdicts () =
  (* estimate far outside the table *)
  Alcotest.(check bool)
    "est out of table" true
    (Fastpath.convert_shortest ~f:5 ~e:0 ~mantissa_bits:3 ~narrow:false
       ~high_ok:true ~est:400
    = None);
  (* estimate inconsistent with the value: the frame check must refuse
     rather than emit digits *)
  Alcotest.(check bool)
    "est off by a mile" true
    (Fastpath.convert_shortest ~f:5 ~e:0 ~mantissa_bits:3 ~narrow:false
       ~high_ok:true ~est:25
    = None);
  (* a mantissa lying about its bit length must be refused, not trusted *)
  Alcotest.(check bool)
    "bad bit length" true
    (Fastpath.convert_shortest ~f:(1 lsl 52) ~e:0 ~mantissa_bits:1
       ~narrow:false ~high_ok:true ~est:16
    = None)

(* ---------- monomorphized estimator agreement ---------- *)

(* The dispatcher uses [Scaling.fast_estimate_b10] (hoisted constants,
   no option) in place of [Scaling.estimate Fast_estimate ~base:10 ~b:2];
   byte-identical output depends on the two producing the same integer
   for every mantissa/exponent the fast path can see. *)
let test_fast_estimate_b10 () =
  let st = Random.State.make [| 0x7e57e57 |] in
  for _ = 1 to 20_000 do
    let f = 1 + Random.State.full_int st ((1 lsl 53) - 1) in
    let e = Random.State.int st 2400 - 1200 in
    let f_nat = Nat.of_int f in
    let reference =
      Dragon.Scaling.estimate Dragon.Scaling.Fast_estimate ~base:10 ~b:2
        ~f:f_nat ~e
      |> Option.get
    in
    let mono =
      Dragon.Scaling.fast_estimate_b10 ~bits:(Nat.bit_length f_nat) ~e
    in
    if mono <> reference then
      Alcotest.failf "fast_estimate_b10 f=%d e=%d: %d <> %d" f e mono
        reference
  done

(* ---------- differential sweeps ---------- *)

let without_fastpath f =
  let was = Fastpath.enabled () in
  Fastpath.set_enabled false;
  Fun.protect ~finally:(fun () -> Fastpath.set_enabled was) f

let print_both fmt value =
  let fast =
    match Dragon.Printer.print_value fmt value with
    | Ok s -> s
    | Error e -> "error: " ^ Robust.Error.to_string e
  in
  let exact =
    without_fastpath (fun () ->
        match Dragon.Printer.print_value fmt value with
        | Ok s -> s
        | Error e -> "error: " ^ Robust.Error.to_string e)
  in
  (fast, exact)

(* Every value the free-format pipeline sees dispatches through the
   fast path first, so printing with the gate on vs off is exactly the
   fastpath-vs-exact-kernels differential (and test_fuzz pins the exact
   kernels to the pure reference). *)
let check_value fmt bits value =
  let fast, exact = print_both fmt value in
  if not (String.equal fast exact) then
    Alcotest.failf "fastpath/exact mismatch on bits %Lx: %S vs %S" bits fast
      exact

(* binary32: every positive finite value is 1..0x7F7FFFFF.  The default
   stratified pass strides with a prime step so every binade is
   sampled; BDPRINT_EXHAUSTIVE32=1 sweeps all ~2^31 values (hours: the
   exact-kernel side dominates). *)
let test_binary32_sweep () =
  let exhaustive = Sys.getenv_opt "BDPRINT_EXHAUSTIVE32" = Some "1" in
  let step = if exhaustive then 1 else 10007 in
  let was_metrics = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  let hits0 = Fastpath.hit_count () and fb0 = Fastpath.fallback_count () in
  let tested = ref 0 in
  let bits = ref 1 in
  while !bits <= 0x7F7FFFFF do
    let value = Ieee.decompose_bits Ieee.spec_binary32 (Int64.of_int !bits) in
    (match value with
    | Value.Finite _ ->
      incr tested;
      check_value b32 (Int64.of_int !bits) value
    | _ -> ());
    bits := !bits + step
  done;
  let hits = Fastpath.hit_count () - hits0
  and fallbacks = Fastpath.fallback_count () - fb0 in
  Telemetry.Metrics.set_enabled was_metrics;
  Printf.printf
    "binary32 sweep: %d values, %d fastpath hits, %d fallbacks (%.3f%%)\n%!"
    !tested hits fallbacks
    (100.0 *. float_of_int fallbacks /. float_of_int (max 1 (hits + fallbacks)));
  Alcotest.(check bool) "swept a real population" true (!tested > 100_000);
  (* the dispatch gate was live: every sampled value was attempted *)
  Alcotest.(check bool)
    "attempts cover the sweep" true
    (hits + fallbacks >= !tested);
  Alcotest.(check bool)
    "fallback rate below 5%" true
    (float_of_int fallbacks /. float_of_int (max 1 (hits + fallbacks)) < 0.05)

(* binary64 spot sweep: random payloads plus the classic boundary
   values, fast path vs exact kernels. *)
let test_binary64_random () =
  let st = Random.State.make [| 0x6bd; 64 |] in
  let hard =
    [
      0x0000000000000001L (* min subnormal *);
      0x000FFFFFFFFFFFFFL (* max subnormal *);
      0x0010000000000000L (* min normal *);
      0x7FEFFFFFFFFFFFFFL (* max finite *);
      0x3FF0000000000000L (* 1.0 *);
      0x4340000000000000L (* 2^53 *);
      0x4330000000000001L (* 2^52 + 1 *);
      0x3FB999999999999AL (* 0.1 *);
      0x44B52D02C7E14AF6L (* 1e23-adjacent *);
      0x44B52D02C7E14AF7L;
    ]
  in
  List.iter
    (fun bits -> check_value b64 bits (Ieee.decompose (Int64.float_of_bits bits)))
    hard;
  let n = ref 0 in
  while !n < 20_000 do
    let bits =
      Int64.logand (Random.State.int64 st Int64.max_int) 0x7FFF_FFFF_FFFF_FFFFL
    in
    match Ieee.decompose (Int64.float_of_bits bits) with
    | Value.Finite _ as v ->
      incr n;
      check_value b64 bits v
    | _ -> ()
  done

(* The fast path must honor output-digit budgets with the reference
   cadence: a one-digit budget turns every multi-digit conversion into
   the same structured error on both sides of the gate. *)
let test_budget_parity () =
  let tight =
    { (Robust.Budget.get ()) with Robust.Budget.max_output_digits = 2 }
  in
  Robust.Budget.with_budget tight (fun () ->
      let v = Ieee.decompose 3.14159 in
      let fast, exact = print_both b64 v in
      Alcotest.(check string) "same budget outcome" exact fast;
      Alcotest.(check bool)
        "budget actually fired" true
        (String.length fast >= 6 && String.sub fast 0 6 = "error:"))

(* ---------- fixed format ---------- *)

let fixed_string fmt v req =
  match Dragon.Fixed_format.convert fmt v req with
  | Ok r -> Format.asprintf "%a" Dragon.Fixed_format.pp r
  | Error e -> "error: " ^ Robust.Error.to_string e

let test_fixed_uncertain_verdicts () =
  (* 0.1 = f·2^e with a full 53-bit mantissa; the dispatcher's estimate *)
  let f = 0x1999999999999a and e = -56 in
  let est0 = Dragon.Scaling.fast_estimate_b10 ~bits:53 ~e in
  let attempt ?(est = est0) ?(f = f) ?(e = e) ~relative ~pos () =
    Fastpath.convert_fixed ~f ~e ~mantissa_bits:(Nat.bit_length (Nat.of_int f))
      ~narrow:false ~high_ok:(f land 1 = 0) ~est ~relative ~pos
    = None
  in
  Alcotest.(check bool) "sane relative request hits" false
    (attempt ~relative:true ~pos:3 ());
  Alcotest.(check bool) "sane absolute request hits" false
    (attempt ~relative:false ~pos:(-5) ());
  Alcotest.(check bool) "est out of table" true
    (attempt ~est:400 ~relative:true ~pos:3 ());
  Alcotest.(check bool) "est off by a mile" true
    (attempt ~est:25 ~relative:true ~pos:3 ());
  Alcotest.(check bool) "relative width past 17" true
    (attempt ~relative:true ~pos:18 ());
  Alcotest.(check bool) "relative width below 1" true
    (attempt ~relative:true ~pos:0 ());
  Alcotest.(check bool) "absolute span past 17" true
    (attempt ~relative:false ~pos:(-30) ());
  Alcotest.(check bool) "absolute position far above" true
    (attempt ~relative:false ~pos:5 ());
  (* an exact tie on the half quantum: 2.5 = 5·2^-1 to one digit *)
  Alcotest.(check bool) "exact tie" true
    (attempt ~f:5 ~e:(-1) ~est:1 ~relative:true ~pos:1 ())

let test_fixed_budget_parity () =
  let tight =
    { (Robust.Budget.get ()) with Robust.Budget.max_output_digits = 2 }
  in
  Robust.Budget.with_budget tight (fun () ->
      match Ieee.decompose 3.14159 with
      | Value.Finite v ->
        List.iter
          (fun req ->
            let fast = fixed_string b64 v req in
            let exact = without_fastpath (fun () -> fixed_string b64 v req) in
            Alcotest.(check string) "same budget outcome" exact fast)
          Dragon.Fixed_format.[ Relative 2; Relative 3; Absolute (-1);
                                Absolute (-4) ]
      | _ -> assert false)

(* The claim behind the fixed-format tier: on the 2,000-value Schryer
   sample, 17-digit requests are answered by the fast path at least 95%
   of the time (the counters are deterministic), byte-identical to the
   exact kernels. *)
let test_fixed17_hit_rate () =
  let was_metrics = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_enabled was_metrics)
  @@ fun () ->
  let hits0 = Fastpath.fixed_hit_count ()
  and fb0 = Fastpath.fixed_fallback_count () in
  let values = Workloads.Schryer.corpus ~size:2000 () in
  Array.iter
    (fun x ->
      match Ieee.decompose x with
      | Value.Finite v ->
        let req = Dragon.Fixed_format.Relative 17 in
        let fast = fixed_string b64 v req in
        let exact = without_fastpath (fun () -> fixed_string b64 v req) in
        if fast <> exact then
          Alcotest.failf "fixed-17 mismatch on %h: %s vs %s" x fast exact
      | _ -> ())
    values;
  let hits = Fastpath.fixed_hit_count () - hits0
  and fallbacks = Fastpath.fixed_fallback_count () - fb0 in
  Printf.printf "fixed-17 on %d Schryer values: %d hits, %d fallbacks\n%!"
    (Array.length values) hits fallbacks;
  Alcotest.(check int) "every value attempted" (Array.length values)
    (hits + fallbacks);
  Alcotest.(check bool) "hit rate at least 95%" true
    (float_of_int hits >= 0.95 *. float_of_int (Array.length values))

let () =
  Alcotest.run "fastpath"
    [
      ( "table",
        [
          Alcotest.test_case "every entry matches exact Nat" `Quick
            test_table_matches_nat;
          Alcotest.test_case "umul128 vs Nat" `Quick test_umul128_vs_nat;
          Alcotest.test_case "64x128 table products" `Quick test_table_products;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "uncertain on hostile estimates" `Quick
            test_uncertain_verdicts;
          Alcotest.test_case "output-digit budget parity" `Quick
            test_budget_parity;
          Alcotest.test_case "monomorphized estimator agreement" `Quick
            test_fast_estimate_b10;
          Alcotest.test_case "fixed format uncertain verdicts" `Quick
            test_fixed_uncertain_verdicts;
          Alcotest.test_case "fixed format budget parity" `Quick
            test_fixed_budget_parity;
          Alcotest.test_case "fixed-17 hit rate on Schryer" `Quick
            test_fixed17_hit_rate;
        ] );
      ( "differential",
        [
          Alcotest.test_case "binary32 sweep byte-identical" `Slow
            test_binary32_sweep;
          Alcotest.test_case "binary64 random + boundaries" `Slow
            test_binary64_random;
        ] );
    ]
