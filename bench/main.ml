(* Benchmark harness regenerating the paper's evaluation (see DESIGN.md,
   experiment index):

   - table2:   relative CPU time of the scaling algorithms (Table 2)
   - table3:   free vs straightforward fixed vs printf + incorrect counts
               (Table 3)
   - digits:   shortest-output length distribution ("average 15.2 digits")
   - showcase: the in-text examples (1e23, # marks)
   - ablation: estimator accuracy (ours, E7)
   - sweep:    scaling cost by magnitude, the series behind Table 2 (ours)
   - reader:   certified fast paths vs exact (reader tiers, Gay fixed
               format; ours, E9)
   - service:  sequential vs supervised parallel streaming (ours, E10)
   - bignum:   substrate microbenchmarks (ours, E8)
   - kernel:   allocation-free digit loop vs pure-Nat reference
               (throughput + Gc.minor_words per conversion; writes
               BENCH_kernel.json)
   - bechamel: per-conversion microbenchmarks, one Test.make per table

   Run everything:            dune exec bench/main.exe
   One section:               dune exec bench/main.exe -- table2
   Bigger corpora:            dune exec bench/main.exe -- --size 250680 *)

module Nat = Bignum.Nat
module Value = Fp.Value

let b64 = Fp.Format_spec.binary64

let decompose_pos x =
  match Fp.Ieee.decompose x with
  | Value.Finite v -> v
  | _ -> invalid_arg "not finite"

(* CPU-time measurement, as in the paper. *)
let time_cpu f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let sink = ref 0

let line = String.make 72 '-'

(* ------------------------------------------------------------------ *)
(* Table 2: scaling algorithms *)

let table2 ~size () =
  Printf.printf "%s\nTable 2: relative CPU time of scaling algorithms\n" line;
  Printf.printf "(scaling step on %d Schryer doubles; base 10)\n\n" size;
  let values = Array.map decompose_pos (Workloads.Schryer.corpus ~size ()) in
  let boundaries = Array.map (Dragon.Boundaries.of_finite b64) values in
  let run_scaling strategy =
    snd
      (time_cpu (fun () ->
           Array.iteri
             (fun i (v : Value.finite) ->
               let k, _ =
                 Dragon.Scaling.scale strategy ~base:10 ~b:2 ~f:v.Value.f
                   ~e:v.Value.e boundaries.(i)
               in
               sink := !sink + k)
             values))
  in
  let run_end_to_end strategy =
    snd
      (time_cpu (fun () ->
           Array.iter
             (fun v ->
               let r = Dragon.Free_format.convert ~strategy b64 v in
               sink := !sink + Array.length r.Dragon.Free_format.digits)
             values))
  in
  (* warm up (also fills the power tables, as the paper's tables are) *)
  ignore (run_scaling Dragon.Scaling.Fast_estimate);
  ignore (run_scaling Dragon.Scaling.Iterative);
  let scaling = List.map (fun s -> (s, run_scaling s)) Dragon.Scaling.all in
  let full = List.map (fun s -> (s, run_end_to_end s)) Dragon.Scaling.all in
  let fast_s = List.assoc Dragon.Scaling.Fast_estimate scaling in
  let fast_f = List.assoc Dragon.Scaling.Fast_estimate full in
  Printf.printf "  %-16s %12s %10s %14s %12s\n" "Scaling" "scale (s)"
    "relative" "end-to-end (s)" "relative";
  List.iter
    (fun s ->
      let ts = List.assoc s scaling and tf = List.assoc s full in
      Printf.printf "  %-16s %12.3f %10.2f %14.3f %12.2f\n"
        (Dragon.Scaling.strategy_name s)
        ts (ts /. fast_s) tf (tf /. fast_f))
    Dragon.Scaling.all;
  Printf.printf
    "\n  paper (scaling step): iterative ~two orders of magnitude slower\n\
    \  than either estimate-based algorithm; estimator = 1.\n"

(* ------------------------------------------------------------------ *)
(* Table 3: free vs straightforward fixed vs printf *)

(* Parse the host printf's "d.dddddddddddddddde+XX" into (digits, k). *)
let parse_printf17 s =
  let digits = Array.make 17 0 in
  let di = ref 0 in
  let i = ref 0 in
  let n = String.length s in
  while !di < 17 && !i < n do
    (match s.[!i] with
    | '0' .. '9' as c ->
      digits.(!di) <- Char.code c - Char.code '0';
      incr di
    | _ -> ());
    if s.[!i] = 'e' then di := 17;
    incr i
  done;
  let epos = String.index s 'e' in
  let exp = int_of_string (String.sub s (epos + 1) (n - epos - 1)) in
  (digits, exp + 1)

let table3 ~size () =
  Printf.printf "%s\nTable 3: free format vs fixed format vs printf\n" line;
  Printf.printf "(%d Schryer doubles, 17 significant digits for the fixed \
                 printers)\n\n"
    size;
  let corpus = Workloads.Schryer.corpus ~size () in
  let values = Array.map decompose_pos corpus in
  let free () =
    Array.iter
      (fun v ->
        let r = Dragon.Free_format.convert b64 v in
        sink := !sink + String.length (Dragon.Render.free ~base:10 r))
      values
  in
  let fixed () =
    Array.iter
      (fun v ->
        let digits, _ =
          Baselines.Naive_fixed.convert_digit_loop ~ndigits:17 b64 v
        in
        sink := !sink + Array.length digits)
      values
  in
  let printf_host () =
    Array.iter
      (fun x -> sink := !sink + String.length (Printf.sprintf "%.16e" x))
      corpus
  in
  let printf_ext64 () =
    Array.iter
      (fun x ->
        let digits, _ = Baselines.Float_fixed.convert ~ndigits:17 x in
        sink := !sink + Array.length digits)
      corpus
  in
  ignore (time_cpu fixed);
  let _, t_free = time_cpu free in
  let _, t_fixed = time_cpu fixed in
  let _, t_printf = time_cpu printf_host in
  let _, t_ext = time_cpu printf_ext64 in
  (* incorrect-rounding counts at 17 digits *)
  let incorrect_printf = ref 0 and incorrect_ext = ref 0 in
  Array.iteri
    (fun i x ->
      let exact = Baselines.Naive_fixed.convert ~ndigits:17 b64 values.(i) in
      if parse_printf17 (Printf.sprintf "%.16e" x) <> exact then
        incr incorrect_printf;
      if Baselines.Float_fixed.convert ~ndigits:17 x <> exact then
        incr incorrect_ext)
    corpus;
  Printf.printf "  %-34s %12s %10s %10s\n" "Printer" "CPU time (s)" "Relative"
    "Incorrect";
  Printf.printf "  %-34s %12.3f %10.2f %10s\n" "free format (this paper)"
    t_free (t_free /. t_fixed) "-";
  Printf.printf "  %-34s %12.3f %10.2f %10d\n"
    "straightforward fixed (exact)" t_fixed 1.0 0;
  Printf.printf "  %-34s %12.3f %10.2f %10d\n" "host printf %.16e" t_printf
    (t_printf /. t_fixed) !incorrect_printf;
  Printf.printf "  %-34s %12.3f %10.2f %10d\n"
    "printf model (64-bit extended)" t_ext (t_ext /. t_fixed) !incorrect_ext;
  Printf.printf
    "\n  paper (geo. means): free/fixed = 1.66, fixed/printf = 1.51,\n\
    \  incorrect printf counts 0..6280 of 250,680 depending on system\n"

(* ------------------------------------------------------------------ *)
(* Digit statistics *)

let digit_stats ~size () =
  Printf.printf "%s\nShortest-output digit statistics\n" line;
  let corpus = Workloads.Schryer.corpus ~size () in
  let histogram = Array.make 18 0 in
  let total = ref 0 in
  Array.iter
    (fun x ->
      let n = Dragon.Free_format.digit_count b64 (decompose_pos x) in
      histogram.(n) <- histogram.(n) + 1;
      total := !total + n)
    corpus;
  Array.iteri
    (fun n count ->
      if count > 0 then Printf.printf "  %2d digits: %8d\n" n count)
    histogram;
  Printf.printf "  average %.2f digits over %d values (paper: 15.2)\n"
    (float_of_int !total /. float_of_int size)
    size

(* ------------------------------------------------------------------ *)
(* In-text showcase *)

let showcase () =
  Printf.printf "%s\nIn-text examples\n" line;
  Printf.printf "  1e23, reader rounds to even : %s\n" (Dragon.Printer.print 1e23);
  Printf.printf "  1e23, mode-oblivious        : %s\n"
    (Baselines.Steele_white.print 1e23);
  Printf.printf "  100 to 20 places            : %s\n"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Absolute (-20)) 100.);
  Printf.printf "  1/3 to 10 places            : %s\n"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Absolute (-10)) (1. /. 3.));
  Printf.printf "  min denormal, 10 digits     : %s\n"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Relative 10) 5e-324)

(* ------------------------------------------------------------------ *)
(* Ablation: estimator accuracy and scaling-only cost *)

let ablation ~size () =
  Printf.printf "%s\nAblation: estimate accuracy (estimate - k)\n" line;
  let corpus = Array.map decompose_pos (Workloads.Schryer.corpus ~size ()) in
  List.iter
    (fun strategy ->
      match strategy with
      | Dragon.Scaling.Iterative -> ()
      | _ ->
        let exact = ref 0 and low1 = ref 0 and other = ref 0 in
        Array.iter
          (fun (v : Value.finite) ->
            let k =
              (Dragon.Free_format.convert b64 v).Dragon.Free_format.k
            in
            match
              Dragon.Scaling.estimate strategy ~base:10 ~b:2 ~f:v.Value.f
                ~e:v.Value.e
            with
            | Some est when est = k -> incr exact
            | Some est when est = k - 1 -> incr low1
            | _ -> incr other)
          corpus;
        Printf.printf "  %-15s exact: %7d   one low: %7d   other: %d\n"
          (Dragon.Scaling.strategy_name strategy)
          !exact !low1 !other)
    Dragon.Scaling.all;
  Printf.printf
    "\n  (the fixup makes 'one low' free; 'other' must always be 0)\n"

(* ------------------------------------------------------------------ *)
(* Cost vs magnitude: the series behind Table 2 *)

let sweep () =
  Printf.printf
    "%s\nScaling cost by decimal magnitude (us/conversion, end to end)\n" line;
  Printf.printf "  %-12s %12s %12s %14s\n" "|log10 v| ~" "iterative"
    "fast-estimate" "ratio";
  List.iter
    (fun mag ->
      let x = 1.5 *. (10. ** float_of_int mag) in
      let v = decompose_pos x in
      let iterations = 400 in
      let run strategy =
        snd
          (time_cpu (fun () ->
               for _ = 1 to iterations do
                 ignore
                   (Sys.opaque_identity
                      (Dragon.Free_format.convert ~strategy b64 v))
               done))
        /. float_of_int iterations *. 1e6
      in
      let t_iter = run Dragon.Scaling.Iterative in
      let t_fast = run Dragon.Scaling.Fast_estimate in
      Printf.printf "  %-12d %12.2f %12.2f %14.1f\n" (abs mag) t_iter t_fast
        (t_iter /. t_fast))
    [ 0; 20; 50; 100; 200; 300; -20; -50; -100; -200; -300 ];
  Printf.printf
    "\n  (iterative scaling degrades linearly in |log v|; the estimator\n\
    \   is flat — the mechanism behind Table 2)\n"

(* ------------------------------------------------------------------ *)
(* Reader tiers and the Gay fixed-format fast path (ablations, ours) *)

let reader_bench ~size () =
  Printf.printf "%s\nReader: certified fast path vs exact (Clinger-style)\n"
    line;
  let corpus = Workloads.Schryer.corpus ~size () in
  (* shortest strings: the adversarial inputs closest to boundaries *)
  let strings = Array.map Dragon.Printer.print corpus in
  let _, t_exact =
    time_cpu (fun () ->
        Array.iter
          (fun s ->
            match Reader.read_float s with
            | Ok x -> sink := !sink + int_of_float x land 1
            | Error _ -> ())
          strings)
  in
  let before = Reader.Fast.stats () in
  let _, t_fast =
    time_cpu (fun () ->
        Array.iter
          (fun s ->
            match Reader.Fast.read s with
            | Ok x -> sink := !sink + int_of_float x land 1
            | Error _ -> ())
          strings)
  in
  let after = Reader.Fast.stats () in
  Printf.printf "  exact bignum reader: %8.3f s\n" t_exact;
  Printf.printf "  tiered fast reader:  %8.3f s  (%.1fx)\n" t_fast
    (t_exact /. t_fast);
  Printf.printf
    "  tiers on this corpus: %d hardware-exact, %d extended-certified, %d \
     bignum fallback\n"
    (after.Reader.Fast.exact - before.Reader.Fast.exact)
    (after.Reader.Fast.extended - before.Reader.Fast.extended)
    (after.Reader.Fast.fallback - before.Reader.Fast.fallback);
  (* Gay's fixed-format fast path *)
  let values = Array.map decompose_pos corpus in
  let _, t_naive =
    time_cpu (fun () ->
        Array.iter
          (fun v ->
            sink :=
              !sink
              + Array.length
                  (fst (Baselines.Naive_fixed.convert ~ndigits:15 b64 v)))
          values)
  in
  let h0 = Baselines.Gay_heuristic.fast_path_hits () in
  let f0 = Baselines.Gay_heuristic.fallbacks () in
  let _, t_gay =
    time_cpu (fun () ->
        Array.iter
          (fun v ->
            sink :=
              !sink
              + Array.length
                  (fst (Baselines.Gay_heuristic.convert ~ndigits:15 b64 v)))
          values)
  in
  Printf.printf
    "\n  Gay heuristic, fixed format at 15 digits (correct by construction):\n";
  Printf.printf "  exact conversion:    %8.3f s\n" t_naive;
  Printf.printf "  certified fast path: %8.3f s  (%.1fx; %d hits, %d fallbacks)\n"
    t_gay (t_naive /. t_gay)
    (Baselines.Gay_heuristic.fast_path_hits () - h0)
    (Baselines.Gay_heuristic.fallbacks () - f0)

(* ------------------------------------------------------------------ *)
(* Bignum substrate microbenchmarks *)

let bignum_bench () =
  Printf.printf "%s\nBignum substrate: multiplication crossover\n" line;
  let mk limbs seed =
    let st = Random.State.make [| seed |] in
    let rec build n acc =
      if n = 0 then acc
      else
        build (n - 1)
          (Nat.add (Nat.shift_left acc 30)
             (Nat.of_int (Random.State.int st ((1 lsl 30) - 1))))
    in
    build limbs Nat.one
  in
  List.iter
    (fun limbs ->
      let a = mk limbs 1 and b = mk limbs 2 in
      let iterations = max 1 (20_000 / limbs) in
      let t_school =
        snd
          (time_cpu (fun () ->
               for _ = 1 to iterations do
                 ignore (Sys.opaque_identity (Nat.mul_schoolbook a b))
               done))
      in
      let t_kara =
        snd
          (time_cpu (fun () ->
               for _ = 1 to iterations do
                 ignore (Sys.opaque_identity (Nat.mul_karatsuba a b))
               done))
      in
      Printf.printf
        "  %4d limbs (%5d bits): schoolbook %8.2f us   karatsuba %8.2f us\n"
        limbs (limbs * 30)
        (t_school /. float_of_int iterations *. 1e6)
        (t_kara /. float_of_int iterations *. 1e6))
    [ 4; 8; 16; 32; 64; 128; 256 ];
  Printf.printf "  (threshold used by Nat.mul: %d limbs)\n"
    Nat.karatsuba_threshold

(* ------------------------------------------------------------------ *)
(* Kernel: allocation-free digit loop vs the pure-Nat reference *)

let kernel_bench ~size () =
  Printf.printf
    "%s\nKernel: in-place digit-loop kernels vs pure-Nat reference\n" line;
  Printf.printf
    "(%d Schryer doubles; throughput and Gc.minor_words per conversion)\n\n"
    size;
  let values = Array.map decompose_pos (Workloads.Schryer.corpus ~size ()) in
  let fsize = float_of_int size in
  let free_pass () =
    Array.iter
      (fun v ->
        let r = Dragon.Free_format.convert b64 v in
        sink := !sink + Array.length r.Dragon.Free_format.digits)
      values
  in
  let fixed_pass () =
    Array.iter
      (fun v ->
        match
          Dragon.Fixed_format.convert b64 v (Dragon.Fixed_format.Relative 17)
        with
        | Ok t -> sink := !sink + Array.length t.Dragon.Fixed_format.digits
        | Error _ -> ())
      values
  in
  let sw_pass () =
    Array.iter
      (fun v ->
        sink :=
          !sink
          + Array.length
              (Baselines.Steele_white.convert b64 v).Dragon.Free_format.digits)
      values
  in
  (* Warm up first (power tables, scratch pools), then measure CPU time
     and the minor-allocation delta of one clean pass. *)
  let measure pass =
    pass ();
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let _, t = time_cpu pass in
    let w1 = Gc.minor_words () in
    (t, (w1 -. w0) /. fsize)
  in
  let forced_pure f =
    Dragon.Generate.set_force_pure true;
    Fun.protect ~finally:(fun () -> Dragon.Generate.set_force_pure false) f
  in
  let without_fastpath f =
    Dragon.Printer.set_fastpath_enabled false;
    Fun.protect ~finally:(fun () -> Dragon.Printer.set_fastpath_enabled true) f
  in
  (* The table-driven fast path finishes a pass in single-digit
     milliseconds at this corpus size, so repeat it to get a clock
     reading that dwarfs timer resolution. *)
  let fast_reps = 50 in
  let measure_repeated pass =
    pass ();
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let _, t =
      time_cpu (fun () ->
          for _ = 1 to fast_reps do
            pass ()
          done)
    in
    let w1 = Gc.minor_words () in
    let reps = float_of_int fast_reps in
    (t /. reps, (w1 -. w0) /. (fsize *. reps))
  in
  let fast_t, fast_w = measure_repeated free_pass in
  let fx_fast_t, fx_fast_w = measure_repeated fixed_pass in
  let scr_t, scr_w = without_fastpath (fun () -> measure free_pass) in
  let pure_t, pure_w = forced_pure (fun () -> measure free_pass) in
  let fx_scr_t, fx_scr_w = without_fastpath (fun () -> measure fixed_pass) in
  let fx_pure_t, fx_pure_w = forced_pure (fun () -> measure fixed_pass) in
  let sw_t, sw_w = measure sw_pass in
  (* Dispatch splits (counters record only while telemetry is on): the
     fast path's hit/fallback division of one pass per format, then the
     word/scratch division of the exact kernels with the fast path
     off. *)
  let with_telemetry f =
    Telemetry.set_enabled true;
    f ();
    Telemetry.set_enabled false
  in
  let h0, fb0 = Dragon.Printer.fastpath_stats () in
  with_telemetry free_pass;
  let h1, fb1 = Dragon.Printer.fastpath_stats () in
  let fp_hits = h1 - h0 and fp_fallbacks = fb1 - fb0 in
  let rate hits fallbacks =
    float_of_int fallbacks /. float_of_int (max 1 (hits + fallbacks))
  in
  let fallback_rate = rate fp_hits fp_fallbacks in
  let xh0 = Fastpath.fixed_hit_count ()
  and xfb0 = Fastpath.fixed_fallback_count () in
  with_telemetry fixed_pass;
  let fx_hits = Fastpath.fixed_hit_count () - xh0
  and fx_fallbacks = Fastpath.fixed_fallback_count () - xfb0 in
  let fx_fallback_rate = rate fx_hits fx_fallbacks in
  let f0 = Dragon.Generate.fastpath_count ()
  and s0 = Dragon.Generate.scratchpath_count () in
  with_telemetry (fun () -> without_fastpath free_pass);
  let fast_hits = Dragon.Generate.fastpath_count () - f0
  and scratch_hits = Dragon.Generate.scratchpath_count () - s0 in
  let row name t w =
    Printf.printf "  %-40s %10.3f s %12.0f conv/s %12.1f minor w/conv\n" name t
      (fsize /. t) w
  in
  row "free format, table fast path" fast_t fast_w;
  row "free format, kernel path" scr_t scr_w;
  row "free format, pure-Nat path" pure_t pure_w;
  row "fixed format (17), table fast path" fx_fast_t fx_fast_w;
  row "fixed format (17), kernel path" fx_scr_t fx_scr_w;
  row "fixed format (17), pure-Nat path" fx_pure_t fx_pure_w;
  row "Steele & White baseline" sw_t sw_w;
  Printf.printf
    "\n  free format: %.1fx fewer minor words, %.2fx throughput; digit loop\n\
    \  paths on this corpus: %d word-sized fast, %d scratch\n"
    (pure_w /. scr_w)
    (pure_t /. scr_t) fast_hits scratch_hits;
  let speedup = scr_t /. fast_t and fx_speedup = fx_scr_t /. fx_fast_t in
  Printf.printf
    "  table fast path: %.2fx over the exact kernels (%.2fx over pure), %d \
     hits / %d fallbacks (%.3f%% fallback)\n"
    speedup (pure_t /. fast_t) fp_hits fp_fallbacks
    (100.0 *. fallback_rate);
  Printf.printf
    "  fixed (17) table fast path: %.2fx over the exact kernels (%.2fx over \
     pure), %d hits / %d fallbacks (%.3f%% fallback)\n"
    fx_speedup (fx_pure_t /. fx_fast_t) fx_hits fx_fallbacks
    (100.0 *. fx_fallback_rate);
  let oc = open_out "BENCH_kernel.json" in
  Printf.fprintf oc
    "{\n\
    \  \"size\": %d,\n\
    \  \"free_format\": {\n\
    \    \"fastpath\": { \"time_s\": %.6f, \"conversions_per_s\": %.0f, \
     \"minor_words_per_conversion\": %.1f, \"hits\": %d, \"fallbacks\": %d, \
     \"fallback_rate\": %.5f, \"speedup_vs_kernel\": %.3f, \
     \"speedup_vs_pure\": %.3f },\n\
    \    \"kernel\": { \"time_s\": %.6f, \"conversions_per_s\": %.0f, \
     \"minor_words_per_conversion\": %.1f },\n\
    \    \"pure\": { \"time_s\": %.6f, \"conversions_per_s\": %.0f, \
     \"minor_words_per_conversion\": %.1f },\n\
    \    \"minor_words_reduction\": %.2f,\n\
    \    \"speedup\": %.3f\n\
    \  },\n\
    \  \"fixed_format_17\": {\n\
    \    \"fastpath\": { \"time_s\": %.6f, \"conversions_per_s\": %.0f, \
     \"minor_words_per_conversion\": %.1f, \"hits\": %d, \"fallbacks\": %d, \
     \"fallback_rate\": %.5f, \"speedup_vs_kernel\": %.3f, \
     \"speedup_vs_pure\": %.3f },\n\
    \    \"kernel\": { \"time_s\": %.6f, \"conversions_per_s\": %.0f, \
     \"minor_words_per_conversion\": %.1f },\n\
    \    \"pure\": { \"time_s\": %.6f, \"conversions_per_s\": %.0f, \
     \"minor_words_per_conversion\": %.1f },\n\
    \    \"minor_words_reduction\": %.2f,\n\
    \    \"speedup\": %.3f\n\
    \  },\n\
    \  \"steele_white\": { \"time_s\": %.6f, \"conversions_per_s\": %.0f, \
     \"minor_words_per_conversion\": %.1f },\n\
    \  \"digit_loop_paths\": { \"fastpath\": %d, \"scratchpath\": %d }\n\
     }\n"
    size fast_t (fsize /. fast_t) fast_w fp_hits fp_fallbacks fallback_rate
    speedup (pure_t /. fast_t) scr_t (fsize /. scr_t) scr_w pure_t
    (fsize /. pure_t) pure_w (pure_w /. scr_w) (pure_t /. scr_t) fx_fast_t
    (fsize /. fx_fast_t) fx_fast_w fx_hits fx_fallbacks fx_fallback_rate
    fx_speedup (fx_pure_t /. fx_fast_t) fx_scr_t (fsize /. fx_scr_t) fx_scr_w
    fx_pure_t (fsize /. fx_pure_t) fx_pure_w (fx_pure_w /. fx_scr_w)
    (fx_pure_t /. fx_scr_t) sw_t (fsize /. sw_t) sw_w fast_hits scratch_hits;
  close_out oc;
  Printf.printf "  wrote BENCH_kernel.json\n";
  (* Acceptance floors: each table fast path must clear 3x the exact
     kernels on this corpus, and fixed format must answer at least 95%
     of its requests itself; regressing below either fails the bench
     (and the CI bench step) loudly. *)
  let failed = ref false in
  let floor ok fmt =
    Printf.ksprintf
      (fun msg ->
        if not ok then begin
          Printf.eprintf "FAIL: %s\n" msg;
          failed := true
        end)
      fmt
  in
  floor (speedup >= 3.0) "fast-path speedup %.2fx below the 3x acceptance floor"
    speedup;
  floor (fx_speedup >= 3.0)
    "fixed-format fast-path speedup %.2fx below the 3x acceptance floor"
    fx_speedup;
  floor (fx_fallback_rate <= 0.05)
    "fixed-format fast-path fallback rate %.2f%% above the 5%% ceiling"
    (100.0 *. fx_fallback_rate);
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Service layer: sequential vs supervised parallel throughput (E10) *)

let service_bench ~size () =
  Printf.printf
    "%s\nService: sequential vs supervised parallel throughput (wall clock)\n"
    line;
  Printf.printf
    "(read + shortest print round trip on %d Schryer doubles; %d core(s))\n\n"
    size
    (Domain.recommended_domain_count ());
  let strings = Array.map Dragon.Printer.print (Workloads.Schryer.corpus ~size ()) in
  let convert input =
    match
      Reader.read ~mode:Fp.Rounding.To_nearest_even Fp.Format_spec.binary64
        input
    with
    | Error _ as e -> e
    | Ok v ->
      Dragon.Printer.print_value ~base:10 ~mode:Fp.Rounding.To_nearest_even
        ~strategy:Dragon.Scaling.Fast_estimate ~notation:Dragon.Render.Auto
        Fp.Format_spec.binary64 v
  in
  (* the supervisor adds queueing and reordering, so compare wall time,
     not CPU time *)
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let sequential () =
    Array.iter
      (fun s ->
        match convert s with
        | Ok out -> sink := !sink + String.length out
        | Error _ -> ())
      strings
  in
  let supervised jobs () =
    let svc =
      Service.Supervisor.start ~jobs ~queue_capacity:256
        ~emit:(fun r ->
          match r.Service.Supervisor.outcome with
          | Service.Supervisor.Done out -> sink := !sink + String.length out
          | _ -> ())
        convert
    in
    Array.iteri (fun i s -> Service.Supervisor.submit svc ~lineno:(i + 1) s)
      strings;
    ignore (Service.Supervisor.shutdown svc)
  in
  ignore (wall sequential);
  let t_seq = wall sequential in
  let rate t = float_of_int size /. t in
  Printf.printf "  %-22s %10.3f s %12.0f lines/s %8s\n" "sequential" t_seq
    (rate t_seq) "1.00";
  List.iter
    (fun jobs ->
      let t = wall (supervised jobs) in
      Printf.printf "  %-22s %10.3f s %12.0f lines/s %8.2f\n"
        (Printf.sprintf "service --jobs %d" jobs)
        t (rate t) (t_seq /. t))
    [ 1; 2; 4 ];
  Printf.printf
    "\n  (ratio > 1 means faster than sequential; on a single-core host the\n\
    \   service measures supervision overhead, not parallel speedup)\n"

(* ------------------------------------------------------------------ *)
(* Daemon: open/closed-loop load generator against bdprintd (E11).

   Targets BDPRINTD_ADDR (host:port, an externally started daemon — the
   CI smoke job's mode) or, absent that, an in-process Net.Server on an
   ephemeral port.  Every reply is verified against a fault-free
   client-side conversion (OK must match exactly, DEG must read back to
   the same value), so a chaos-faulted run proves zero wrong outputs
   under worker kills.  Latency percentiles and the daemon's
   shed/crash counters land in BENCH_service.json; any wrong
   output makes the bench exit non-zero. *)

let daemon_bench ~size () =
  Printf.printf "%s\nDaemon: bdprintd load generation (closed loop + burst)\n"
    line;
  let module Wire = Net.Wire in
  let module Server = Net.Server in
  let module Faults = Robust.Faults in
  let convert input =
    match
      Reader.read ~mode:Fp.Rounding.To_nearest_even Fp.Format_spec.binary64
        input
    with
    | Error _ as e -> e
    | Ok v ->
      Dragon.Printer.print_value ~base:10 ~mode:Fp.Rounding.To_nearest_even
        ~strategy:Dragon.Scaling.Fast_estimate ~notation:Dragon.Render.Auto
        Fp.Format_spec.binary64 v
  in
  (* corpus: Schryer doubles plus a quarter of repeats from a small hot
     set *)
  let hot = [| "0.1"; "1"; "0.5"; "1e23"; "-2.5"; "3.75" |] in
  let corpus =
    Array.map Dragon.Printer.print (Workloads.Schryer.corpus ~size ())
  in
  let inputs =
    Array.init size (fun i ->
        if i mod 4 = 0 then hot.(i mod Array.length hot) else corpus.(i))
  in
  (* expected outputs, computed fault-free: briefly disarm any ambient
     fault points (the daemon under test keeps its own arming; in-process
     servers re-arm right after) *)
  let armed =
    List.filter_map
      (fun p ->
        match Faults.probability p with
        | Some pr -> Some (p, pr)
        | None -> None)
      Faults.points
  in
  Faults.disarm_all ();
  let expected = Hashtbl.create (2 * size) in
  Array.iter
    (fun s -> if not (Hashtbl.mem expected s) then Hashtbl.add expected s (convert s))
    inputs;
  List.iter (fun (p, pr) -> Faults.arm ~probability:pr p) armed;
  let in_process, host, port =
    (* the address is vetted through the client's typed parser before
       any socket is opened: a malformed BDPRINTD_ADDR exits 2 with a
       structured range error instead of a late Failure mid-bench *)
    match Sys.getenv_opt "BDPRINTD_ADDR" with
    | Some addr -> (
      match Net.Client.parse_addr addr with
      | Result.Ok (Net.Client.Tcp (h, p)) -> (None, h, p)
      | Result.Ok (Net.Client.Unix_path _) ->
        Printf.eprintf "error: %s\n%!"
          (Robust.Error.to_string
             (Robust.Error.range ~what:"BDPRINTD_ADDR"
                "the daemon bench needs a TCP address (HOST:PORT)"));
        exit 2
      | Result.Error e ->
        Printf.eprintf "error: %s\n%!" (Robust.Error.to_string e);
        exit 2)
    | None ->
      let server =
        match
          Server.start
            ~config:{ Server.default_config with Server.jobs = 3 }
            ~convert
            (Server.Tcp ("127.0.0.1", 0))
        with
        | Result.Ok s -> s
        | Result.Error e ->
          failwith ("daemon bench: " ^ Robust.Error.to_string e)
      in
      (Some server, "127.0.0.1", Option.get (Server.port server))
  in
  Printf.printf "(%d requests against %s:%d%s)\n\n" size host port
    (if in_process = None then " [external daemon]" else " [in-process]");
  (* minimal blocking line client *)
  let module C = struct
    type t = {
      fd : Unix.file_descr;
      buf : Bytes.t;
      mutable pos : int;
      mutable len : int;
      acc : Buffer.t;
    }

    let connect () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
      { fd; buf = Bytes.create 8192; pos = 0; len = 0; acc = Buffer.create 64 }

    let send t s =
      let b = Bytes.of_string s in
      let rec go off len =
        if len > 0 then begin
          let n = Unix.write t.fd b off len in
          go (off + n) (len - n)
        end
      in
      go 0 (Bytes.length b)

    let rec line t =
      if t.pos >= t.len then begin
        let n = Unix.read t.fd t.buf 0 (Bytes.length t.buf) in
        if n = 0 then failwith "daemon closed the connection";
        t.pos <- 0;
        t.len <- n;
        line t
      end
      else
        match Bytes.index_from_opt t.buf t.pos '\n' with
        | Some i when i < t.len ->
          Buffer.add_subbytes t.acc t.buf t.pos (i - t.pos);
          t.pos <- i + 1;
          let s = Buffer.contents t.acc in
          Buffer.clear t.acc;
          s
        | _ ->
          Buffer.add_subbytes t.acc t.buf t.pos (t.len - t.pos);
          t.pos <- t.len;
          line t

    let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end in
  let n_ok = Atomic.make 0
  and n_deg = Atomic.make 0
  and n_shed = Atomic.make 0
  and n_err = Atomic.make 0
  and n_wrong = Atomic.make 0 in
  let classify input reply_line =
    match (Wire.parse_reply_line reply_line, Hashtbl.find_opt expected input) with
    | Ok (Wire.Converted out), Some (Ok e) ->
      if out = e then Atomic.incr n_ok else Atomic.incr n_wrong
    | Ok (Wire.Degraded out), Some (Ok e) ->
      if float_of_string out = float_of_string e then Atomic.incr n_deg
      else Atomic.incr n_wrong
    | Ok (Wire.Failed _), Some (Error _) -> Atomic.incr n_err
    | Ok (Wire.Shed _), _ -> Atomic.incr n_shed
    | _, _ -> Atomic.incr n_wrong
  in
  let threads = 4 in
  let per_thread = size / threads in
  (* phase 1 — closed loop: one request in flight per client; per-request
     round-trip latency in microseconds *)
  let latencies = Array.make (threads * per_thread) 0.0 in
  let closed_loop tid () =
    let c = C.connect () in
    for i = 0 to per_thread - 1 do
      let input = inputs.(((tid * per_thread) + i) mod size) in
      let t0 = Unix.gettimeofday () in
      C.send c ("CONV " ^ input ^ "\n");
      let reply = C.line c in
      latencies.((tid * per_thread) + i) <-
        (Unix.gettimeofday () -. t0) *. 1e6;
      classify input reply
    done;
    C.close c
  in
  let t0 = Unix.gettimeofday () in
  let ts = List.init threads (fun i -> Thread.create (closed_loop i) ()) in
  List.iter Thread.join ts;
  let closed_wall = Unix.gettimeofday () -. t0 in
  (* phase 2 — burst (open-loop approximation): pipeline a window of
     requests before reading any reply; induces admission shedding *)
  let window = 128 in
  let bursts_per_thread = max 1 (per_thread / window) in
  let burst tid () =
    let c = C.connect () in
    for b = 0 to bursts_per_thread - 1 do
      let base = ((tid * bursts_per_thread) + b) * window in
      for k = 0 to window - 1 do
        C.send c ("CONV " ^ inputs.((base + k) mod size) ^ "\n")
      done;
      for k = 0 to window - 1 do
        classify inputs.((base + k) mod size) (C.line c)
      done
    done;
    C.close c
  in
  let t1 = Unix.gettimeofday () in
  let ts = List.init threads (fun i -> Thread.create (burst i) ()) in
  List.iter Thread.join ts;
  let burst_wall = Unix.gettimeofday () -. t1 in
  let burst_requests = threads * bursts_per_thread * window in
  (* daemon-side counters over the STATS verb *)
  let stats_json =
    let c = C.connect () in
    C.send c "STATS\n";
    let header = C.line c in
    let body =
      match Wire.payload_length header with
      | Some n ->
        let b = Buffer.create n in
        let rec fill () =
          if Buffer.length b < n then begin
            Buffer.add_string b (C.line c);
            fill ()
          end
        in
        fill ();
        Buffer.contents b
      | None -> "{}"
    in
    C.close c;
    body
  in
  let counter_of key =
    (* flat {"key":int,...} extraction; good enough for our own format *)
    let needle = "\"" ^ key ^ "\":" in
    match String.index_opt stats_json '{' with
    | None -> 0
    | Some _ -> (
      let rec find i =
        if i + String.length needle > String.length stats_json then None
        else if String.sub stats_json i (String.length needle) = needle then
          Some (i + String.length needle)
        else find (i + 1)
      in
      match find 0 with
      | None -> 0
      | Some s ->
        let e = ref s in
        while
          !e < String.length stats_json
          && (match stats_json.[!e] with '0' .. '9' | '-' -> true | _ -> false)
        do
          incr e
        done;
        if !e > s then int_of_string (String.sub stats_json s (!e - s)) else 0)
  in
  (match in_process with
  | Some server ->
    Server.drain server;
    ignore (Server.wait server)
  | None -> ());
  Array.sort compare latencies;
  let pct p =
    latencies.(int_of_float (p *. float_of_int (Array.length latencies - 1)))
  in
  let mean =
    Array.fold_left ( +. ) 0.0 latencies /. float_of_int (Array.length latencies)
  in
  let total_requests = (threads * per_thread) + burst_requests in
  Printf.printf "  closed loop : %d requests, %.2f s, %.0f req/s\n"
    (threads * per_thread) closed_wall
    (float_of_int (threads * per_thread) /. closed_wall);
  Printf.printf "  latency us  : p50 %.0f   p90 %.0f   p99 %.0f   mean %.0f\n"
    (pct 0.50) (pct 0.90) (pct 0.99) mean;
  Printf.printf "  burst       : %d requests, %.2f s, %.0f req/s\n"
    burst_requests burst_wall
    (float_of_int burst_requests /. burst_wall);
  Printf.printf "  outcomes    : %d ok, %d degraded, %d failed, %d shed, %d WRONG\n"
    (Atomic.get n_ok) (Atomic.get n_deg) (Atomic.get n_err)
    (Atomic.get n_shed) (Atomic.get n_wrong);
  Printf.printf "  daemon      : %d shed, %d crashes, %d respawns\n"
    (counter_of "shed_queue_full" + counter_of "shed_draining")
    (counter_of "sup_crashes") (counter_of "sup_respawns");
  let oc = open_out "BENCH_service.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "bdprintd load generation",
  "target": "%s:%d",
  "mode": "%s",
  "threads": %d,
  "requests": %d,
  "closed_loop": { "requests": %d, "wall_s": %.3f, "rps": %.0f },
  "burst": { "requests": %d, "window": %d, "wall_s": %.3f, "rps": %.0f },
  "latency_us": { "p50": %.0f, "p90": %.0f, "p99": %.0f, "mean": %.0f },
  "outcomes": { "ok": %d, "degraded": %d, "failed": %d, "shed": %d, "wrong": %d },
  "daemon": { "shed_queue_full": %d, "shed_draining": %d, "crashes": %d,
              "respawns": %d, "breaker_trips": %d }
}
|}
    host port
    (if in_process = None then "external" else "in-process")
    threads total_requests (threads * per_thread) closed_wall
    (float_of_int (threads * per_thread) /. closed_wall)
    burst_requests window burst_wall
    (float_of_int burst_requests /. burst_wall)
    (pct 0.50) (pct 0.90) (pct 0.99) mean (Atomic.get n_ok) (Atomic.get n_deg)
    (Atomic.get n_err) (Atomic.get n_shed) (Atomic.get n_wrong)
    (counter_of "shed_queue_full")
    (counter_of "shed_draining")
    (counter_of "sup_crashes") (counter_of "sup_respawns")
    (counter_of "sup_breaker_trips");
  close_out oc;
  Printf.printf "  wrote BENCH_service.json\n";
  if Atomic.get n_wrong > 0 then begin
    Printf.eprintf "daemon bench: %d WRONG outputs\n%!" (Atomic.get n_wrong);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Telemetry: instrumentation overhead of the metrics/tracing layer *)

let telemetry_bench ~size () =
  Printf.printf
    "%s\nTelemetry: instrumentation overhead (free-format conversion)\n" line;
  Printf.printf "(%d Schryer doubles; medians of alternating passes)\n\n" size;
  let values = Array.map decompose_pos (Workloads.Schryer.corpus ~size ()) in
  let pass () =
    Array.iter
      (fun v ->
        let r = Dragon.Free_format.convert b64 v in
        sink := !sink + Array.length r.Dragon.Free_format.digits)
      values
  in
  (* the tracing pass mirrors what the CLI does per request: sample a
     trace id (1-in-64 by default), run the conversion inside the
     request span, close it *)
  let traced_pass () =
    Array.iter
      (fun v ->
        let tid = Telemetry.Tracing.begin_request () in
        let r = Dragon.Free_format.convert b64 v in
        sink := !sink + Array.length r.Dragon.Free_format.digits;
        Telemetry.Tracing.end_request tid)
      values
  in
  pass () (* warm up; fills the power tables *);
  let reps = 25 in
  let t_off = Array.make reps 0.
  and t_on = Array.make reps 0.
  and t_trace = Array.make reps 0. in
  (* alternate enabled/disabled/traced passes so clock drift and GC
     phase hit all sides equally *)
  for i = 0 to reps - 1 do
    Telemetry.set_enabled false;
    Telemetry.Tracing.set_enabled false;
    t_off.(i) <- snd (time_cpu pass);
    Telemetry.set_enabled true;
    t_on.(i) <- snd (time_cpu pass);
    Telemetry.Tracing.set_enabled true;
    Telemetry.Tracing.set_sample_every 64;
    Telemetry.Tracing.clear ();
    t_trace.(i) <- snd (time_cpu traced_pass);
    Telemetry.Tracing.set_enabled false
  done;
  Telemetry.set_enabled false;
  Telemetry.Tracing.clear ();
  let median a =
    let b = Array.copy a in
    Array.sort compare b;
    b.(Array.length b / 2)
  in
  let m_off = median t_off
  and m_on = median t_on
  and m_trace = median t_trace in
  let ns t = t /. float_of_int size *. 1e9 in
  (* overhead is the median of per-rep paired ratios: the three passes
     of one rep are adjacent in time, so machine noise (frequency
     scaling, neighbour load) hits the pair together and cancels in the
     ratio, where a ratio of independent medians would keep it *)
  let paired_overhead base t =
    median (Array.init reps (fun i -> (t.(i) -. base.(i)) /. base.(i)))
    *. 100.
  in
  let overhead = paired_overhead t_off t_on in
  let overhead_trace = paired_overhead t_off t_trace in
  (* what tracing itself costs: traced pass against the adjacent
     metrics-enabled pass, so the budget judges the tracing layer and
     not the (pre-existing) stage histograms under it *)
  let marginal_trace = paired_overhead t_on t_trace in
  Printf.printf "  %-28s %10.3f s %10.1f ns/conversion\n"
    "telemetry disabled" m_off (ns m_off);
  Printf.printf "  %-28s %10.3f s %10.1f ns/conversion\n"
    "telemetry enabled" m_on (ns m_on);
  Printf.printf "  %-28s %10.3f s %10.1f ns/conversion\n"
    "+ tracing (1-in-64)" m_trace (ns m_trace);
  Printf.printf
    "  overhead vs disabled: metrics %.2f%%, metrics+tracing %.2f%%\n"
    overhead overhead_trace;
  Printf.printf
    "  tracing marginal: %.2f%% over metrics alone (budget: <= 2%% median)\n"
    marginal_trace;
  let oc = open_out "BENCH_telemetry.json" in
  Printf.fprintf oc
    "{\n\
    \  \"size\": %d,\n\
    \  \"repetitions\": %d,\n\
    \  \"median_disabled_s\": %.6f,\n\
    \  \"median_enabled_s\": %.6f,\n\
    \  \"median_traced_s\": %.6f,\n\
    \  \"ns_per_conversion_disabled\": %.1f,\n\
    \  \"ns_per_conversion_enabled\": %.1f,\n\
    \  \"ns_per_conversion_traced\": %.1f,\n\
    \  \"trace_sample_every\": 64,\n\
    \  \"overhead_percent\": %.2f,\n\
    \  \"overhead_traced_percent\": %.2f,\n\
    \  \"tracing_marginal_percent\": %.2f\n\
     }\n"
    size reps m_off m_on m_trace (ns m_off) (ns m_on) (ns m_trace) overhead
    overhead_trace marginal_trace;
  close_out oc;
  Printf.printf "  wrote BENCH_telemetry.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per table *)

let bechamel_benches () =
  Printf.printf "%s\nBechamel microbenchmarks (ns per conversion, OLS)\n" line;
  let open Bechamel in
  let corpus = Array.map decompose_pos (Workloads.Schryer.corpus ~size:512 ()) in
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) land 511;
    corpus.(!cursor)
  in
  let table2_tests =
    List.map
      (fun strategy ->
        Test.make
          ~name:
            (Printf.sprintf "table2/%s" (Dragon.Scaling.strategy_name strategy))
          (Staged.stage (fun () ->
               Dragon.Free_format.convert ~strategy b64 (next ()))))
      [ Dragon.Scaling.Fast_estimate; Dragon.Scaling.Float_log;
        Dragon.Scaling.Gay_taylor; Dragon.Scaling.Iterative ]
  in
  let table3_tests =
    [
      Test.make ~name:"table3/free-format"
        (Staged.stage (fun () -> Dragon.Free_format.convert b64 (next ())));
      Test.make ~name:"table3/naive-fixed-17"
        (Staged.stage (fun () ->
             Baselines.Naive_fixed.convert ~ndigits:17 b64 (next ())));
      Test.make ~name:"table3/host-printf"
        (Staged.stage (fun () ->
             Printf.sprintf "%.16e" (Fp.Ieee.compose (Value.Finite (next ())))));
      Test.make ~name:"table3/printf-model-ext64"
        (Staged.stage (fun () ->
             Baselines.Float_fixed.convert ~ndigits:17
               (Fp.Ieee.compose (Value.Finite (next ())))));
    ]
  in
  let tests =
    Test.make_grouped ~name:"bdprint" (table2_tests @ table3_tests)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "  %-38s %12.1f ns\n" name t
      | _ -> Printf.printf "  %-38s %12s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let size = ref 0 in
  let sections = ref [] in
  let rec parse = function
    | [] -> ()
    | "--size" :: n :: rest ->
      size := int_of_string n;
      parse rest
    | s :: rest ->
      if s <> Sys.argv.(0) then sections := s :: !sections;
      parse rest
  in
  parse (List.tl args);
  (* [bench -- all]: regenerate every committed BENCH_*.json in one run
     (kernel, telemetry, daemon) — the CI bench step drives this and
     uploads the refreshed files as artifacts; any bench that fails its
     own acceptance check (wrong daemon outputs, fast-path speedup
     under the floor) exits nonzero and fails the step loudly. *)
  if List.mem "all" !sections then
    sections := [ "kernel"; "telemetry"; "daemon" ];
  let has s = !sections = [] || List.mem s !sections in
  let pick default = if !size > 0 then !size else default in
  if has "table2" then table2 ~size:(pick 8_000) ();
  if has "table3" then table3 ~size:(pick 40_000) ();
  if has "digits" then digit_stats ~size:(pick 100_000) ();
  if has "showcase" then showcase ();
  if has "ablation" then ablation ~size:(pick 50_000) ();
  if has "sweep" then sweep ();
  if has "reader" then reader_bench ~size:(pick 30_000) ();
  if has "service" then service_bench ~size:(pick 30_000) ();
  if has "service" || List.mem "daemon" !sections then
    daemon_bench ~size:(pick 20_000) ();
  if has "telemetry" then telemetry_bench ~size:(pick 20_000) ();
  if has "bignum" then bignum_bench ();
  if has "kernel" then kernel_bench ~size:(pick 8_000) ();
  if has "bechamel" then bechamel_benches ();
  ignore !sink
