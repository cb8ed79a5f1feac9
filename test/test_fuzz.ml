(* Differential fuzz harness for the hardened conversion pipeline.

   Bounded by default to 10_000 random inputs (override with FUZZ_ITERS,
   reproduce a run with FUZZ_SEED) plus the full deterministic corpus:
   [Robust.Gen.nasty] and every line of [test/corpus/*].  Per input it
   checks

   - totality: no exception escapes [Reader.read], [Reader.Fast.read] or
     [Dragon.Printer.print_value], for binary64 and binary16;
   - round-trip: any successfully read value prints and reads back
     [Value.equal];
   - differential: on well-formed moderate inputs the fast reader, the
     exact reader and the host [strtod] agree bit for bit;
   - fixed format: output never sits more than half an output quantum
     from the exact value;
   - fault tolerance: with each injection point armed, the pipeline
     still returns results instead of throwing. *)

module R = Reader
module Value = Fp.Value
module Format_spec = Fp.Format_spec
module Ratio = Bignum.Ratio
module Gen = Robust.Gen

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try max 1 (int_of_string s) with _ -> default)
  | None -> default

let iters = env_int "FUZZ_ITERS" 10_000
let seed = env_int "FUZZ_SEED" 0x5eed
let b64 = Format_spec.binary64
let b16 = Format_spec.binary16
let b32 = Format_spec.binary32

let short s = if String.length s <= 80 then s else String.sub s 0 77 ^ "..."

let no_raise what input f =
  try f ()
  with exn ->
    Alcotest.failf "%s raised %s on %S" what (Printexc.to_string exn)
      (short input)

(* The core totality + round-trip obligation for one input string. *)
let check_one fmt input =
  ignore (no_raise "Fast.read" input (fun () -> R.Fast.read input));
  match no_raise "read" input (fun () -> R.read fmt input) with
  | Error _ -> ()
  | Ok v -> (
    match
      no_raise "print_value" input (fun () ->
          Dragon.Printer.print_value fmt v)
    with
    | Error e ->
      Alcotest.failf "printing the value of %S failed: %s" (short input)
        (Robust.Error.to_string e)
    | Ok printed -> (
      match no_raise "re-read" printed (fun () -> R.read fmt printed) with
      | Ok v' ->
        if not (Value.equal v v') then
          Alcotest.failf "round-trip mismatch: %S prints as %S which reads as %s"
            (short input) printed (Value.to_string v')
      | Error e ->
        Alcotest.failf "shortest output %S of %S does not read back: %s"
          printed (short input) (Robust.Error.to_string e)))

let test_random_totality () =
  let st = Random.State.make [| seed |] in
  for _ = 1 to iters do
    let input = Gen.any st in
    check_one b64 input;
    check_one b16 input
  done

(* Well-formed moderate inputs: the two readers and the host strtod are
   three independent implementations of the same function. *)
let test_plain_differential () =
  let st = Random.State.make [| seed; 1 |] in
  let bits = Int64.bits_of_float in
  for _ = 1 to iters do
    let input = Gen.plain st in
    let exact =
      match R.read_float input with
      | Ok x -> x
      | Error e ->
        Alcotest.failf "exact reader rejected plain input %S: %s" input
          (Robust.Error.to_string e)
    in
    (match R.Fast.read input with
    | Ok fast ->
      if not (Int64.equal (bits fast) (bits exact)) then
        Alcotest.failf "fast/exact mismatch on %S: %h vs %h" input fast exact
    | Error e ->
      Alcotest.failf "fast reader rejected plain input %S: %s" input
        (Robust.Error.to_string e));
    match float_of_string_opt input with
    | Some host when not (Int64.equal (bits host) (bits exact)) ->
      Alcotest.failf "host strtod disagrees on %S: %h vs our %h" input host
        exact
    | _ -> ()
  done

let test_corpus () =
  let corpus_lines =
    if Sys.file_exists "corpus" && Sys.is_directory "corpus" then
      Sys.readdir "corpus" |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun f ->
             let ic = open_in (Filename.concat "corpus" f) in
             let lines = ref [] in
             (try
                while true do
                  lines := input_line ic :: !lines
                done
              with End_of_file -> ());
             close_in ic;
             List.rev !lines)
    else []
  in
  let inputs = Gen.nasty @ corpus_lines in
  Alcotest.(check bool)
    "corpus present" true
    (List.length corpus_lines > 0);
  List.iter
    (fun input ->
      check_one b64 input;
      check_one b16 input)
    inputs

(* Random positive doubles through the fixed-format converter: whatever
   the request, the denoted output must sit within half an output
   quantum of the exact value (reading # as 0, the quantum of the last
   emitted position). *)
let test_fixed_half_quantum () =
  let st = Random.State.make [| seed; 2 |] in
  let count = max 200 (iters / 10) in
  let done_ = ref 0 in
  while !done_ < count do
    let payload =
      Int64.logand (Random.State.int64 st Int64.max_int)
        0x7FFF_FFFF_FFFF_FFFFL
    in
    let x = Int64.float_of_bits payload in
    match Fp.Ieee.decompose x with
    | Value.Finite v ->
      incr done_;
      let req =
        if Random.State.bool st then
          Dragon.Fixed_format.Relative (1 + Random.State.int st 17)
        else Dragon.Fixed_format.Absolute (Random.State.int st 40 - 20)
      in
      (match Dragon.Fixed_format.convert b64 v req with
      | Error e ->
        Alcotest.failf "fixed convert failed on %h: %s" x
          (Robust.Error.to_string e)
      | Ok t ->
        let exact = Value.to_ratio b64 { v with neg = false } in
        let denoted = Dragon.Fixed_format.to_ratio ~base:10 t in
        let j = t.Dragon.Fixed_format.k - Array.length t.Dragon.Fixed_format.digits in
        (* Correct to half the requested quantum — except where the
           float's own gap dominates and positions turn to #, where one
           ulp is the honest bound. *)
        let half_quantum = Ratio.mul Ratio.half (Ratio.pow (Ratio.of_int 10) j) in
        let ulp = Ratio.pow (Ratio.of_int 2) v.Value.e in
        let bound = Ratio.max half_quantum ulp in
        let dist = Ratio.abs (Ratio.sub exact denoted) in
        if Ratio.compare dist bound > 0 then
          Alcotest.failf "fixed output of %h (request %s) off by > half quantum"
            x
            (match req with
            | Dragon.Fixed_format.Relative i -> Printf.sprintf "Relative %d" i
            | Dragon.Fixed_format.Absolute j -> Printf.sprintf "Absolute %d" j))
    | _ -> () (* inf/nan payloads: skip, not counted *)
  done

(* The in-place digit-loop kernels (word-sized fast path + Scratch
   workspace) must be byte-identical to the pure-Nat reference: print
   every corpus/nasty line and a random batch through both, for free
   format and fixed format, and compare the strings. *)
let with_pure f =
  Dragon.Generate.set_force_pure true;
  Fun.protect ~finally:(fun () -> Dragon.Generate.set_force_pure false) f

let print_opt fmt input =
  match R.read fmt input with
  | Error _ -> None
  | Ok v -> (
    match Dragon.Printer.print_value fmt v with
    | Ok s -> Some s
    | Error e ->
      Alcotest.failf "print_value failed on %S: %s" (short input)
        (Robust.Error.to_string e))

let without_fastpath f =
  let was = Dragon.Printer.fastpath_enabled () in
  Dragon.Printer.set_fastpath_enabled false;
  Fun.protect ~finally:(fun () -> Dragon.Printer.set_fastpath_enabled was) f

(* Three-way agreement: the default dispatch (table-driven fast path
   with exact fallback), the exact kernels alone (fast path off, so the
   scratch/word paths keep their own differential coverage), and the
   pure-Nat reference. *)
let check_paths_agree fmt input =
  let fast = print_opt fmt input in
  let kernel = without_fastpath (fun () -> print_opt fmt input) in
  let pure = with_pure (fun () -> print_opt fmt input) in
  let str o = Option.value o ~default:"<unread>" in
  if kernel <> pure then
    Alcotest.failf "scratch/pure mismatch on %S: %s vs %s" (short input)
      (str kernel) (str pure);
  if fast <> pure then
    Alcotest.failf "fastpath/pure mismatch on %S: %s vs %s" (short input)
      (str fast) (str pure)

let test_scratch_pure_differential () =
  Alcotest.(check bool) "force_pure off" false (Dragon.Generate.force_pure ());
  let corpus_lines =
    if Sys.file_exists "corpus" && Sys.is_directory "corpus" then
      Sys.readdir "corpus" |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun f ->
             let ic = open_in (Filename.concat "corpus" f) in
             let lines = ref [] in
             (try
                while true do
                  lines := input_line ic :: !lines
                done
              with End_of_file -> ());
             close_in ic;
             List.rev !lines)
    else []
  in
  List.iter
    (fun input ->
      check_paths_agree b64 input;
      check_paths_agree b16 input)
    (Gen.nasty @ corpus_lines);
  let st = Random.State.make [| seed; 4 |] in
  for _ = 1 to max 500 (iters / 4) do
    check_paths_agree b64 (Gen.any st)
  done;
  (* fixed format through both paths on random finite doubles *)
  let st = Random.State.make [| seed; 5 |] in
  let done_ = ref 0 in
  while !done_ < 500 do
    let payload =
      Int64.logand (Random.State.int64 st Int64.max_int)
        0x7FFF_FFFF_FFFF_FFFFL
    in
    match Fp.Ieee.decompose (Int64.float_of_bits payload) with
    | Value.Finite v ->
      incr done_;
      let req =
        if Random.State.bool st then
          Dragon.Fixed_format.Relative (1 + Random.State.int st 17)
        else Dragon.Fixed_format.Absolute (Random.State.int st 40 - 20)
      in
      let kernel =
        without_fastpath (fun () -> Dragon.Fixed_format.convert b64 v req)
      in
      let pure =
        with_pure (fun () -> Dragon.Fixed_format.convert b64 v req)
      in
      let same =
        match (kernel, pure) with
        | Ok a, Ok b -> Dragon.Fixed_format.equal a b
        | Error _, Error _ -> true
        | _ -> false
      in
      if not same then
        Alcotest.failf "fixed-format scratch/pure mismatch on %h"
          (Int64.float_of_bits payload)
    | _ -> ()
  done

(* Fixed format dispatches through the table fast path too, so every
   fixed-format request is checked three ways: the default dispatch
   (fast path with exact fallback), the exact kernels alone (gate off)
   and the pure-Nat reference (force-pure).  The comparison is on the
   full structure — digits, zeros, # marks and k — not just the
   rendering. *)
let show_fixed fmt (v : Value.finite) req =
  match Dragon.Fixed_format.convert fmt v req with
  | Ok r -> Format.asprintf "%a" Dragon.Fixed_format.pp r
  | Error e -> "error: " ^ Robust.Error.to_string e

let show_request = function
  | Dragon.Fixed_format.Relative i -> Printf.sprintf "Relative %d" i
  | Dragon.Fixed_format.Absolute j -> Printf.sprintf "Absolute %d" j

let check_fixed_three_way ?(fmt = b64) what (v : Value.finite) req =
  let fast = show_fixed fmt v req in
  let exact = without_fastpath (fun () -> show_fixed fmt v req) in
  let pure = with_pure (fun () -> show_fixed fmt v req) in
  if fast <> pure || exact <> pure then
    Alcotest.failf "%s, %s: fast %s, exact %s, pure %s" what
      (show_request req) fast exact pure

(* The requests one value is checked under: a random and the widest
   relative request, and absolute positions spanning 1..17 digits from
   the value's leading digit plus one random position around it. *)
let fixed_requests st (v : Value.finite) =
  let k =
    (Dragon.Free_format.convert b64 v).Dragon.Free_format.k
  in
  let span = 1 + Random.State.int st 17 in
  Dragon.Fixed_format.
    [
      Relative (1 + Random.State.int st 17);
      Relative 17;
      Absolute (k - span);
      Absolute (k - 17);
      Absolute (k + 2 - Random.State.int st 22);
    ]

let test_fastpath_format_invariance () =
  let was_metrics = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_enabled was_metrics)
  @@ fun () ->
  let hits0 = Fastpath.fixed_hit_count () in
  let st = Random.State.make [| seed; 9 |] in
  let sample =
    (* Schryer values strided across every binade, then random bits *)
    let schryer = Workloads.Schryer.corpus () in
    let stride = Array.length schryer / 200 in
    Array.append
      (Array.init 200 (fun i -> schryer.(i * stride)))
      (Workloads.Corpus.random_finite ~seed 200)
  in
  Array.iter
    (fun x ->
      match Fp.Ieee.decompose x with
      | Value.Finite v ->
        let what = Printf.sprintf "%h" x in
        List.iter (check_fixed_three_way what v) (fixed_requests st v);
        (* %e/%f/%g go through the exact decimal oracle, never the fast
           path: they must not move with the gate either *)
        let precision = Random.State.int st 18 in
        let check fmt_name f =
          let fast = f () and slow = without_fastpath f in
          if fast <> slow then
            Alcotest.failf "%s differs under fastpath gate on %h: %S vs %S"
              fmt_name x fast slow
        in
        check "%e" (fun () -> Dragon.Cformat.e ~precision x);
        check "%f" (fun () -> Dragon.Cformat.f ~precision x);
        check "%g" (fun () -> Dragon.Cformat.g ~precision x)
      | _ -> ())
    sample;
  (* the differential was not vacuous: the fast path answered most of
     the requests itself *)
  Alcotest.(check bool)
    "fixed fast path dispatched" true
    (Fastpath.fixed_hit_count () - hits0 > Array.length sample)

(* Named edge cases for the fixed-format fast path, each checked three
   ways over every relative width and a band of absolute positions. *)
let test_fixed_edge_cases () =
  let all_requests =
    List.init 17 (fun i -> Dragon.Fixed_format.Relative (i + 1))
    @ List.init 24 (fun i -> Dragon.Fixed_format.Absolute (i - 20))
  in
  let finite = function
    | Value.Finite v -> v
    | v -> Alcotest.failf "%s is not finite" (Value.to_string v)
  in
  let check_all ?(fmt = b64) ?(requests = all_requests) what v =
    List.iter (check_fixed_three_way ~fmt what v) requests
  in
  let d x = finite (Fp.Ieee.decompose x) in
  (* rounding carries into the next decade *)
  List.iter
    (fun x -> check_all (Printf.sprintf "%.17g" x) (d x))
    [ 9.9999999999999995; Float.pred 10.0; Float.pred 1.0; Float.pred 1e3;
      9.5; 99.96; 0.99999; 999.9999; 9.9999e-5; 9.999999999999999e22 ];
  (* extremes and narrow-gap powers of two, also at every absolute
     span from their leading digit *)
  List.iter
    (fun x ->
      let v = d x in
      let k = (Dragon.Free_format.convert b64 v).Dragon.Free_format.k in
      check_all (Printf.sprintf "%h" x) v
        ~requests:
          (all_requests
          @ List.init 18 (fun i -> Dragon.Fixed_format.Absolute (k - i))))
    [ 5e-324; Float.max_float; Float.min_float; 1.0; 0x1p-1000; 0x1p52;
      0x1p53; 0x1p100; 0x1p1023; 0x1p-1022 ];
  (* exact ties on the half quantum: never certifiable, so the exact
     path must answer, with the tie broken the reference's way *)
  List.iter
    (fun (x, req) -> check_all ~requests:[ req ] (Printf.sprintf "%g" x) (d x))
    Dragon.Fixed_format.
      [ (2.5, Relative 1); (0.125, Relative 2); (0.5, Absolute 0);
        (1.5, Absolute 0); (0.375, Relative 2); (1e23, Relative 1);
        (0.05, Absolute (-1)); (2.5, Absolute 0); (25.0, Absolute 1) ];
  (* binary16 and binary32 values, reached through their own formats *)
  List.iter
    (fun (spec, fmt, max_bits) ->
      let st = Random.State.make [| seed; max_bits |] in
      for _ = 1 to 150 do
        let bits = 1 + Random.State.full_int st max_bits in
        check_all ~fmt
          ~requests:
            Dragon.Fixed_format.
              [ Relative (1 + Random.State.int st 17); Relative 17;
                Absolute (Random.State.int st 20 - 12) ]
          (Printf.sprintf "bits %x" bits)
          (finite (Fp.Ieee.decompose_bits spec (Int64.of_int bits)))
      done)
    [ (Fp.Ieee.spec_binary16, b16, 0x7BFF);
      (Fp.Ieee.spec_binary32, b32, 0x7F7FFFFF) ]

(* The kernel/pure differential must hold under injected faults too.
   Both digit-loop substrates share their fault points — [run_scratch]
   and [run_fast] trip "nat.divmod" exactly where the pure path's
   [Nat.divmod] does, and the scaling stage is common — so with a
   point armed deterministically (probability 1) the two paths must
   produce the same outcome *including the structured error*.  With a
   transient probability the per-call draws are independent, so the
   obligations weaken to totality plus byte-equality whenever both
   paths happen to succeed. *)
let conv fmt input =
  match no_raise "read under faults" input (fun () -> R.read fmt input) with
  | Error e -> Error (Robust.Error.to_string e)
  | Ok v -> (
    match
      no_raise "print under faults" input (fun () ->
          Dragon.Printer.print_value fmt v)
    with
    | Ok s -> Ok s
    | Error e -> Error (Robust.Error.to_string e))

let check_faulty ~deterministic fmt input =
  let kernel = conv fmt input in
  let pure = with_pure (fun () -> conv fmt input) in
  match (kernel, pure) with
  | Ok a, Ok b when a <> b ->
    Alcotest.failf "faulty kernel/pure output mismatch on %S: %S vs %S"
      (short input) a b
  | _ when deterministic && kernel <> pure ->
    let show = function Ok s -> "Ok " ^ s | Error e -> "Error " ^ e in
    Alcotest.failf
      "deterministic fault: kernel/pure outcomes differ on %S: %s vs %s"
      (short input) (show kernel) (show pure)
  | _ -> ()

let test_faulty_differential () =
  List.iter
    (fun point ->
      let before = Robust.Faults.trip_count point in
      Robust.Faults.with_fault point (fun () ->
          List.iter
            (fun input ->
              check_faulty ~deterministic:true b64 input;
              check_faulty ~deterministic:true b16 input)
            Gen.nasty;
          let st = Random.State.make [| seed; 6 |] in
          for _ = 1 to 200 do
            check_faulty ~deterministic:true b64 (Gen.any st)
          done);
      Alcotest.(check bool)
        (point ^ " actually tripped")
        true
        (Robust.Faults.trip_count point > before))
    Robust.Faults.pipeline_points;
  (* transient arming: independent draws across the two runs *)
  List.iter
    (fun point ->
      Robust.Faults.with_fault ~probability:0.3 point (fun () ->
          let st = Random.State.make [| seed; 7 |] in
          for _ = 1 to 300 do
            check_faulty ~deterministic:false b64 (Gen.any st)
          done))
    Robust.Faults.pipeline_points;
  Alcotest.(check string) "recovered" "0.1" (Dragon.Printer.shortest 0.1)

(* With each fault point armed the pipeline must degrade to structured
   errors, never exceptions, and disarming must fully restore it. *)
let test_fault_totality () =
  List.iter
    (fun point ->
      Robust.Faults.with_fault point (fun () ->
          let st = Random.State.make [| seed; 3 |] in
          for _ = 1 to 200 do
            let input = Gen.any st in
            match no_raise "read under fault" input (fun () -> R.read b64 input) with
            | Error _ -> ()
            | Ok v ->
              ignore
                (no_raise "print under fault" input (fun () ->
                     Dragon.Printer.print_value b64 v))
          done);
      Alcotest.(check bool)
        (point ^ " disarmed after with_fault")
        false (Robust.Faults.armed point))
    Robust.Faults.pipeline_points;
  (* and the pipeline is healthy again *)
  Alcotest.(check string) "recovered" "0.1" (Dragon.Printer.shortest 0.1)

(* With BDPRINT_FAULTS in the environment the armed points fire
   ambiently at their configured probabilities (dune's @fuzz-faults
   alias sets a 5% transient rate on every point).  The unfaulted
   suites would report those trips as failures, so this mode runs only
   the weakened differential — totality plus agreement whenever both
   paths succeed — and asserts the injection actually fired. *)
let test_ambient_fault_differential () =
  List.iter
    (fun input ->
      check_faulty ~deterministic:false b64 input;
      check_faulty ~deterministic:false b16 input)
    Gen.nasty;
  let st = Random.State.make [| seed; 8 |] in
  for _ = 1 to iters do
    check_faulty ~deterministic:false b64 (Gen.any st)
  done;
  Alcotest.(check bool)
    "ambient faults fired" true
    (Robust.Faults.total_trips () > 0)

let () =
  if Sys.getenv_opt "BDPRINT_FAULTS" <> None then
    Alcotest.run "fuzz-faults"
      [
        ( "ambient",
          [
            Alcotest.test_case "kernel/pure agree under ambient faults" `Quick
              test_ambient_fault_differential;
          ] );
      ]
  else
    Alcotest.run "fuzz"
      [
        ( "differential",
          [
            Alcotest.test_case "random totality and round-trip" `Slow
              test_random_totality;
            Alcotest.test_case "plain inputs vs fast reader and host strtod"
              `Slow test_plain_differential;
            Alcotest.test_case "nasty list and corpus files" `Quick test_corpus;
            Alcotest.test_case "fixed format within half quantum" `Slow
              test_fixed_half_quantum;
            Alcotest.test_case "scratch path byte-identical to pure path" `Slow
              test_scratch_pure_differential;
            Alcotest.test_case "formats invariant under fastpath gate" `Quick
              test_fastpath_format_invariance;
            Alcotest.test_case "fixed-format fast path edge cases" `Quick
              test_fixed_edge_cases;
            Alcotest.test_case "totality under injected faults" `Quick
              test_fault_totality;
            Alcotest.test_case "kernel/pure agree under injected faults" `Quick
              test_faulty_differential;
          ] );
      ]
