(* The benchmark's own arithmetic: percentiles, span self times, output
   verification and the parsers for the programs' reports. *)

open Perfbench

let feq = Alcotest.float 1e-9

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let p = Stats.percentile a 50. in
  Alcotest.check feq "p50 of 1..100" 50. p.Stats.value;
  Alcotest.(check int) "samples" 100 p.Stats.samples;
  Alcotest.(check int) "beyond p50" 50 p.Stats.beyond;
  let p = Stats.percentile a 99. in
  Alcotest.check feq "p99 of 1..100" 99. p.Stats.value;
  Alcotest.(check int) "beyond p99" 1 p.Stats.beyond;
  let p = Stats.percentile (Array.init 1000 float_of_int) 99. in
  Alcotest.(check int) "p99 of 1000 leaves ten beyond" 10 p.Stats.beyond;
  Alcotest.check feq "p100 is the maximum" 100. (Stats.percentile a 100.).Stats.value;
  Alcotest.check feq "single sample" 7. (Stats.percentile [| 7. |] 99.).Stats.value;
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 50.))

let test_best () =
  let a = [| 5.; 1.; 2.; 9.; 3.; 4.; 8.; 7. |] in
  Alcotest.check feq "lower quartile of times" 2. (Stats.best ~higher:false a);
  Alcotest.check feq "upper quartile of rates" 7. (Stats.best ~higher:true a);
  (* slowing any three of four repetitions leaves the figure unchanged *)
  let slowed = [| 1.; 50.; 60.; 70. |] in
  Alcotest.check feq "disturbed repetitions" 1. (Stats.best ~higher:false slowed)

let span sp name ~parent ~start ~stop =
  Spans.add sp ~name:(Spans.intern sp name) ~parent ~rid:0 ~start ~stop

let test_self_time () =
  let sp = Spans.create 16 in
  let p = span sp "line" ~parent:(-1) ~start:0 ~stop:100 in
  let a = span sp "a" ~parent:p ~start:10 ~stop:30 in
  let b = span sp "b" ~parent:p ~start:20 ~stop:50 in
  let c = span sp "c" ~parent:p ~start:90 ~stop:120 in
  let g = span sp "g" ~parent:a ~start:12 ~stop:18 in
  let selfs = Spans.self_times sp in
  (* children cover [10,50] merged and [90,100] clipped to the parent *)
  Alcotest.(check int) "parent self" 50 selfs.(p);
  Alcotest.(check int) "child minus grandchild" 14 selfs.(a);
  Alcotest.(check int) "leaf self is its duration" 6 selfs.(g);
  Alcotest.(check int) "overlapping sibling keeps its own duration" 30 selfs.(b);
  Alcotest.(check int) "overhanging child keeps its own duration" 30 selfs.(c);
  let agg = Spans.aggregate sp selfs in
  Alcotest.check feq "mean self by name" 50. (Spans.mean_self agg "line");
  Alcotest.check feq "unknown name" 0. (Spans.mean_self agg "none")

let test_recorder () =
  let off = Spans.create ~enabled:false 4 in
  let n = Spans.intern off "x" in
  Alcotest.(check int) "disabled enter" (-1) (Spans.enter off ~name:n ~parent:(-1) ~rid:0);
  Spans.leave off (-1);
  Alcotest.(check int) "nothing recorded" 0 (Spans.count off);
  let sp = Spans.create 1 in
  let n = Spans.intern sp "x" in
  Alcotest.(check int) "interned once" n (Spans.intern sp "x");
  let i = Spans.enter sp ~name:n ~parent:(-1) ~rid:3 in
  Spans.leave sp i;
  Alcotest.(check bool) "ordered bounds" true (Spans.duration sp i >= 0);
  Alcotest.(check int) "full recorder drops" (-1) (Spans.enter sp ~name:n ~parent:(-1) ~rid:4)

let expected = [| "0.1"; "1e23"; "5e-324"; "-2.5" |]
let joined l = String.concat "" (List.map (fun s -> s ^ "\n") l)

let check_verify name ~out ~wrong ~missing ~extra =
  let v = Verify.stream ~expected out in
  Alcotest.(check (list int)) name [ wrong; missing; extra ]
    [ v.Verify.wrong; v.Verify.missing; v.Verify.extra ];
  v

let test_verify () =
  let v =
    check_verify "identical" ~out:(joined (Array.to_list expected)) ~wrong:0 ~missing:0
      ~extra:0
  in
  Alcotest.(check int) "all matched" 4 v.Verify.matched;
  ignore
    (check_verify "one wrong byte"
       ~out:(joined [ "0.1"; "1e24"; "5e-324"; "-2.5" ])
       ~wrong:1 ~missing:0 ~extra:0);
  let v =
    check_verify "dropped line" ~out:(joined [ "0.1"; "5e-324"; "-2.5" ]) ~wrong:2 ~missing:1
      ~extra:0
  in
  Alcotest.(check int) "a drop fails every later position" 3 (Verify.failures v);
  ignore
    (check_verify "reordered lines"
       ~out:(joined [ "1e23"; "0.1"; "5e-324"; "-2.5" ])
       ~wrong:2 ~missing:0 ~extra:0);
  ignore
    (check_verify "extra line"
       ~out:(joined [ "0.1"; "1e23"; "5e-324"; "-2.5"; "0" ])
       ~wrong:0 ~missing:0 ~extra:1);
  ignore
    (check_verify "unterminated last line" ~out:"0.1\n1e23\n5e-324\n-2.5" ~wrong:1
       ~missing:0 ~extra:0);
  ignore (check_verify "no output" ~out:"" ~wrong:0 ~missing:4 ~extra:0)

let test_reports () =
  let gc =
    "allocated_words: 10\nminor_words: 85319959\npromoted_words: 1\n\
     heap_words: 132087\ntop_heap_words: 132087\n"
  in
  (match Proc.parse_gc gc with
  | Some g ->
    Alcotest.check feq "minor words" 85319959. g.Proc.minor_words;
    Alcotest.check feq "top heap" 132087. g.Proc.top_heap_words
  | None -> Alcotest.fail "GC report not parsed");
  Alcotest.(check bool) "no report" true (Proc.parse_gc "error: x\n" = None);
  let stats = {|{"version":"1.0","requests":200,"cache_hits":50,"shed_overload":0}|} in
  Alcotest.(check int) "STATS field" 50 (Daemon.stats_field stats "cache_hits");
  Alcotest.(check int) "absent STATS field" 0 (Daemon.stats_field stats "nope");
  let prom =
    String.concat "\n"
      [
        "# TYPE bdprint_stage_duration_ns histogram";
        {|bdprint_stage_duration_ns_bucket{stage="parse",le="1000"} 99|};
        {|bdprint_stage_duration_ns_bucket{stage="worker-service",le="1000"} 2|};
        {|bdprint_stage_duration_ns_bucket{stage="worker-service",le="5000"} 6 # {trace_id="7"} 4200|};
        {|bdprint_stage_duration_ns_bucket{stage="worker-service",le="+Inf"} 10|};
      ]
  in
  Alcotest.(check (option feq)) "stage median bucket" (Some 5.)
    (Daemon.stage_p50_us prom "worker-service");
  Alcotest.(check (option feq)) "absent stage" None (Daemon.stage_p50_us prom "request")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile with sample count" `Quick test_percentile;
          Alcotest.test_case "favourable quartile" `Quick test_best;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time arithmetic" `Quick test_self_time;
          Alcotest.test_case "recorder bounds" `Quick test_recorder;
        ] );
      ( "verify",
        [ Alcotest.test_case "catches wrong and dropped lines" `Quick test_verify ] );
      ("reports", [ Alcotest.test_case "program report parsers" `Quick test_reports ]);
    ]
