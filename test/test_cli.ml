(* End-to-end tests of the bdprint command-line tool: run the built
   executable and check its stdout. *)

let bdprint args =
  (* this test binary lives in _build/default/test; the CLI next door *)
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/bdprint.exe"
  in
  let tmp = Filename.temp_file "bdprint" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>/dev/null" exe args tmp in
  let status = Sys.command cmd in
  let ic = open_in tmp in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove tmp;
  (status, List.rev !lines)

let check_output name args expected =
  let status, lines = bdprint args in
  Alcotest.(check int) (name ^ " exit") 0 status;
  Alcotest.(check (list string)) name expected lines

let test_free () =
  check_output "shortest" "0.1 1e23" [ "0.1"; "1e23" ];
  check_output "negative and specials" "-- -1.5 inf nan" [ "-1.5"; "inf"; "nan" ];
  (* reading and printing share the mode, so any input echoes in shortest
     form under that mode; the asymmetric paper example (read even, print
     away) needs the library API rather than the CLI *)
  check_output "mode away round-trips" "--mode away 1e23" [ "1e23" ];
  check_output "mode zero round-trips" "--mode zero 0.3" [ "0.3" ]

let test_fixed () =
  check_output "relative digits binary32" "--digits 10 --format binary32 0.333333333"
    [ "0.33333334##" ];
  check_output "places with hash" "--places 20 100"
    [ "100.000000000000000#####" ];
  check_output "pi to 4 places" "--places 4 3.14159265358979" [ "3.1416" ]

let test_bases_and_hex () =
  check_output "base 16" "--base 16 255.9375" [ "ff.f" ];
  check_output "base 2" "--base 2 0.625" [ "0.101" ];
  check_output "hex input" "0x1.8p+1" [ "3.0" ];
  check_output "hex output" "--hex 0.1" [ "0x1.999999999999ap-4" ]

let test_errors () =
  let status, _ = bdprint "not-a-number" in
  Alcotest.(check bool) "bad input fails" true (status <> 0);
  let status, _ = bdprint "--digits 0 1.0" in
  Alcotest.(check bool) "digits 0 fails cleanly" true (status <> 0);
  let status, _ = bdprint "--digits 3 --places 2 1.0" in
  Alcotest.(check bool) "conflicting flags fail" true (status <> 0)

(* Full-pipe variant: feed stdin, capture stdout and stderr separately,
   optionally with an environment prefix (for BDPRINT_FAULTS). *)
let bdprint_full ?(env = "") ?(stdin = "") args =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/bdprint.exe"
  in
  let tmp_in = Filename.temp_file "bdprint" ".in" in
  let tmp_out = Filename.temp_file "bdprint" ".out" in
  let tmp_err = Filename.temp_file "bdprint" ".err" in
  let oc = open_out tmp_in in
  output_string oc stdin;
  close_out oc;
  let cmd =
    Printf.sprintf "%s %s %s < %s > %s 2> %s" env exe args tmp_in tmp_out
      tmp_err
  in
  let status = Sys.command cmd in
  let slurp path =
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !lines
  in
  let out = slurp tmp_out and err = slurp tmp_err in
  Sys.remove tmp_in;
  Sys.remove tmp_out;
  Sys.remove tmp_err;
  (status, out, err)

let contains line needle =
  let n = String.length needle and l = String.length line in
  let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
  go 0

let test_stdin_stream () =
  (* clean stream: converts every line, skips blanks, exits 0 *)
  let status, out, err =
    bdprint_full ~stdin:"0.1\n1e23\n\n2.5e-1\n" "--stdin"
  in
  Alcotest.(check int) "clean stream exit" 0 status;
  Alcotest.(check (list string)) "clean stream output"
    [ "0.1"; "1e23"; "0.25" ] out;
  Alcotest.(check (list string)) "clean stream stderr" [] err;
  (* bad lines are reported with their line number and the stream
     continues *)
  let status, out, err =
    bdprint_full ~stdin:"0.1\nbogus\n1e999999999\n" "--stdin"
  in
  Alcotest.(check bool) "dirty stream exits nonzero" true (status <> 0);
  Alcotest.(check (list string)) "dirty stream still converts the rest"
    [ "0.1"; "inf" ] out;
  Alcotest.(check bool) "stderr names the line" true
    (List.exists (fun l -> contains l "line 2" && contains l "syntax") err);
  (* per-number fixed format works through the stream too *)
  let status, out, _ =
    bdprint_full ~stdin:"3.14159265358979\n100\n" "--stdin --places 4"
  in
  Alcotest.(check int) "fixed stream exit" 0 status;
  Alcotest.(check (list string)) "fixed stream output"
    [ "3.1416"; "100.0000" ] out

let test_stdin_max_errors () =
  let status, out, err =
    bdprint_full ~stdin:"x\ny\n0.1\n" "--stdin --max-errors 2"
  in
  Alcotest.(check bool) "aborts nonzero" true (status <> 0);
  Alcotest.(check (list string)) "stops before the good line" [] out;
  Alcotest.(check bool) "stderr mentions the abort" true
    (List.exists (fun l -> contains l "max-errors") err);
  (* without the cap the same stream drains fully *)
  let status, out, _ = bdprint_full ~stdin:"x\ny\n0.1\n" "--stdin" in
  Alcotest.(check bool) "uncapped still nonzero" true (status <> 0);
  Alcotest.(check (list string)) "uncapped drains" [ "0.1" ] out;
  (* --stdin and positional arguments are mutually exclusive *)
  let status, _, _ = bdprint_full ~stdin:"0.1\n" "--stdin 2.5" in
  Alcotest.(check bool) "conflict rejected" true (status <> 0)

let test_budget_misuse () =
  let status, _, err = bdprint_full "--places 1000000 100" in
  Alcotest.(check bool) "huge --places fails" true (status <> 0);
  Alcotest.(check bool) "names the budget" true
    (List.exists (fun l -> contains l "budget" && contains l "--places") err);
  let status, _, err = bdprint_full "--digits 1000000 100" in
  Alcotest.(check bool) "huge --digits fails" true (status <> 0);
  Alcotest.(check bool) "names the budget" true
    (List.exists (fun l -> contains l "budget" && contains l "--digits") err);
  (* extremes that are merely large still work *)
  let status, out, _ = bdprint_full "--places 100 0.5" in
  Alcotest.(check int) "places 100 fine" 0 status;
  Alcotest.(check int) "one output line" 1 (List.length out)

let test_fault_env () =
  let status, _, err =
    bdprint_full ~env:"BDPRINT_FAULTS=nat.divmod" "0.1"
  in
  Alcotest.(check bool) "fault makes it fail" true (status <> 0);
  Alcotest.(check bool) "fault is a structured internal error" true
    (List.exists
       (fun l -> contains l "internal error" && contains l "nat.divmod")
       err);
  Alcotest.(check bool) "no uncaught exception" true
    (not (List.exists (fun l -> contains l "Fatal error") err));
  (* armed fault + stream: every line degrades, none crash *)
  let status, out, err =
    bdprint_full ~env:"BDPRINT_FAULTS=scaling.scale" ~stdin:"0.1\n0.2\n"
      "--stdin"
  in
  Alcotest.(check bool) "stream under fault fails" true (status <> 0);
  Alcotest.(check (list string)) "no output under fault" [] out;
  Alcotest.(check int) "two per-line errors plus summary" 2
    (List.length
       (List.filter (fun l -> contains l "injected fault") err))

let test_exit_codes () =
  (* each failure class has its own exit code; the stream reports the
     most severe class seen: internal(4) > budget(3) > syntax/range(2) *)
  let status, _, _ = bdprint_full ~stdin:"bogus\n" "--stdin" in
  Alcotest.(check int) "syntax exits 2" 2 status;
  let long_line = String.make 70_000 '1' in
  let status, _, err = bdprint_full ~stdin:(long_line ^ "\n") "--stdin" in
  Alcotest.(check int) "budget exits 3" 3 status;
  Alcotest.(check bool) "budget named on stderr" true
    (List.exists (fun l -> contains l "budget") err);
  let status, _, _ =
    bdprint_full ~stdin:("bogus\n" ^ long_line ^ "\n0.1\n") "--stdin"
  in
  Alcotest.(check int) "mixed stream reports most severe (3)" 3 status;
  let status, _, _ =
    bdprint_full ~env:"BDPRINT_FAULTS=nat.divmod" ~stdin:"0.1\n" "--stdin"
  in
  Alcotest.(check int) "internal exits 4" 4 status;
  let status, _, _ =
    bdprint_full ~env:"BDPRINT_FAULTS=nat.divmod" ~stdin:"bogus\n0.1\n"
      "--stdin"
  in
  Alcotest.(check int) "internal beats syntax" 4 status

let test_deadline_flag () =
  let status, out, err =
    bdprint_full ~stdin:"0.1\n" "--stdin --deadline-ms 0"
  in
  Alcotest.(check int) "expired deadline exits 3 (budget class)" 3 status;
  Alcotest.(check (list string)) "no output" [] out;
  Alcotest.(check bool) "stderr names the deadline" true
    (List.exists (fun l -> contains l "deadline") err);
  (* a sane deadline changes nothing on a fast input *)
  let status, out, _ =
    bdprint_full ~stdin:"0.1\n" "--stdin --deadline-ms 5000"
  in
  Alcotest.(check int) "generous deadline exit" 0 status;
  Alcotest.(check (list string)) "generous deadline output" [ "0.1" ] out;
  (* same through the parallel service *)
  let status, out, _ =
    bdprint_full ~stdin:"0.1\n1e23\n" "--stdin --jobs 2 --deadline-ms 5000"
  in
  Alcotest.(check int) "parallel deadline exit" 0 status;
  Alcotest.(check (list string)) "parallel deadline output"
    [ "0.1"; "1e23" ] out

let test_unknown_fault_point () =
  (* unknown names in BDPRINT_FAULTS warn once per distinct name on
     stderr and are ignored; the conversion itself is untouched *)
  let status, out, err =
    bdprint_full
      ~env:"BDPRINT_FAULTS=no.such.point,no.such.point,no.such.point"
      ~stdin:"0.1\n" "--stdin"
  in
  Alcotest.(check int) "unknown point is not fatal" 0 status;
  Alcotest.(check (list string)) "output unaffected" [ "0.1" ] out;
  let unknown_warnings =
    List.filter
      (fun l ->
        contains l "unknown or malformed fault entry"
        && contains l "no.such.point")
      err
  in
  Alcotest.(check int) "warned exactly once per distinct name" 1
    (List.length unknown_warnings);
  (* valid entries alongside an unknown one still arm *)
  let status, _, err =
    bdprint_full ~env:"BDPRINT_FAULTS=no.such.point,nat.divmod" ~stdin:"0.1\n"
      "--stdin"
  in
  Alcotest.(check int) "valid entry still arms" 4 status;
  Alcotest.(check bool) "both warning and fault" true
    (List.exists (fun l -> contains l "unknown or malformed fault entry") err
    && List.exists (fun l -> contains l "injected fault") err)

let test_jobs_parallel () =
  let inputs = List.init 50 (fun i -> string_of_int (i + 1)) in
  let stdin = String.concat "\n" inputs ^ "\n" in
  let status_seq, out_seq, _ = bdprint_full ~stdin "--stdin" in
  let status_par, out_par, _ = bdprint_full ~stdin "--stdin --jobs 4" in
  Alcotest.(check int) "sequential exit" 0 status_seq;
  Alcotest.(check int) "parallel exit" 0 status_par;
  Alcotest.(check (list string)) "parallel output matches sequential"
    out_seq out_par;
  Alcotest.(check (list string)) "order preserved"
    (List.map (fun s -> s ^ ".0") inputs)
    out_par;
  (* dirty stream: same per-line errors, same exit code as sequential *)
  let dirty = "0.1\nbogus\n1e23\n" in
  let status_seq, out_seq, _ = bdprint_full ~stdin:dirty "--stdin" in
  let status_par, out_par, err_par =
    bdprint_full ~stdin:dirty "--stdin --jobs 3"
  in
  Alcotest.(check int) "dirty exits match" status_seq status_par;
  Alcotest.(check (list string)) "dirty outputs match" out_seq out_par;
  Alcotest.(check bool) "parallel stderr names the line" true
    (List.exists (fun l -> contains l "line 2" && contains l "syntax") err_par);
  (* --jobs requires --stdin *)
  let status, _, err = bdprint_full "--jobs 2 0.1" in
  Alcotest.(check bool) "--jobs without --stdin rejected" true (status <> 0);
  Alcotest.(check bool) "rejection names --stdin" true
    (List.exists (fun l -> contains l "stdin") err);
  let status, _, _ = bdprint_full ~stdin:"0.1\n" "--stdin --jobs 0" in
  Alcotest.(check bool) "--jobs 0 rejected" true (status <> 0)

let test_stats_flag () =
  let status, out, err =
    bdprint_full ~stdin:"0.1\n1e23\n" "--stdin --jobs 2 --stats"
  in
  Alcotest.(check int) "stats exit" 0 status;
  Alcotest.(check (list string)) "stats leaves stdout alone"
    [ "0.1"; "1e23" ] out;
  Alcotest.(check bool) "stats on stderr" true
    (List.exists
       (fun l -> contains l "submitted=2" && contains l "ok=2")
       err);
  Alcotest.(check bool) "breaker state reported" true
    (List.exists (fun l -> contains l "breaker=closed") err);
  (* sequential --stats works too *)
  let status, _, err = bdprint_full ~stdin:"0.1\n" "--stdin --stats" in
  Alcotest.(check int) "sequential stats exit" 0 status;
  Alcotest.(check bool) "sequential stats on stderr" true
    (List.exists (fun l -> contains l "jobs=1") err);
  let status, _, _ = bdprint_full "--stats 0.1" in
  Alcotest.(check bool) "--stats without --stdin rejected" true (status <> 0)

(* Interrupted streams: SIGINT mid-stream and a downstream consumer
   closing the pipe (SIGPIPE) must both flush --metrics and exit with
   the distinct code 5 instead of dying on the default signal action. *)

let cli_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/bdprint.exe"

let run_script body =
  let tmp = Filename.temp_file "bdprint_script" ".sh" in
  let oc = open_out tmp in
  output_string oc body;
  close_out oc;
  let status = Sys.command (Printf.sprintf "sh %s" (Filename.quote tmp)) in
  Sys.remove tmp;
  status

let test_sigint_stream () =
  let script =
    Printf.sprintf
      {|
set -e
exe=%s
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkfifo "$dir/in"
"$exe" --stdin --metrics "$dir/m.json" < "$dir/in" > "$dir/out" 2> "$dir/err" &
pid=$!
exec 3> "$dir/in"
printf '0.1\n0.2\n' >&3
sleep 0.4
kill -INT $pid
sleep 0.3
exec 3>&-
set +e
wait $pid
code=$?
[ -s "$dir/m.json" ] || exit 90
[ -s "$dir/m.prom" ] || exit 92
grep -q interrupted "$dir/err" || exit 91
grep -q '^0.1$' "$dir/out" || exit 93
exit $code
|}
      (Filename.quote (cli_exe ()))
  in
  Alcotest.(check int) "SIGINT flushes metrics and exits 5" 5
    (run_script script)

let test_sigpipe_stream () =
  let one driver_args =
    Printf.sprintf
      {|
set -e
exe=%s
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkfifo "$dir/fifo"
head -2 < "$dir/fifo" > /dev/null &
reader=$!
set +e
yes 0.1 | "$exe" --stdin %s --metrics "$dir/m.json" > "$dir/fifo" 2> "$dir/err"
code=$?
wait $reader
[ -s "$dir/m.json" ] || exit 90
grep -q interrupted "$dir/err" || exit 91
exit $code
|}
      (Filename.quote (cli_exe ()))
      driver_args
  in
  Alcotest.(check int) "closed pipe exits 5 (sequential)" 5
    (run_script (one ""));
  Alcotest.(check int) "closed pipe exits 5 (--jobs)" 5
    (run_script (one "--jobs 2"))

(* Every binary's man page renders: cmdliner validates the markup only
   when the page is printed, so a bad escape in an example block shows
   up as an error on stderr from --help and nowhere else. *)
let test_help_renders () =
  let bin_dir =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin"
  in
  List.iter
    (fun name ->
      let exe = Filename.concat bin_dir (name ^ ".exe") in
      let tmp_err = Filename.temp_file name ".err" in
      let status =
        Sys.command
          (Printf.sprintf "%s --help=plain > /dev/null 2> %s"
             (Filename.quote exe) (Filename.quote tmp_err))
      in
      let ic = open_in_bin tmp_err in
      let err = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove tmp_err;
      Alcotest.(check int) (name ^ " --help exit") 0 status;
      Alcotest.(check string) (name ^ " --help stderr") "" err)
    [ "bdprint"; "bdprintd"; "bdlint" ]

let () =
  Alcotest.run "cli"
    [
      ( "bdprint",
        [
          Alcotest.test_case "free format" `Quick test_free;
          Alcotest.test_case "fixed format" `Quick test_fixed;
          Alcotest.test_case "bases and hex" `Quick test_bases_and_hex;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "stdin streaming" `Quick test_stdin_stream;
          Alcotest.test_case "stdin max-errors" `Quick test_stdin_max_errors;
          Alcotest.test_case "budget misuse" `Quick test_budget_misuse;
          Alcotest.test_case "fault injection env" `Quick test_fault_env;
          Alcotest.test_case "exit codes per class" `Quick test_exit_codes;
          Alcotest.test_case "deadline flag" `Quick test_deadline_flag;
          Alcotest.test_case "unknown fault point" `Quick
            test_unknown_fault_point;
          Alcotest.test_case "jobs parallel streaming" `Quick
            test_jobs_parallel;
          Alcotest.test_case "stats flag" `Quick test_stats_flag;
          Alcotest.test_case "SIGINT interrupts stream" `Quick
            test_sigint_stream;
          Alcotest.test_case "SIGPIPE interrupts stream" `Quick
            test_sigpipe_stream;
          Alcotest.test_case "--help renders for every binary" `Quick
            test_help_renders;
        ] );
    ]
