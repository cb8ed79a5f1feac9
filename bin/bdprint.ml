(* bdprint: command-line floating-point conversion using the Burger-Dybvig
   algorithms.  Input strings are read with the exact reader into the
   chosen format, then printed free- or fixed-format.

   Robustness: every failure is a structured Robust.Error — syntax,
   range, budget or internal — and with [--stdin] the tool is a streaming
   filter that reports per-line errors on stderr without aborting the
   stream ([--max-errors N] bounds the tolerance).  [--jobs N] runs the
   stream through the supervised parallel service (order-preserving,
   with per-request deadlines, retries and a circuit breaker); [--stats]
   reports queue/retry/breaker counters on exit and [--metrics FILE]
   dumps the full telemetry registry as JSON (FILE) plus Prometheus text
   (FILE with a .prom suffix).  Streaming exit codes are per failure
   class: 2 syntax/range, 3 budget (incl. deadline), 4 internal — and 5
   when SIGINT or a closed output pipe cut the stream short (partial
   results and --metrics still flush). *)

open Cmdliner
module Error = Robust.Error
module Budget = Robust.Budget
module Supervisor = Service.Supervisor
module Client = Net.Client

let mode_conv =
  let parse = function
    | "even" | "nearest-even" -> Ok Fp.Rounding.To_nearest_even
    | "away" | "nearest-away" -> Ok Fp.Rounding.To_nearest_away
    | "nearest-zero" -> Ok Fp.Rounding.To_nearest_toward_zero
    | "zero" | "trunc" -> Ok Fp.Rounding.Toward_zero
    | "up" | "ceiling" -> Ok Fp.Rounding.Toward_positive
    | "down" | "floor" -> Ok Fp.Rounding.Toward_negative
    | s -> Error (`Msg (Printf.sprintf "unknown rounding mode %S" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Fp.Rounding.to_string m))

let format_conv =
  let parse = function
    | "binary16" | "half" -> Ok Fp.Format_spec.binary16
    | "binary32" | "single" | "float" -> Ok Fp.Format_spec.binary32
    | "binary64" | "double" -> Ok Fp.Format_spec.binary64
    | s -> Error (`Msg (Printf.sprintf "unknown format %S" s))
  in
  Arg.conv (parse, fun ppf f -> Fp.Format_spec.pp ppf f)

let strategy_conv =
  let parse = function
    | "fast" -> Ok Dragon.Scaling.Fast_estimate
    | "float-log" -> Ok Dragon.Scaling.Float_log
    | "gay" -> Ok Dragon.Scaling.Gay_taylor
    | "iterative" -> Ok Dragon.Scaling.Iterative
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf (Dragon.Scaling.strategy_name s))

let notation_conv =
  let parse = function
    | "auto" -> Ok Dragon.Render.Auto
    | "sci" | "scientific" -> Ok Dragon.Render.Scientific
    | "pos" | "positional" -> Ok Dragon.Render.Positional
    | s -> Error (`Msg (Printf.sprintf "unknown notation %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf n ->
        Format.pp_print_string ppf
          (match n with
          | Dragon.Render.Auto -> "auto"
          | Dragon.Render.Scientific -> "scientific"
          | Dragon.Render.Positional -> "positional") )

let numbers =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"NUMBER" ~doc:"Decimal numbers to convert.")

let base =
  Arg.(value & opt int 10 & info [ "b"; "base" ] ~docv:"BASE" ~doc:"Output base (2-36).")

let mode =
  Arg.(
    value
    & opt mode_conv Fp.Rounding.To_nearest_even
    & info [ "m"; "mode" ]
        ~doc:
          "Reader rounding mode the output must survive: even, away, \
           nearest-zero, zero, up, down.")

let fmt =
  Arg.(
    value
    & opt format_conv Fp.Format_spec.binary64
    & info [ "f"; "format" ] ~doc:"Target format: binary16, binary32, binary64.")

let strategy =
  Arg.(
    value
    & opt strategy_conv Dragon.Scaling.Fast_estimate
    & info [ "s"; "strategy" ]
        ~doc:"Scaling strategy: fast, float-log, gay, iterative.")

let notation =
  Arg.(
    value
    & opt notation_conv Dragon.Render.Auto
    & info [ "n"; "notation" ] ~doc:"Rendering: auto, scientific, positional.")

let digits =
  Arg.(
    value
    & opt (some int) None
    & info [ "d"; "digits" ] ~docv:"N" ~doc:"Fixed format with $(docv) significant digits.")

let places =
  Arg.(
    value
    & opt (some int) None
    & info [ "p"; "places" ] ~docv:"N"
        ~doc:"Fixed format with $(docv) digits after the radix point.")

let hex_out =
  Arg.(
    value & flag
    & info [ "x"; "hex" ]
        ~doc:
          "Print in C17 hexadecimal-significand notation (exact; binary64 \
           only).")

let stdin_flag =
  Arg.(
    value & flag
    & info [ "stdin" ]
        ~doc:
          "Streaming batch mode: read newline-delimited numbers from \
           standard input, one conversion per line.  Per-line failures \
           are reported on stderr as structured errors without aborting \
           the stream; blank lines are skipped.")

let max_errors =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-errors" ] ~docv:"N"
        ~doc:
          "With $(b,--stdin), stop after $(docv) failed lines (default: \
           never stop; every line is attempted).")

let jobs_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "With $(b,--stdin), convert lines on $(docv) parallel worker \
           domains through the supervised service: bounded queue with \
           backpressure, automatic retry of transient internal failures, \
           circuit breaker with a clearly-marked degraded fallback, and \
           output in input order.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "With $(b,--stdin), print service statistics on exit to stderr: \
           per-error-class counts, retries, queue depth and breaker state.")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "With $(b,--stdin), give each line a $(docv)-millisecond \
           wall-clock deadline, enforced cooperatively inside the digit \
           loops; an expired line fails with a structured budget \
           (timeout) error.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR[,ADDR...]"
        ~doc:
          "Convert through running bdprintd daemon(s) instead of \
           in-process: a comma-separated endpoint list (HOST:PORT, :PORT, \
           PORT or unix:PATH) used with reconnection, retries, failover, \
           endpoint ejection/readmission and honored SHED retry-after \
           hints.  When every endpoint is unreachable the conversion \
           falls back to the local in-process pipeline, so the stream \
           still completes.  A malformed address is a typed range error \
           (exit 2) reported before any socket is opened.  Remote \
           degraded replies are printed with the same 'degraded:' prefix \
           as $(b,--jobs) in $(b,--stdin) mode.")

let hedge_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hedge-ms" ] ~docv:"MS"
        ~doc:
          "With $(b,--connect) and at least two endpoints: duplicate a \
           request that has not answered within $(docv) milliseconds to a \
           second endpoint and take the first answer.  Safe because \
           conversions are pure — the worst case is wasted work.")

let metrics_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "With $(b,--stdin), enable the telemetry registry and write a \
           JSON snapshot of every metric (pipeline counters, stage-timing \
           and digit-count histograms, service/breaker state) to $(docv) \
           on exit, plus a Prometheus text rendering next to it ($(docv) \
           with its .json suffix replaced by .prom).")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable request tracing and write the sampled spans as Chrome \
           trace-event JSON to $(docv) on exit, loadable in \
           chrome://tracing or Perfetto (ui.perfetto.dev).  One request \
           in 64 is traced; BDPRINT_TRACE_SAMPLE=N overrides the \
           interval (1 traces every request).  Each traced request is \
           its own thread track, so its spans — parse, scale, generate, \
           render, and with $(b,--connect) or $(b,--jobs) the \
           client-attempt, backoff, queue-wait and worker spans — nest \
           by time containment.")

(* Tracing rides the same at_exit flush discipline as --metrics: even a
   stream cut short by SIGINT still leaves a loadable trace file. *)
let install_trace = function
  | None -> ()
  | Some file ->
    Telemetry.Tracing.set_enabled true;
    (match Sys.getenv_opt "BDPRINT_TRACE_SAMPLE" with
    | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Telemetry.Tracing.set_sample_every n
      | _ -> ())
    | None -> ());
    at_exit (fun () ->
        try
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (Telemetry.Tracing.to_chrome_json ()))
        with Sys_error _ -> ())

let is_hex_literal s =
  let s =
    if String.length s > 0 && (s.[0] = '-' || s.[0] = '+') then
      String.sub s 1 (String.length s - 1)
    else s
  in
  String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')

(* Vet the fixed-format request before any conversion runs: misuse
   (--digits 0, --places 1000000) must be a clean structured error up
   front, not a per-number failure or an unbounded allocation. *)
let vet_request request =
  let cap = (Robust.Budget.get ()).Robust.Budget.max_output_digits in
  match request with
  | Some (Dragon.Fixed_format.Relative d) ->
    if d < 1 then
      Some (Error.range ~what:"--digits" (Printf.sprintf "%d < 1" d))
    else if d > cap then
      Some (Error.budget ~what:"--digits" ~limit:cap ~got:d)
    else None
  | Some (Dragon.Fixed_format.Absolute j) ->
    if abs j > cap then
      Some (Error.budget ~what:"--places" ~limit:cap ~got:(abs j))
    else None
  | None -> None

let convert_one ~base ~mode ~fmt ~strategy ~notation ~request ~hex_out input =
  let t0 = Telemetry.Trace.start () in
  let parsed =
    if is_hex_literal input then Reader.Hex.read ~mode fmt input
    else if
      (* binary64 round-to-nearest-even is the certified fast reader's
         domain; it proves agreement with the exact reader, so routing
         through it changes nothing but the tier counters (and speed) *)
      Fp.Format_spec.equal fmt Fp.Format_spec.binary64
      && mode = Fp.Rounding.To_nearest_even
    then Result.map Fp.Ieee.decompose (Reader.Fast.read input)
    else Reader.read ~mode fmt input
  in
  Telemetry.Trace.finish Telemetry.Trace.Parse t0;
  match parsed with
  | Error _ as e -> e
  | Ok value -> (
    match (request, value) with
    | _ when hex_out -> Ok (Dragon.Printer.print_hex (Fp.Ieee.compose value))
    | None, _ ->
      Dragon.Printer.print_value ~base ~mode ~strategy ~notation fmt value
    | Some _, Fp.Value.Zero neg -> Ok (Dragon.Render.zero ~neg ())
    | Some _, Fp.Value.Inf neg -> Ok (Dragon.Render.infinity ~neg ())
    | Some _, Fp.Value.Nan -> Ok Dragon.Render.nan
    | Some req, Fp.Value.Finite v -> (
      match Dragon.Fixed_format.convert ~base ~mode fmt v req with
      | Error _ as e -> e
      | Ok t -> Ok (Dragon.Render.fixed ~notation ~neg:v.Fp.Value.neg ~base t)))

(* Per-class error accounting shared by the sequential and parallel
   stream drivers; the stream exit code reflects the most severe class
   seen (docs/ROBUSTNESS.md taxonomy): 4 internal, 3 budget (incl.
   deadline timeouts), 2 syntax/range, 0 clean. *)
type class_counts = {
  mutable n_syntax : int;
  mutable n_range : int;
  mutable n_budget : int;
  mutable n_internal : int;
}
[@@lint.domain_safe "owned by the single collector thread of a stream run"]

let new_counts () = { n_syntax = 0; n_range = 0; n_budget = 0; n_internal = 0 }

let count_error c = function
  | Error.Syntax _ -> c.n_syntax <- c.n_syntax + 1
  | Error.Range _ -> c.n_range <- c.n_range + 1
  | Error.Budget _ -> c.n_budget <- c.n_budget + 1
  | Error.Internal _ -> c.n_internal <- c.n_internal + 1

let total_errors c = c.n_syntax + c.n_range + c.n_budget + c.n_internal

let class_exit_code c =
  if c.n_internal > 0 then 4
  else if c.n_budget > 0 then 3
  else if c.n_syntax + c.n_range > 0 then 2
  else 0

(* Stream-level counters: both drivers (sequential and supervised
   parallel) feed the same registry metrics, so --stats and --metrics
   report identical fields whichever driver ran. *)
let m_conversions =
  Telemetry.Metrics.counter
    ~help:"Input lines submitted for conversion (all outcomes)."
    "bdprint_conversions_total"

let result_counter r =
  Telemetry.Metrics.counter
    ~labels:[ ("result", r) ]
    ~help:"Converted lines by result: pipeline output or degraded fallback."
    "bdprint_conversion_results_total"

let m_ok = result_counter "ok"
let m_degraded = result_counter "degraded"

let error_counter cls =
  Telemetry.Metrics.counter
    ~labels:[ ("class", cls) ]
    ~help:"Failed lines by structured error class."
    "bdprint_conversion_errors_total"

let m_err_syntax = error_counter "syntax"
let m_err_range = error_counter "range"
let m_err_budget = error_counter "budget"
let m_err_internal = error_counter "internal"

let record_error = function
  | Error.Syntax _ -> Telemetry.Metrics.incr m_err_syntax
  | Error.Range _ -> Telemetry.Metrics.incr m_err_range
  | Error.Budget _ -> Telemetry.Metrics.incr m_err_budget
  | Error.Internal _ -> Telemetry.Metrics.incr m_err_internal

let g_jobs =
  Telemetry.Metrics.gauge
    ~help:"Worker domains converting the stream (1 = sequential driver)."
    "bdprint_stream_jobs"

let g_queue_capacity =
  Telemetry.Metrics.gauge
    ~help:"Bounded submission-queue capacity (0 = sequential driver)."
    "bdprint_stream_queue_capacity"

let prom_path json_path =
  if Filename.check_suffix json_path ".json" then
    Filename.chop_suffix json_path ".json" ^ ".prom"
  else json_path ^ ".prom"

(* One exit path for both stream drivers: snapshot the registry once,
   render --stats from it (so sequential and parallel print identical
   fields), dump --metrics files, exit with the class code — or with the
   distinct code 5 when the stream was cut short by SIGINT or a closed
   output pipe, so callers can tell "clean but partial" from "complete".
   Metrics flush on the interrupted path too: a cut-short run still
   reports what it converted. *)
let finish_stream ~counts ~show_stats ~metrics_file ~interrupted =
  (try flush stdout
   with Sys_error _ ->
     (* stdout is a broken pipe and its buffer cannot drain; repoint
        fd 1 at /dev/null so the exit-time flush cannot raise *)
     (try
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 null Unix.stdout;
        Unix.close null
      with Unix.Unix_error (_, _, _) -> ()));
  let snap = Telemetry.Snapshot.take () in
  if show_stats then Format.eprintf "%a@.%!" Telemetry.Snapshot.pp_stream snap;
  (match metrics_file with
  | None -> ()
  | Some file ->
    let write path contents =
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc contents)
    in
    write file (Telemetry.Snapshot.to_json snap);
    write (prom_path file) (Telemetry.Snapshot.to_prometheus snap));
  let errors = total_errors counts in
  if errors > 0 then
    Printf.eprintf "error: %d input line(s) failed\n%!" errors;
  if interrupted then begin
    Printf.eprintf
      "error: stream interrupted (signal or closed output); partial results \
       and metrics flushed\n\
       %!";
    exit 5
  end;
  exit (class_exit_code counts)

(* Sequential deadline support: same pre-flight + cooperative-check
   semantics as the service workers. *)
let with_line_deadline deadline_ms convert input =
  match deadline_ms with
  | None -> convert input
  | Some ms ->
    let d = Budget.deadline_after ~ms in
    Budget.set_deadline (Some d);
    Fun.protect
      ~finally:(fun () -> Budget.set_deadline None)
      (fun () ->
        if Budget.expired d then Result.Error (Budget.deadline_error d)
        else convert input)

(* Stream interruption: SIGINT mid-stream (operator ^C) and SIGPIPE
   (downstream consumer closed the pipe) both stop the stream cleanly —
   flush whatever converted, flush --metrics, exit 5 — instead of dying
   with the default signal action and losing the telemetry.  SIGPIPE is
   ignored so broken-pipe writes surface as catchable [Sys_error]. *)
let install_stream_signals () =
  let interrupted = Atomic.make false in
  let note _ = Atomic.set interrupted true in
  (try ignore (Sys.signal Sys.sigint (Sys.Signal_handle note))
   with Invalid_argument _ | Sys_error _ -> ());
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  interrupted

let run_stream ~convert ~max_errors ~deadline_ms ~show_stats ~metrics_file =
  let counts = new_counts () in
  let lineno = ref 0 in
  let aborted = ref false in
  let interrupted = install_stream_signals () in
  Telemetry.Metrics.set_gauge g_jobs 1;
  (try
     while (not !aborted) && not (Atomic.get interrupted) do
       let line = input_line stdin in
       incr lineno;
       if String.trim line <> "" then begin
         Telemetry.Metrics.incr m_conversions;
         let tid = Telemetry.Tracing.begin_request () in
         (match with_line_deadline deadline_ms convert (String.trim line) with
         | Ok out ->
           Telemetry.Metrics.incr m_ok;
           print_string out;
           print_newline ()
         | Error e ->
           count_error counts e;
           record_error e;
           Printf.eprintf "error: line %d: %s\n%!" !lineno (Error.to_string e);
           (match max_errors with
           | Some cap when total_errors counts >= cap ->
             Printf.eprintf
               "error: aborting after %d failed line(s) (--max-errors %d)\n%!"
               (total_errors counts) cap;
             aborted := true
           | _ -> ()));
         Telemetry.Tracing.end_request tid
       end
     done
   with
  | End_of_file -> ()
  | Sys_error _ ->
    (* broken stdout pipe (SIGPIPE ignored above) or stdin error *)
    Atomic.set interrupted true);
  finish_stream ~counts ~show_stats ~metrics_file
    ~interrupted:(Atomic.get interrupted)

(* Parallel streaming through the supervised service.  The collector
   domain owns stdout/stderr during the run (replies arrive in input
   order); the main domain only reads stdin and submits, so output never
   interleaves.  --max-errors sets a stop flag read by the submission
   loop; lines already in flight still drain (the shutdown contract
   forbids dropping submitted work). *)
let run_stream_jobs ~convert ~jobs ~max_errors ~deadline_ms ~show_stats
    ~metrics_file =
  let counts = new_counts () in
  let stop = Atomic.make false in
  let interrupted = install_stream_signals () in
  let emit (reply : Supervisor.reply) =
    Telemetry.Metrics.incr m_conversions;
    match reply.Supervisor.outcome with
    | Supervisor.Done out -> (
      Telemetry.Metrics.incr m_ok;
      try
        print_string out;
        print_newline ()
      with Sys_error _ ->
        (* downstream consumer closed the pipe: stop submitting; lines
           already in flight still drain (emitted, writes no-op) *)
        Atomic.set interrupted true)
    | Supervisor.Degraded out -> (
      (* breaker-open fallback: correct to 17 significant digits but not
         the pipeline's output — keep the tag machine-visible *)
      Telemetry.Metrics.incr m_degraded;
      try Printf.printf "degraded:%s\n" out
      with Sys_error _ -> Atomic.set interrupted true)
    | Supervisor.Failed e ->
      count_error counts e;
      record_error e;
      Printf.eprintf "error: line %d: %s\n%!" reply.Supervisor.lineno
        (Error.to_string e);
      (match max_errors with
      | Some cap when total_errors counts >= cap && not (Atomic.get stop) ->
        Printf.eprintf
          "error: aborting after %d failed line(s) (--max-errors %d)\n%!"
          (total_errors counts) cap;
        Atomic.set stop true
      | _ -> ())
  in
  let queue_capacity = max 64 (8 * jobs) in
  Telemetry.Metrics.set_gauge g_jobs jobs;
  Telemetry.Metrics.set_gauge g_queue_capacity queue_capacity;
  let service = Supervisor.start ~jobs ~queue_capacity ~emit convert in
  let lineno = ref 0 in
  (try
     while (not (Atomic.get stop)) && not (Atomic.get interrupted) do
       let line = input_line stdin in
       incr lineno;
       if String.trim line <> "" then begin
         (* the worker that dequeues the job adopts this id, so the
            sampling decision happens here on the submitting domain *)
         let tid = Telemetry.Tracing.sample () in
         Supervisor.submit service ?deadline_ms ~tid ~lineno:!lineno
           (String.trim line)
       end
     done
   with
  | End_of_file -> ()
  | Sys_error _ -> Atomic.set interrupted true);
  let (_ : Supervisor.stats) = Supervisor.shutdown service in
  (* counts was filled by the collector domain; shutdown joined it, so
     the reads below are safely ordered after its writes *)
  finish_stream ~counts ~show_stats ~metrics_file
    ~interrupted:(Atomic.get interrupted)

(* Route conversions through the resilient daemon client.  The address
   list is vetted before any socket is opened: a malformed address is a
   typed range error with exit code 2, matching the streaming exit-code
   taxonomy.  The locally-built pipeline rides along as the client's
   final fallback tier. *)
let connect_client ~local ~hedge_ms ~show_stats spec =
  let addrs =
    match Client.parse_addrs spec with
    | Result.Ok addrs -> addrs
    | Result.Error e ->
      Printf.eprintf "error: %s\n%!" (Error.to_string e);
      exit 2
  in
  let config = { Client.default_config with Client.hedge_ms } in
  let client = Client.create ~config ~local addrs in
  (* The client-stats exit line is opt-in — --stats, or the
     BDPRINT_CLIENT_STATS environment variable for wrapper scripts that
     cannot reach the flag — so plumbing that parses stderr never meets
     an unexpected trailer. *)
  let stats_env =
    match Sys.getenv_opt "BDPRINT_CLIENT_STATS" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  if show_stats || stats_env then
    at_exit (fun () ->
        let s = Client.stats client in
        Printf.eprintf
          "client: requests=%d remote-ok=%d degraded=%d local-fallbacks=%d \
           errors=%d retries=%d sheds-honored=%d hedges=%d hedge-wins=%d \
           ejections=%d readmissions=%d reconnects=%d\n\
           %!"
          s.Client.requests s.Client.remote_ok s.Client.remote_degraded
          s.Client.local_fallbacks s.Client.typed_errors s.Client.retries
          s.Client.sheds_honored s.Client.hedges s.Client.hedge_wins
          s.Client.ejections s.Client.readmissions s.Client.reconnects);
  client

let run base mode fmt strategy notation digits places hex_out use_stdin
    max_errors jobs show_stats deadline_ms metrics_file connect hedge_ms
    trace numbers =
  if base < 2 || base > 36 then
    `Error
      ( false,
        Error.to_string
          (Error.range ~what:"base" (Printf.sprintf "%d not in 2..36" base)) )
  else if (match jobs with Some j -> j < 1 | None -> false) then
    `Error
      ( false,
        Error.to_string (Error.range ~what:"--jobs" "must be at least 1") )
  else if (match deadline_ms with Some ms -> ms < 0 | None -> false) then
    `Error
      ( false,
        Error.to_string (Error.range ~what:"--deadline-ms" "must be >= 0") )
  else if (not use_stdin) && jobs <> None then
    `Error (false, "--jobs requires --stdin")
  else if (not use_stdin) && deadline_ms <> None then
    `Error (false, "--deadline-ms requires --stdin")
  else if (not use_stdin) && show_stats && connect = None then
    `Error (false, "--stats requires --stdin or --connect")
  else if (not use_stdin) && metrics_file <> None then
    `Error (false, "--metrics requires --stdin")
  else if connect = None && hedge_ms <> None then
    `Error (false, "--hedge-ms requires --connect")
  else if (match hedge_ms with Some h -> h < 1 | None -> false) then
    `Error
      ( false,
        Error.to_string (Error.range ~what:"--hedge-ms" "must be at least 1")
      )
  else begin
    (* Flip the registry on before the service spawns workers so every
       domain observes the same switch state from its first conversion. *)
    if show_stats || metrics_file <> None then Telemetry.set_enabled true;
    install_trace trace;
    let request =
      match (digits, places) with
      | Some _, Some _ -> Result.Error "use only one of --digits and --places"
      | Some d, None -> Result.Ok (Some (Dragon.Fixed_format.Relative d))
      | None, Some p -> Result.Ok (Some (Dragon.Fixed_format.Absolute (-p)))
      | None, None -> Result.Ok None
    in
    match request with
    | Result.Error e -> `Error (false, e)
    | Result.Ok request -> (
      match vet_request request with
      | Some e -> `Error (false, Error.to_string e)
      | None -> (
        let convert =
          convert_one ~base ~mode ~fmt ~strategy ~notation ~request ~hex_out
        in
        (* --connect swaps the conversion function for the resilient
           client (remote tiers first, this pipeline as local fallback)
           and moves deadline enforcement into the client, where it also
           bounds socket timeouts, retries and shed waits *)
        let convert, deadline_ms =
          match connect with
          | None -> (convert, deadline_ms)
          | Some spec ->
            let client =
              connect_client ~local:convert ~hedge_ms ~show_stats spec
            in
            let remote input =
              match Client.convert client ?deadline_ms input with
              | Result.Ok { Client.output; degraded = true; _ }
                when use_stdin ->
                Result.Ok ("degraded:" ^ output)
              | Result.Ok o -> Result.Ok o.Client.output
              | Result.Error _ as e -> e
            in
            (remote, None)
        in
        match (use_stdin, numbers) with
        | true, _ :: _ ->
          `Error (false, "--stdin and positional NUMBER arguments conflict")
        | true, [] -> (
          match jobs with
          | Some jobs ->
            run_stream_jobs ~convert ~jobs ~max_errors ~deadline_ms
              ~show_stats ~metrics_file
          | None ->
            run_stream ~convert ~max_errors ~deadline_ms ~show_stats
              ~metrics_file)
        | false, [] -> `Error (true, "missing NUMBER argument (or --stdin)")
        | false, numbers ->
          let ok = ref true in
          List.iter
            (fun input ->
              match convert input with
              | Error e ->
                ok := false;
                Printf.eprintf "error: %s\n" (Error.to_string e)
              | Ok out -> Printf.printf "%s\n" out)
            numbers;
          if !ok then `Ok () else `Error (false, "some inputs failed")))
  end

let cmd =
  let doc = "print floating-point numbers quickly and accurately" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Converts decimal inputs into a binary floating-point format with \
         correct rounding, then prints them back using the Burger-Dybvig \
         (PLDI 1996) free-format or fixed-format algorithm.  Free format \
         emits the shortest string that reads back to the same value; fixed \
         format emits correctly rounded digits with '#' marking positions \
         beyond the value's precision.";
      `P
        "Failures are structured: syntax errors (bad input text), range \
         errors (bad request parameters), budget errors (requests that \
         would exceed the resource caps, e.g. million-digit output) and \
         internal errors.  Inputs with astronomical exponents like \
         1e999999999 convert to the correctly rounded extreme (0 or inf) \
         in constant time.";
      `P
        "With --stdin the exit code reflects the most severe failure \
         class seen on the stream: 0 clean, 2 syntax/range, 3 budget \
         (including --deadline-ms timeouts), 4 internal, 5 interrupted \
         (SIGINT or closed output pipe; partial results and --metrics \
         flush before exiting).  With --jobs N \
         the stream runs through a supervised parallel worker pool: \
         bounded submission queue with backpressure, per-line deadlines, \
         automatic retry of transient internal failures with capped \
         exponential backoff, and a circuit breaker that degrades to a \
         clearly-marked host-printf fallback (lines prefixed \
         'degraded:') instead of refusing service.  Output stays in \
         input order.";
      `S Manpage.s_examples;
      `Pre
        "  bdprint 0.1 1e23\n\
        \  bdprint --digits 10 --format binary32 0.333333333\n\
        \  bdprint --base 16 --notation scientific 255.9375\n\
        \  bdprint --places 20 100\n\
        \  printf '0.1\\\\n1e23\\\\nbogus\\\\n' | bdprint --stdin --max-errors 5\n\
        \  bdprint --stdin --jobs 4 --stats < corpus.txt\n\
        \  bdprint --stdin --jobs 4 --metrics metrics.json < corpus.txt\n\
        \  bdprint --stdin --deadline-ms 50 < corpus.txt\n\
        \  BDPRINT_TRACE_SAMPLE=1 bdprint --stdin --trace trace.json < corpus.txt";
    ]
  in
  Cmd.v
    (Cmd.info "bdprint" ~version:"1.0.0" ~doc ~man)
    Term.(
      ret
        (const run $ base $ mode $ fmt $ strategy $ notation $ digits $ places
       $ hex_out $ stdin_flag $ max_errors $ jobs_flag $ stats_flag
       $ deadline_ms $ metrics_file $ connect_arg $ hedge_ms_arg $ trace_file
       $ numbers))

let () = exit (Cmd.eval cmd)
