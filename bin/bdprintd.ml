(* bdprintd: a crash-tolerant networked conversion daemon.

   Fronts the supervised conversion service (worker domains, retries,
   circuit breaker, degraded fallback, crash respawn) with the Wire
   line protocol over a Unix-domain or TCP socket: bounded admission
   with explicit SHED replies, per-connection deadlines, and graceful
   drain on SIGTERM/SIGINT — accepted
   requests finish, --metrics files flush, then a clean exit 0.

   The conversion semantics are bdprint's defaults: shortest
   round-tripping decimal output for binary64, round-to-nearest-even,
   through the certified fast-path reader.  See docs/SERVICE.md for the
   protocol. *)

open Cmdliner
module Error = Robust.Error
module Server = Net.Server

let convert input =
  match
    if
      String.length input > 2
      && (String.sub input 0 2 = "0x" || String.sub input 0 2 = "0X"
         || (String.length input > 3
            && input.[0] = '-'
            && (String.sub input 1 2 = "0x" || String.sub input 1 2 = "0X")))
    then Reader.Hex.read ~mode:Fp.Rounding.To_nearest_even Fp.Format_spec.binary64 input
    else Result.map Fp.Ieee.decompose (Reader.Fast.read input)
  with
  | Error _ as e -> e
  | Ok value ->
    Dragon.Printer.print_value ~base:10 ~mode:Fp.Rounding.To_nearest_even
      ~strategy:Dragon.Scaling.Fast_estimate ~notation:Dragon.Render.Auto
      Fp.Format_spec.binary64 value

let listen_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some 4 when String.sub s 0 4 = "unix" ->
      let p = String.sub s 5 (String.length s - 5) in
      if p = "" then Result.Error (`Msg "unix: needs a socket path")
      else Result.Ok (Server.Unix_path p)
    | Some i ->
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 -> Result.Ok (Server.Tcp (host, p))
      | _ -> Result.Error (`Msg (Printf.sprintf "bad port %S" port)))
    | None -> (
      match int_of_string_opt s with
      | Some p when p >= 0 && p <= 65535 ->
        Result.Ok (Server.Tcp ("127.0.0.1", p))
      | _ -> Result.Error (`Msg (Printf.sprintf "bad listen address %S" s)))
  in
  let print ppf = function
    | Server.Unix_path p -> Format.fprintf ppf "unix:%s" p
    | Server.Tcp (h, p) -> Format.fprintf ppf "%s:%d" h p
  in
  Arg.conv (parse, print)

let listen_arg =
  Arg.(
    value
    & opt listen_conv (Server.Tcp ("127.0.0.1", 0))
    & info [ "l"; "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: $(b,HOST:PORT), $(b,:PORT), $(b,PORT) (TCP; port \
           0 picks an ephemeral port) or $(b,unix:PATH).")

let jobs_arg =
  Arg.(
    value & opt int 2
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (at least 1).")

let admission_arg =
  Arg.(
    value & opt int 256
    & info [ "admission" ] ~docv:"N"
        ~doc:
          "Admission bound: maximum in-flight conversion requests; beyond \
           it requests are answered $(b,SHED queue-full).")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline applied to connections that do not \
           set their own with $(b,DEADLINE).")

let stuck_ms_arg =
  Arg.(
    value
    & opt int Service.Supervisor.default_watchdog.Service.Supervisor.stuck_ms
    & info [ "stuck-ms" ] ~docv:"MS"
        ~doc:
          "Watchdog threshold for deadline-less requests: a worker still \
           busy on one request after $(docv) ms is declared wedged — the \
           request is answered with a structured timeout and the worker \
           is replaced.  Requests carrying a deadline are declared wedged \
           shortly after it expires regardless of this setting.  0 \
           disables the watchdog entirely.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print service statistics on exit (stderr).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "On exit, dump the telemetry registry as JSON to $(docv) and \
           Prometheus text to $(docv) with a .prom suffix.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable request tracing and write the sampled spans as Chrome \
           trace-event JSON to $(docv) on drain (loadable in \
           chrome://tracing or Perfetto).  One request in 64 is traced; \
           BDPRINTD_TRACE_SAMPLE=N overrides the interval.  Clients that \
           send a TID token tie their spans to the same trace; the TRACE \
           protocol verb exports the live ring without waiting for \
           drain.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Enable the flight recorder: a fixed-size in-memory ring of \
           structured events (admissions, sheds, fault trips, breaker \
           transitions, worker service start/end).  When a worker \
           crashes, wedges, or the breaker opens, the ring is appended \
           to $(docv) as JSONL — a black-box dump identifying the \
           poisoned request.")

let prom_path json_path =
  if Filename.check_suffix json_path ".json" then
    Filename.chop_suffix json_path ".json" ^ ".prom"
  else json_path ^ ".prom"

let flush_metrics metrics_file =
  match metrics_file with
  | None -> ()
  | Some file ->
    let snap = Telemetry.Snapshot.take () in
    let write path contents =
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc contents)
    in
    write file (Telemetry.Snapshot.to_json snap);
    write (prom_path file) (Telemetry.Snapshot.to_prometheus snap)

let print_final_stats (s : Server.stats) =
  Printf.eprintf
    "bdprintd: served %d requests on %d connections: %d ok, %d degraded, \
     %d failed, %d shed (%d queue-full, %d overload, %d draining), %d \
     protocol errors\n\
     bdprintd: workers: %d submitted, %d crashes, %d wedges, %d respawns, \
     breaker=%s trips=%d\n\
     %!"
    s.Server.requests s.Server.connections s.Server.replies_ok
    s.Server.replies_degraded s.Server.replies_failed
    (s.Server.shed_queue_full + s.Server.shed_overload + s.Server.shed_draining)
    s.Server.shed_queue_full s.Server.shed_overload s.Server.shed_draining
    s.Server.proto_errors s.Server.supervisor.Service.Supervisor.submitted
    s.Server.supervisor.Service.Supervisor.crashes
    s.Server.supervisor.Service.Supervisor.wedges
    s.Server.supervisor.Service.Supervisor.respawns
    s.Server.supervisor.Service.Supervisor.breaker_state
    s.Server.supervisor.Service.Supervisor.breaker_trips

let run listen jobs admission deadline_ms stuck_ms show_stats metrics_file
    trace_file flight_file =
  if jobs < 1 then `Error (false, "--jobs must be at least 1")
  else if admission < 1 then `Error (false, "--admission must be at least 1")
  else if (match deadline_ms with Some ms -> ms < 0 | None -> false) then
    `Error (false, "--deadline-ms must be >= 0")
  else if stuck_ms < 0 then `Error (false, "--stuck-ms must be >= 0")
  else begin
    if show_stats || metrics_file <> None then Telemetry.set_enabled true;
    (match trace_file with
    | None -> ()
    | Some _ ->
      Telemetry.Tracing.set_enabled true;
      (match Sys.getenv_opt "BDPRINTD_TRACE_SAMPLE" with
      | Some n -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Telemetry.Tracing.set_sample_every n
        | _ -> ())
      | None -> ()));
    (match flight_file with
    | None -> ()
    | Some file ->
      Telemetry.Flight.set_enabled true;
      Telemetry.Flight.set_dump_path (Some file));
    let watchdog =
      if stuck_ms = 0 then None
      else
        Some
          { Service.Supervisor.default_watchdog with Service.Supervisor.stuck_ms }
    in
    let config =
      {
        Server.default_config with
        Server.jobs;
        admission_capacity = admission;
        default_deadline_ms = deadline_ms;
        watchdog;
      }
    in
    match Server.start ~config ~convert listen with
    | Result.Error e -> `Error (false, Error.to_string e)
    | Result.Ok server ->
      let on_signal _ = Server.drain server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      (* the address line is the startup handshake: harnesses parse it to
         learn the ephemeral port, then treat the daemon as ready *)
      Printf.printf "bdprintd: listening on %s\n%!" (Server.address server);
      let final = Server.wait server in
      if show_stats then print_final_stats final;
      flush_metrics metrics_file;
      (match trace_file with
      | None -> ()
      | Some file -> (
        try
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (Telemetry.Tracing.to_chrome_json ()))
        with Sys_error _ -> ()));
      Printf.eprintf "bdprintd: drained cleanly\n%!";
      `Ok ()
  end

let cmd =
  let doc = "a crash-tolerant networked conversion daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves Burger-Dybvig shortest-form conversions over a line \
         protocol (see docs/SERVICE.md): CONV/BATCH requests answered OK, \
         DEG (degraded fallback), ERR (structured failure) or SHED \
         (explicit load shedding), plus PING, HEALTHZ, DEADLINE, STATS, \
         METRICS and QUIT.";
      `P
        "The daemon survives worker-domain crashes (detect, answer \
         degraded, respawn), bounds its admission queue (shedding \
         explicitly instead of queuing unboundedly) and drains gracefully \
         on SIGTERM/SIGINT: accepted requests finish, new ones are shed, \
         statistics flush, exit code 0.";
      `S Manpage.s_examples;
      `Pre
        "  bdprintd --listen 127.0.0.1:7070 --jobs 4\n\
        \  bdprintd --listen unix:/tmp/bdprintd.sock --stats\n\
        \  bdprintd --listen :0 --metrics service-metrics.json\n\
        \  printf 'CONV 0.1\\\\nQUIT\\\\n' | nc 127.0.0.1 7070";
    ]
  in
  Cmd.v
    (Cmd.info "bdprintd" ~version:"1.0.0" ~doc ~man)
    Term.(
      ret
        (const run $ listen_arg $ jobs_arg $ admission_arg $ deadline_arg
       $ stuck_ms_arg $ stats_arg $ metrics_arg $ trace_arg $ flight_arg))

let () = exit (Cmd.eval cmd)
