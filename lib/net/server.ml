module Error = Robust.Error
module Budget = Robust.Budget
module Faults = Robust.Faults
module Supervisor = Service.Supervisor

type listen = Unix_path of string | Tcp of string * int

type config = {
  jobs : int;
  admission_capacity : int;
  default_deadline_ms : int option;
  retry : Supervisor.retry_policy;
  breaker : Service.Breaker.policy;
  watchdog : Supervisor.watchdog_policy option;
}

let default_config =
  {
    jobs = 2;
    admission_capacity = 256;
    default_deadline_ms = None;
    retry = Supervisor.default_retry;
    breaker = Service.Breaker.default_policy;
    watchdog = Some Supervisor.default_watchdog;
  }

type stats = {
  connections : int;
  active_connections : int;
  requests : int;
  replies_ok : int;
  replies_degraded : int;
  replies_failed : int;
  shed_queue_full : int;
  shed_overload : int;
  shed_draining : int;
  proto_errors : int;
  supervisor : Supervisor.stats;
}

(* Per-request mailbox: the connection thread blocks on it, the
   supervisor's collector domain posts into it. *)
type waiter = {
  wm : Mutex.t;
  wc : Condition.t;
  mutable result : Supervisor.reply option;  (** guarded by [wm] *)
}
[@@lint.guarded_by "wm"]

type phase = Running | Draining | Drained

(* Request routing and accounting, shared between connection threads,
   the accept thread and the collector domain. *)
type core = {
  m : Mutex.t;
  cv : Condition.t;  (** in_flight / conns_active / phase changes *)
  pending : (int, waiter) Hashtbl.t;  (** seq -> waiter *)
  clients : (Unix.file_descr, unit) Hashtbl.t;  (** open connections *)
  mutable phase : phase;
  mutable in_flight : int;  (** admitted, reply not yet produced *)
  mutable next_seq : int;
  mutable conns_total : int;
  mutable conns_active : int;
  mutable n_requests : int;
  mutable n_ok : int;
  mutable n_deg : int;
  mutable n_failed : int;
  mutable n_shed_full : int;
  mutable n_shed_overload : int;
  mutable n_shed_drain : int;
  mutable n_proto : int;
  mutable ewma_ms : float;
      (** exponentially-weighted mean admitted-request service time,
          admission to reply — feeds the adaptive admission controller
          and the [retry-after-ms] hints, so it is always maintained,
          independent of telemetry *)
}
[@@lint.guarded_by "m"]

type t = {
  cfg : config;
  spec : listen;
  core : core;
  sock : Unix.file_descr;
  addr_str : string;
  tcp_port : int option;
  sup : Supervisor.t;
  started : float;  (** wall-clock start time, for uptime reporting *)
  stop : bool Atomic.t;  (** drain request flag; async-signal-safe *)
  mutable accept_thread : Thread.t option;
      (** set once before [start] returns, read only by [wait] *)
  mutable final_sup : Supervisor.stats option;  (** guarded by [core.m] *)
}
[@@lint.domain_safe
  "accept_thread is written once before the value escapes start; final_sup \
   is written and read under core.m"]

(* Daemon protocol/build version, reported in HEALTHZ and STATS. *)
let version = "1.0.0"

let m_latency =
  Telemetry.Metrics.histogram
    ~help:"Conversion request latency in microseconds, admission to reply."
    ~bounds:(Telemetry.Metrics.log_linear ~lo:10 ~hi:1_000_000 ())
    "bdprintd_request_latency_us"

let m_shed =
  Telemetry.Metrics.counter
    ~help:"Requests answered SHED (admission queue full or draining)."
    "bdprintd_shed_total"

let m_connections =
  Telemetry.Metrics.counter ~help:"Connections accepted."
    "bdprintd_connections_total"

let m_proto_errors =
  Telemetry.Metrics.counter
    ~help:"Malformed frames answered ERR proto." "bdprintd_proto_errors_total"

(* {2 Socket helpers} *)

let rec write_chunk fd b off len =
  if len > 0 then begin
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_chunk fd b (off + n) (len - n)
  end

(* The two write-path fault points: [net.slow-client] stalls before the
   write (a client not keeping up), [net.partial-write] splits it into
   two short writes — exercising the resumption loop above. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  if Faults.fires "net.slow-client" then Thread.delay 0.002;
  if len > 1 && Faults.fires "net.partial-write" then begin
    let half = len / 2 in
    write_chunk fd b 0 half;
    Thread.delay 0.001;
    write_chunk fd b half (len - half)
  end
  else write_chunk fd b 0 len

type line = Line of string | Too_long | Closed

(* Bounded line reader: buffered reads, lines capped at [max_len] bytes.
   An over-long line is discarded up to its newline (resynchronising the
   stream) and reported as [Too_long], so a hostile frame cannot make the
   daemon buffer unboundedly or misparse the next frame. *)
type reader = {
  rfd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  line_buf : Buffer.t;
}
[@@lint.domain_safe "one reader per connection thread, never shared"]

let make_reader fd =
  { rfd = fd; rbuf = Bytes.create 8192; rpos = 0; rlen = 0; line_buf = Buffer.create 128 }

let rec refill r =
  match Unix.read r.rfd r.rbuf 0 (Bytes.length r.rbuf) with
  | 0 -> false
  | n ->
    r.rpos <- 0;
    r.rlen <- n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
  | exception Unix.Unix_error (_, _, _) -> false

let rec discard_to_nl r =
  if r.rpos >= r.rlen then if refill r then discard_to_nl r else false
  else
    match Bytes.index_from_opt r.rbuf r.rpos '\n' with
    | Some i when i < r.rlen ->
      r.rpos <- i + 1;
      true
    | _ ->
      r.rpos <- r.rlen;
      discard_to_nl r

let rec read_line r ~max_len =
  if r.rpos >= r.rlen then begin
    if refill r then read_line r ~max_len
    else begin
      (* EOF with a partial line buffered: the frame never completed *)
      Buffer.clear r.line_buf;
      Closed
    end
  end
  else
    match Bytes.index_from_opt r.rbuf r.rpos '\n' with
    | Some i when i < r.rlen ->
      Buffer.add_subbytes r.line_buf r.rbuf r.rpos (i - r.rpos);
      r.rpos <- i + 1;
      let s = Buffer.contents r.line_buf in
      Buffer.clear r.line_buf;
      if String.length s > max_len then Too_long else Line s
    | _ ->
      Buffer.add_subbytes r.line_buf r.rbuf r.rpos (r.rlen - r.rpos);
      r.rpos <- r.rlen;
      if Buffer.length r.line_buf > max_len then begin
        Buffer.clear r.line_buf;
        if discard_to_nl r then Too_long else Closed
      end
      else read_line r ~max_len

(* {2 Reply routing} *)

(* Runs on the collector domain; must not raise. *)
let route_reply core (r : Supervisor.reply) =
  Mutex.lock core.m;
  let w = Hashtbl.find_opt core.pending r.Supervisor.lineno in
  Hashtbl.remove core.pending r.Supervisor.lineno;
  Mutex.unlock core.m;
  match w with
  | None -> ()
  | Some w ->
    Mutex.lock w.wm;
    w.result <- Some r;
    Condition.signal w.wc;
    Mutex.unlock w.wm

let rec await w =
  (* called with [w.wm] held *)
  match w.result with
  | Some r -> r
  | None ->
    Condition.wait w.wc w.wm;
    await w

let count_shed () =
  if Telemetry.Metrics.enabled () then Telemetry.Metrics.incr m_shed

(* [retry-after-ms] hints from the service-time EWMA.  A [queue-full]
   shed clears once some in-flight request finishes: about one mean
   service time.  An [overload] shed clears once the projected queue
   wait has drained back under the deadline.  [draining] sheds carry no
   hint — the right client response is failover, not retry. *)
let shed_drain c =
  c.n_shed_drain <- c.n_shed_drain + 1;
  count_shed ();
  if Telemetry.Flight.enabled () then
    Telemetry.Flight.record ~kind:"shed" "draining";
  Wire.Shed { reason = "draining"; retry_after_ms = None }

let shed_full t c =
  c.n_shed_full <- c.n_shed_full + 1;
  count_shed ();
  if Telemetry.Flight.enabled () then
    Telemetry.Flight.record ~kind:"shed" "queue-full";
  let hint = max 1. (c.ewma_ms /. float (max 1 t.cfg.jobs)) in
  Wire.Shed
    { reason = "queue-full"; retry_after_ms = Some (int_of_float (ceil hint)) }

(* Projected wait before a request admitted now would start converting:
   the requests ahead of it, spread over the worker pool, each costing
   one mean service time. *)
let projected_wait_ms t c =
  float c.in_flight *. c.ewma_ms /. float (max 1 t.cfg.jobs)

let shed_overload c ~deadline_ms:d ~projected =
  c.n_shed_overload <- c.n_shed_overload + 1;
  count_shed ();
  if Telemetry.Flight.enabled () then
    Telemetry.Flight.record ~kind:"shed" "overload";
  let hint = max 1. (projected -. float d) in
  Wire.Shed
    { reason = "overload"; retry_after_ms = Some (int_of_float (ceil hint)) }

(* One conversion request, through shedding, supervisor and
   accounting.  Returns the reply to write plus whether the request
   holds an admission slot; the caller must {!release} the slot only
   AFTER writing the reply — drain's in-flight wait keys off it, and
   releasing before the write would let drain shut the client down
   between computing a reply and delivering it (losing an accepted
   request).  Never raises. *)
let convert_one t ~deadline_ms ~tid input : Wire.reply * bool =
  let c = t.core in
  Mutex.lock c.m;
  c.n_requests <- c.n_requests + 1;
  if c.phase <> Running then begin
    let reply = shed_drain c in
    Mutex.unlock c.m;
    (reply, false)
  end
  else if c.in_flight >= t.cfg.admission_capacity then begin
    let reply = shed_full t c in
    Mutex.unlock c.m;
    (reply, false)
  end
  else begin
    (* adaptive admission: shed when the projected queue wait alone
       already exceeds the request's deadline — converting would only
       burn a worker on a reply that arrives dead *)
    let projected = projected_wait_ms t c in
    let overloaded =
      match deadline_ms with
      | Some d when projected > float d -> Some d
      | Some _ | None -> None
    in
    match overloaded with
    | Some d ->
      let reply = shed_overload c ~deadline_ms:d ~projected in
      Mutex.unlock c.m;
      (reply, false)
    | None ->
    c.in_flight <- c.in_flight + 1;
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    let w = { wm = Mutex.create (); wc = Condition.create (); result = None } in
    Hashtbl.replace c.pending seq w;
    Mutex.unlock c.m;
    if Telemetry.Flight.enabled () then
      Telemetry.Flight.record ~req:seq ~kind:"admit" input;
    let reply =
      match Supervisor.submit t.sup ?deadline_ms ~tid ~lineno:seq input with
      | () ->
        Mutex.lock w.wm;
        let r = await w in
        Mutex.unlock w.wm;
        (match r.Supervisor.outcome with
        | Supervisor.Done out ->
          Mutex.lock c.m;
          c.n_ok <- c.n_ok + 1;
          Mutex.unlock c.m;
          Wire.Converted out
        | Supervisor.Degraded out ->
          Mutex.lock c.m;
          c.n_deg <- c.n_deg + 1;
          Mutex.unlock c.m;
          Wire.Degraded out
        | Supervisor.Failed e ->
          Mutex.lock c.m;
          c.n_failed <- c.n_failed + 1;
          Mutex.unlock c.m;
          Wire.Failed { cls = Error.category e; detail = Error.to_string e })
      | exception _ ->
        (* the supervisor refused the submission (can only happen if it
           was shut down under us, which drain's in-flight wait rules
           out — defensive, not expected) *)
        Mutex.lock c.m;
        Hashtbl.remove c.pending seq;
        let reply = shed_drain c in
        Mutex.unlock c.m;
        reply
    in
    (reply, true)
  end

let release_admission t =
  let c = t.core in
  Mutex.lock c.m;
  c.in_flight <- c.in_flight - 1;
  Condition.broadcast c.cv;
  Mutex.unlock c.m

(* Latency is measured unconditionally: beyond the (gated) histogram it
   feeds the admission controller's EWMA, which must stay live with
   telemetry off.  Only admitted requests update the EWMA — sheds say
   nothing about service time. *)
let ewma_alpha = 0.2

let timed_convert t ~deadline_ms ~tid input =
  let t0 = Unix.gettimeofday () in
  let ((_, admitted) as reply) = convert_one t ~deadline_ms ~tid input in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  if admitted then begin
    let c = t.core in
    Mutex.lock c.m;
    c.ewma_ms <-
      (if c.ewma_ms <= 0. then elapsed_ms
       else c.ewma_ms +. (ewma_alpha *. (elapsed_ms -. c.ewma_ms)));
    Mutex.unlock c.m
  end;
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.observe_ex m_latency ~trace_id:tid
      (int_of_float (elapsed_ms *. 1e3));
  reply

(* Write a conversion reply, then release its admission slot (write
   failures to a vanished client release too — the reply was produced
   and delivery attempted, which is all drain can wait for). *)
let write_conv_reply t fd ~tid (reply, admitted) =
  let wt0 = Telemetry.Tracing.span_of tid in
  if admitted then
    Fun.protect
      ~finally:(fun () -> release_admission t)
      (fun () -> write_all fd (Wire.render_reply reply))
  else write_all fd (Wire.render_reply reply);
  Telemetry.Tracing.emit ~tid Telemetry.Tracing.Wire_write wt0;
  reply

(* {2 Statistics} *)

let stats t =
  let c = t.core in
  Mutex.lock c.m;
  let final = t.final_sup in
  let partial =
    {
      connections = c.conns_total;
      active_connections = c.conns_active;
      requests = c.n_requests;
      replies_ok = c.n_ok;
      replies_degraded = c.n_deg;
      replies_failed = c.n_failed;
      shed_queue_full = c.n_shed_full;
      shed_overload = c.n_shed_overload;
      shed_draining = c.n_shed_drain;
      proto_errors = c.n_proto;
      supervisor = Supervisor.stats t.sup;
    }
  in
  Mutex.unlock c.m;
  let supervisor =
    match final with Some s -> s | None -> Supervisor.stats t.sup
  in
  { partial with supervisor }

let uptime_s t = Unix.gettimeofday () -. t.started

let stats_json t =
  let s = stats t in
  let b = Buffer.create 512 in
  let field name v = Printf.bprintf b "\"%s\":%d," name v in
  Buffer.add_char b '{';
  Printf.bprintf b "\"version\":\"%s\"," version;
  Printf.bprintf b "\"uptime_s\":%.3f," (uptime_s t);
  field "connections" s.connections;
  field "active_connections" s.active_connections;
  field "requests" s.requests;
  field "replies_ok" s.replies_ok;
  field "replies_degraded" s.replies_degraded;
  field "replies_failed" s.replies_failed;
  field "shed_queue_full" s.shed_queue_full;
  field "shed_overload" s.shed_overload;
  field "shed_draining" s.shed_draining;
  field "proto_errors" s.proto_errors;
  field "sup_submitted" s.supervisor.Supervisor.submitted;
  field "sup_completed" s.supervisor.Supervisor.completed;
  field "sup_degraded" s.supervisor.Supervisor.degraded;
  field "sup_retries" s.supervisor.Supervisor.retries;
  field "sup_crashes" s.supervisor.Supervisor.crashes;
  field "sup_respawns" s.supervisor.Supervisor.respawns;
  field "sup_wedges" s.supervisor.Supervisor.wedges;
  field "sup_breaker_trips" s.supervisor.Supervisor.breaker_trips;
  field "jobs" s.supervisor.Supervisor.jobs;
  Printf.bprintf b "\"breaker_state\":\"%s\"," s.supervisor.Supervisor.breaker_state;
  Printf.bprintf b "\"draining\":%b" (Atomic.get t.stop);
  Buffer.add_char b '}';
  Buffer.contents b

(* {2 Connection handling} *)

let proto_error t fd reason =
  let c = t.core in
  Mutex.lock c.m;
  c.n_proto <- c.n_proto + 1;
  Mutex.unlock c.m;
  if Telemetry.Metrics.enabled () then Telemetry.Metrics.incr m_proto_errors;
  write_all fd (Wire.render_reply (Wire.Failed { cls = "proto"; detail = reason }))

(* HEALTHZ attributes: uptime, version and watchdog wedge count —
   enough for a probe (or an operator with netcat) to see a daemon's
   identity and recent health in one line.  Old clients parse
   only the leading READY/DRAINING tag and ignore the rest. *)
let health_info t =
  let sup = Supervisor.stats t.sup in
  Printf.sprintf "uptime-s=%d version=%s wedges=%d"
    (int_of_float (uptime_s t))
    version sup.Supervisor.wedges

(* The trace id a conversion runs under: the wire TID when the client
   is tracing (so both processes' spans share a track), else a locally
   sampled id when this daemon traces on its own. *)
let conv_tid ~wire_tid =
  if wire_tid <> 0 then wire_tid else Telemetry.Tracing.sample ()

let handle_request t fd reader deadline_ms quit req =
  match req with
  | Wire.Conv { input; tid = wire_tid } ->
    let tid = conv_tid ~wire_tid in
    let rt0 = Telemetry.Tracing.span_of tid in
    let (_ : Wire.reply) =
      write_conv_reply t fd ~tid
        (timed_convert t ~deadline_ms:!deadline_ms ~tid input)
    in
    Telemetry.Tracing.emit ~tid Telemetry.Tracing.Request rt0
  | Wire.Batch { count = n; tid = wire_tid } ->
    let max_len = (Budget.get ()).Budget.max_input_length + 64 in
    let ok = ref 0 and failed = ref 0 and shed = ref 0 in
    let aborted = ref false in
    let i = ref 0 in
    while (not !aborted) && !i < n do
      incr i;
      (match read_line reader ~max_len with
      | Closed ->
        aborted := true;
        quit := true
      | Too_long ->
        incr failed;
        proto_error t fd "frame-too-long"
      | Line input -> (
        let tid = conv_tid ~wire_tid in
        match
          write_conv_reply t fd ~tid
            (timed_convert t ~deadline_ms:!deadline_ms ~tid (String.trim input))
        with
        | Wire.Converted _ | Wire.Degraded _ -> incr ok
        | Wire.Shed _ -> incr shed
        | _ -> incr failed))
    done;
    if not !aborted then
      write_all fd
        (Wire.render_reply (Wire.Batch_end { ok = !ok; failed = !failed; shed = !shed }))
  | Wire.Deadline ms ->
    deadline_ms := (if ms = 0 then None else Some ms);
    write_all fd (Wire.render_reply (Wire.Converted (Printf.sprintf "deadline=%d" ms)))
  | Wire.Ping -> write_all fd (Wire.render_reply Wire.Pong)
  | Wire.Healthz ->
    let ready = not (Atomic.get t.stop) in
    let info = health_info t in
    write_all fd
      (Wire.render_reply (if ready then Wire.Ready info else Wire.Draining info))
  | Wire.Stats ->
    write_all fd
      (Wire.render_reply (Wire.Payload { verb = "STATS"; body = stats_json t }))
  | Wire.Metrics ->
    let body = Telemetry.Snapshot.to_prometheus (Telemetry.Snapshot.take ()) in
    write_all fd (Wire.render_reply (Wire.Payload { verb = "METRICS"; body }))
  | Wire.Trace_dump ->
    let body = Telemetry.Tracing.to_chrome_json () in
    write_all fd (Wire.render_reply (Wire.Payload { verb = "TRACE"; body }))
  | Wire.Quit ->
    write_all fd (Wire.render_reply Wire.Bye);
    quit := true

let handle_conn t fd =
  let c = t.core in
  let reader = make_reader fd in
  let deadline_ms = ref t.cfg.default_deadline_ms in
  let max_len = (Budget.get ()).Budget.max_input_length + 64 in
  let quit = ref false in
  (try
     while not !quit do
       match read_line reader ~max_len with
       | Closed -> quit := true
       | Too_long -> proto_error t fd "frame-too-long"
       | Line line -> (
         match Wire.parse_request line with
         | Error reason -> proto_error t fd reason
         | Ok req -> handle_request t fd reader deadline_ms quit req)
     done
   with _ ->
     (* a write to a vanished client (EPIPE/ECONNRESET): drop the
        connection; all accounting already happened reply-side *)
     ());
  Mutex.lock c.m;
  Hashtbl.remove c.clients fd;
  c.conns_active <- c.conns_active - 1;
  Condition.broadcast c.cv;
  Mutex.unlock c.m;
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* {2 Accept loop and drain} *)

let finish_drain t =
  let c = t.core in
  Mutex.lock c.m;
  c.phase <- Draining;
  Mutex.unlock c.m;
  (try Unix.close t.sock with Unix.Unix_error (_, _, _) -> ());
  (* every admitted request must be answered before the pool stops *)
  Mutex.lock c.m;
  while c.in_flight > 0 do
    Condition.wait c.cv c.m
  done;
  Mutex.unlock c.m;
  let sup_stats = Supervisor.shutdown t.sup in
  Mutex.lock c.m;
  t.final_sup <- Some sup_stats;
  c.phase <- Drained;
  (* wake connection threads blocked in read: close() alone would not *)
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error (_, _, _) -> ())
    c.clients;
  Condition.broadcast c.cv;
  Mutex.unlock c.m;
  match t.spec with
  | Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ()

let rec accept_loop t =
  if Atomic.get t.stop then finish_drain t
  else begin
    (match Unix.select [ t.sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true t.sock with
      | fd, _ ->
        let c = t.core in
        Mutex.lock c.m;
        c.conns_total <- c.conns_total + 1;
        c.conns_active <- c.conns_active + 1;
        Hashtbl.replace c.clients fd ();
        Mutex.unlock c.m;
        if Telemetry.Metrics.enabled () then
          Telemetry.Metrics.incr m_connections;
        ignore (Thread.create (fun () -> handle_conn t fd) ())
      | exception Unix.Unix_error (_, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop t
  end

(* {2 Lifecycle} *)

let drain t = Atomic.set t.stop true
let draining t = Atomic.get t.stop

let wait t =
  let c = t.core in
  Mutex.lock c.m;
  while not (c.phase = Drained && c.conns_active = 0) do
    Condition.wait c.cv c.m
  done;
  Mutex.unlock c.m;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  stats t

let address t = t.addr_str
let port t = t.tcp_port

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let start ?(config = default_config) ~convert spec =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  match
    let domain, addr, tcp =
      match spec with
      | Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p, false)
      | Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port), true)
    in
    let sock = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    (try
       if tcp then Unix.setsockopt sock Unix.SO_REUSEADDR true;
       Unix.bind sock addr;
       Unix.listen sock 64
     with e ->
       (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
       (raise e) [@lint.can_raise Unix_error]);
    sock
  with
  | exception Unix.Unix_error (err, fn, arg) ->
    Result.Error
      (Error.internal ~where:"net.server"
         (Printf.sprintf "cannot listen: %s(%s): %s" fn arg
            (Unix.error_message err)))
  | exception Not_found ->
    Result.Error (Error.internal ~where:"net.server" "cannot resolve host")
  | sock ->
    let addr_str, tcp_port =
      match Unix.getsockname sock with
      | Unix.ADDR_UNIX p -> (p, None)
      | Unix.ADDR_INET (a, p) ->
        (Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p, Some p)
    in
    let core =
      {
        m = Mutex.create ();
        cv = Condition.create ();
        pending = Hashtbl.create 64;
        clients = Hashtbl.create 16;
        phase = Running;
        in_flight = 0;
        next_seq = 0;
        conns_total = 0;
        conns_active = 0;
        n_requests = 0;
        n_ok = 0;
        n_deg = 0;
        n_failed = 0;
        n_shed_full = 0;
        n_shed_overload = 0;
        n_shed_drain = 0;
        n_proto = 0;
        ewma_ms = 0.;
      }
    in
    let sup =
      Supervisor.start ~jobs:(max 1 config.jobs)
        ~queue_capacity:(max 1 config.admission_capacity)
        ~retry:config.retry ~breaker:config.breaker
        ?watchdog:config.watchdog
        ~emit:(route_reply core) convert
    in
    let t =
      {
        cfg = config;
        spec;
        core;
        sock;
        addr_str;
        tcp_port;
        sup;
        started = Unix.gettimeofday ();
        stop = Atomic.make false;
        accept_thread = None;
        final_sup = None;
      }
    in
    t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
    Result.Ok t
