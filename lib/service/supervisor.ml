module Error = Robust.Error
module Budget = Robust.Budget
module Faults = Robust.Faults

type retry_policy = {
  max_retries : int;
  backoff_ms : float;
  backoff_multiplier : float;
  backoff_cap_ms : float;
}

let default_retry =
  { max_retries = 4; backoff_ms = 1.0; backoff_multiplier = 2.0; backoff_cap_ms = 50.0 }

type watchdog_policy = { poll_ms : int; grace_ms : int; stuck_ms : int }

let default_watchdog = { poll_ms = 20; grace_ms = 100; stuck_ms = 10_000 }

type outcome = Done of string | Degraded of string | Failed of Error.t

type reply = { lineno : int; input : string; outcome : outcome; attempts : int }

type worker_stats = {
  worker : int;
  processed : int;
  retried : int;
  degraded : int;
}

type stats = {
  submitted : int;
  completed : int;
  succeeded : int;
  degraded : int;
  retries : int;
  syntax_failures : int;
  range_failures : int;
  budget_failures : int;
  internal_failures : int;
  crashes : int;
  respawns : int;
  wedges : int;
  breaker_state : string;
  breaker_trips : int;
  max_in_flight : int;
  capacity : int;
  jobs : int;
  workers : worker_stats array;
}

(* Service metrics are recorded unconditionally: one atomic op per
   reply, dwarfed by the conversion itself, and the service snapshot is
   the primary [--stats]/[--metrics] payload. *)
let m_retries =
  Telemetry.Metrics.counter
    ~help:"Retry attempts across all requests (attempts beyond the first)."
    "bdprint_service_retries_total"

let m_deadline_misses =
  Telemetry.Metrics.counter
    ~help:"Requests failed with a structured deadline-timeout error."
    "bdprint_service_deadline_misses_total"

let g_queue_depth =
  Telemetry.Metrics.gauge
    ~help:"Requests currently in flight (submitted but not yet emitted)."
    "bdprint_service_queue_depth"

let g_max_in_flight =
  Telemetry.Metrics.gauge
    ~help:"High-water mark of in-flight requests."
    "bdprint_service_max_in_flight"

let m_crashes =
  Telemetry.Metrics.counter
    ~help:"Worker-domain crashes: exceptions that escaped a worker loop \
           (e.g. an injected service.worker-kill fault)."
    "bdprint_service_worker_crashes_total"

let m_respawns =
  Telemetry.Metrics.counter
    ~help:"Worker domains automatically respawned after a crash."
    "bdprint_service_worker_respawns_total"

let m_wedges =
  Telemetry.Metrics.counter
    ~help:"Live-but-wedged workers detected by the watchdog: the stuck \
           request was answered with a structured timeout and the worker \
           abandoned and replaced."
    "bdprint_service_worker_wedges_total"

let worker_counter name help i =
  (Telemetry.Metrics.counter
     ~labels:[ ("worker", string_of_int i) ]
     ~help name)
  [@lint.can_raise
    Invalid_argument
    (* registry name validation: the names are static literals, so a
       failure is a programming error that should abort startup *)]

type worker_metrics = {
  mw_processed : Telemetry.Metrics.counter;
  mw_retried : Telemetry.Metrics.counter;
  mw_degraded : Telemetry.Metrics.counter;
}

let worker_metrics i =
  {
    mw_processed =
      worker_counter "bdprint_service_worker_processed_total"
        "Replies produced per worker domain." i;
    mw_retried =
      worker_counter "bdprint_service_worker_retried_total"
        "Requests that needed at least one retry, per worker domain." i;
    mw_degraded =
      worker_counter "bdprint_service_worker_degraded_total"
        "Breaker-fallback (degraded) replies per worker domain." i;
  }

type request = { req_lineno : int; req_input : string; req_tid : int }

(* One handoff unit: the lines of one [submit_batch], converted in order
   by one worker at a time, behind one backpressure slot.  A line's
   sequence number is [b_first] plus its index.  [b_t0.(i)] is line
   [i]'s queue-wait span token, opened at submit.  [b_replies.(i)] is
   written by the worker holding line [i] (or by the watchdog when it
   cancels that line) before [b_filled] passes [i]; the collector reads
   replies below [b_filled] only. *)
type batch = {
  b_reqs : request array;
  b_t0 : int array;
  b_deadline : Budget.deadline option;  (* taken at submit, for every line *)
  b_replies : reply array;
  b_first : int;
  mutable b_filled : int;  (* replies [0, b_filled) are posted *)
}
[@@lint.guarded_by "m"]

(* Heartbeat slot for one line a worker is converting, kept only when a
   watchdog is configured: registered when the worker starts the line,
   removed when its reply is posted.  The watchdog scans these; marking
   [cancelled] means the watchdog has already answered the line and
   handed the rest of its batch to a replacement worker, so the wedged
   worker's eventual reply must be dropped and the worker must exit
   instead of looping. *)
type running = {
  r_batch : batch;
  r_index : int;
  r_worker : int;
  r_started : float;
  mutable r_cancelled : bool;
}
[@@lint.guarded_by "m"]

type t = {
  jobs : int;
  capacity : int;
  convert : string -> (string, Error.t) result;
  fallback : string -> (string, Error.t) result;
  retry : retry_policy;
  breaker : Breaker.t;
  emit : reply -> unit;
  slots : Semaphore.Counting.t;  (* one per batch between submit and emit *)
  budget : Budget.t;
  heartbeats : bool;  (* a watchdog runs: track every running line *)
  m : Mutex.t;
  c_result : Condition.t;  (* replies posted, or closed: the collector *)
  c_work : Condition.t;  (* a batch submitted, or closed: the workers *)
  order : batch array;
      (* The work queue and the reorder queue in one ring: batch [k] (in
         submission order) sits in slot [k mod capacity] from submit
         until the collector has emitted its last reply; workers take
         batches [claimed ..], the semaphore keeps at most [capacity]
         in the ring.  A ring rather than a [Queue.t]: a popped [Queue]
         cell keeps its successors reachable, and once that cell is in
         the major heap, the minor collector's remembered set treats it
         as a root, so every batch that passed through since the last
         minor collection, replies included, would be promoted. *)
  mutable n_batches : int;  (* batches submitted *)
  mutable claimed : int;  (* batches taken by workers *)
  mutable submitted : int;
  mutable emitted : int;
  mutable closed : bool;
  mutable max_in_flight : int;
  mutable succeeded_n : int;
  mutable degraded_n : int;
  mutable retries_n : int;
  mutable fail_syntax : int;
  mutable fail_range : int;
  mutable fail_budget : int;
  mutable fail_internal : int;
  crashes_n : int Atomic.t;
  respawns_n : int Atomic.t;
  wedges_n : int Atomic.t;
  running : (int, running) Hashtbl.t;  (** seq -> heartbeat slot *)
  wd_stop : bool Atomic.t;
  w_processed : int array;
  w_retried : int array;
  w_degraded : int array;
  w_metrics : worker_metrics array;
  mutable workers : unit Domain.t list;
  mutable collector : unit Domain.t option;
  mutable wd_domain : unit Domain.t option;
}
[@@lint.guarded_by "m"]

(* The degraded path must not depend on the (presumed broken) exact
   pipeline: OCaml's own float parsing and %.17g rendering, which is
   information-preserving for binary64 if not shortest. *)
let default_fallback input =
  match float_of_string_opt (String.trim input) with
  | Some x -> Ok (Printf.sprintf "%.17g" x)
  | None -> Error (Error.syntax ~input "unparseable in degraded mode")

(* The injected worker-domain kill switch (armed via BDPRINT_FAULTS as
   service.worker-kill).  It deliberately raises *outside* every
   [Error.catch] region so the exception escapes the worker loop and
   genuinely terminates the domain — exercising crash detection and
   respawn, not the structured-error path. *)
exception Worker_killed

let kill_point = "service.worker-kill"

(* The crash reply must not depend on the worker that just died having
   been healthy: same degraded channel as the breaker fallback. *)
let crash_fallback t input =
  match Error.catch (fun () -> t.fallback input) with
  | Ok (Ok s) -> Degraded s
  | Ok (Error e) | Error e -> Failed e

(* No exception may escape a worker: re-guard the user's convert even
   though the public conversion APIs are already result-returning. *)
let run_convert t input =
  match Error.catch (fun () -> t.convert input) with
  | Ok r -> r
  | Error e -> Error e

let remaining_s = function
  | None -> infinity
  | Some (d : Budget.deadline) -> d.Budget.expires_at -. Unix.gettimeofday ()

(* Supervised execution of one request: breaker admission, cooperative
   deadline, capped-exponential retry for Internal-class failures.
   Returns the outcome and the number of convert attempts made. *)
let process t deadline input =
  Budget.set t.budget;
  Budget.set_deadline deadline;
  Fun.protect ~finally:(fun () -> Budget.set_deadline None) @@ fun () ->
  let fallback_outcome () =
    match Error.catch (fun () -> t.fallback input) with
    | Ok (Ok s) -> Degraded s
    | Ok (Error e) | Error e -> Failed e
  in
  match Breaker.admit t.breaker with
  | `Fallback -> (fallback_outcome (), 0)
  | (`Proceed | `Probe) as admission ->
    let is_probe = admission = `Probe in
    let timed_out () =
      (* a timeout says nothing about pipeline health, except for the
         half-open probe, which must always resolve the breaker state *)
      if is_probe then Breaker.record_failure t.breaker
    in
    let rec attempt n backoff =
      match deadline with
      | Some d when Budget.expired d ->
        timed_out ();
        (Failed (Budget.deadline_error d), n)
      | _ -> (
        match run_convert t input with
        | Ok s ->
          Breaker.record_success t.breaker;
          (Done s, n + 1)
        | Error (Error.Internal _ as e) ->
          if n < t.retry.max_retries then begin
            let pause =
              Float.min (backoff /. 1000.) (remaining_s deadline)
            in
            if pause > 0. then Unix.sleepf pause;
            attempt (n + 1)
              (Float.min
                 (backoff *. t.retry.backoff_multiplier)
                 t.retry.backoff_cap_ms)
          end
          else begin
            Breaker.record_failure t.breaker;
            (Failed e, n + 1)
          end
        | Error e ->
          (* Syntax/Range/Budget: the pipeline did its job — fail fast,
             don't retry, don't count against the breaker *)
          Breaker.record_success t.breaker;
          (Failed e, n + 1))
    in
    attempt 0 t.retry.backoff_ms

let dummy_reply = { lineno = 0; input = ""; outcome = Done ""; attempts = 0 }

(* fills the free slots of the [order] ring; never mutated *)
let no_batch =
  {
    b_reqs = [||];
    b_t0 = [||];
    b_deadline = None;
    b_replies = [||];
    b_first = 0;
    b_filled = 0;
  }

(* Reply accounting; called with [t.m] held. *)
let account_locked t ~worker reply =
  let wm = t.w_metrics.(worker) in
  Telemetry.Metrics.incr wm.mw_processed;
  t.w_processed.(worker) <- t.w_processed.(worker) + 1;
  (match reply.outcome with
  | Done _ -> t.succeeded_n <- t.succeeded_n + 1
  | Degraded _ ->
    t.degraded_n <- t.degraded_n + 1;
    t.w_degraded.(worker) <- t.w_degraded.(worker) + 1;
    Telemetry.Metrics.incr wm.mw_degraded
  | Failed e -> (
    match e with
    | Error.Syntax _ -> t.fail_syntax <- t.fail_syntax + 1
    | Error.Range _ -> t.fail_range <- t.fail_range + 1
    | Error.Budget { what; _ } ->
      t.fail_budget <- t.fail_budget + 1;
      if String.equal what Budget.deadline_what then
        Telemetry.Metrics.incr m_deadline_misses
    | Error.Internal _ -> t.fail_internal <- t.fail_internal + 1));
  if reply.attempts > 1 then begin
    t.retries_n <- t.retries_n + (reply.attempts - 1);
    t.w_retried.(worker) <- t.w_retried.(worker) + 1;
    Telemetry.Metrics.incr wm.mw_retried;
    (Telemetry.Metrics.add m_retries (reply.attempts - 1))
    [@lint.can_raise
      Invalid_argument (* attempts > 1 on this branch: the delta is positive *)]
  end

(* Posts the replies of [b] from [b_filled] up to [upto], already
   written to [b_replies]: one lock and one wake-up of the collector
   for all of them. *)
let post_batch t ~worker b ~upto =
  Mutex.lock t.m;
  for i = b.b_filled to upto - 1 do
    account_locked t ~worker b.b_replies.(i)
  done;
  b.b_filled <- upto;
  Condition.broadcast t.c_result;
  Mutex.unlock t.m

let register_running t ~worker b i =
  Mutex.lock t.m;
  Hashtbl.replace t.running (b.b_first + i)
    {
      r_batch = b;
      r_index = i;
      r_worker = worker;
      r_started = Unix.gettimeofday ();
      r_cancelled = false;
    };
  Mutex.unlock t.m

(* With heartbeats: delivers the reply to line [i] of [b] — unless the
   watchdog already cancelled the line (answered it with a structured
   timeout and handed the rest of the batch to a replacement worker), in
   which case the late reply is dropped and [post_line] returns [false]:
   the abandoned worker must exit instead of looping. *)
let post_line t ~worker b i reply =
  let seq = b.b_first + i in
  Mutex.lock t.m;
  let cancelled =
    match Hashtbl.find_opt t.running seq with
    | Some r when r.r_cancelled -> true
    | _ -> false
  in
  Hashtbl.remove t.running seq;
  if not cancelled then begin
    b.b_replies.(i) <- reply;
    account_locked t ~worker reply;
    b.b_filled <- i + 1;
    Condition.broadcast t.c_result
  end;
  Mutex.unlock t.m;
  not cancelled

(* The injected live-but-wedged worker (service.worker-wedge): holds the
   dequeued request without progressing for far longer than any test
   deadline, but in bounded slices so shutdown can always join the
   domain.  The watchdog — not this sleep ending — is what answers the
   request. *)
let wedge_point = "service.worker-wedge"

let wedge_stall () =
  for _ = 1 to 40 do
    Unix.sleepf 0.01
  done

(* Where a replacement worker starts: the lines of a batch that a dead
   or abandoned worker never reached. *)
let rest_of b i = if i < Array.length b.b_reqs then Some (b, i) else None

(* Converts lines [i ..] of [b], one [process] per line.  Without
   heartbeats the replies are posted together once the batch is done;
   with them (a watchdog runs) each line registers before it starts and
   posts as it ends.  Returns [false] when this worker must exit: the
   watchdog cancelled one of its lines and a replacement took over the
   rest.  A crash posts the lines before it, answers the crashing line
   through the degraded channel, leaves the rest of the batch in [rest]
   for the replacement and re-raises. *)
let rec run_batch t ~worker ~rest b i =
  let n = Array.length b.b_reqs in
  if i >= n then begin
    if not t.heartbeats then post_batch t ~worker b ~upto:n;
    true
  end
  else begin
    let r = b.b_reqs.(i) in
    let seq = b.b_first + i in
    if t.heartbeats then register_running t ~worker b i;
    (* the queue-wait span closes when the worker starts the line; the
       worker then adopts the line's trace id so the pipeline spans
       inside [process] land on the request's trace *)
    Telemetry.Tracing.adopt r.req_tid;
    Telemetry.Tracing.finish_of ~tid:r.req_tid Telemetry.Tracing.Queue_wait
      b.b_t0.(i);
    if Telemetry.Flight.enabled () then
      Telemetry.Flight.record ~req:seq ~kind:"service-start"
        (Printf.sprintf "worker=%d input=%s" worker r.req_input);
    let continue =
      try
        if Faults.fires kill_point then raise Worker_killed;
        if Faults.fires wedge_point then wedge_stall ();
        let st0 = Telemetry.Tracing.start () in
        let outcome, attempts = process t b.b_deadline r.req_input in
        Telemetry.Tracing.finish Telemetry.Tracing.Worker_service st0;
        if Telemetry.Flight.enabled () then
          Telemetry.Flight.record ~req:seq ~kind:"service-end"
            (match outcome with
            | Done _ -> "ok"
            | Degraded _ -> "degraded"
            | Failed e -> "failed " ^ Error.category e);
        Telemetry.Tracing.adopt 0;
        let reply =
          { lineno = r.req_lineno; input = r.req_input; outcome; attempts }
        in
        if t.heartbeats then post_line t ~worker b i reply
        else begin
          b.b_replies.(i) <- reply;
          true
        end
      with exn ->
        (* Worker crash with a line in hand.  Losing its reply would
           deadlock the collector (it waits for this line), so the dying
           worker posts the lines before it, answers this one through the
           breaker-backed degraded channel, records the failure against
           the breaker, and only then lets the exception continue killing
           the domain — the spawn wrapper below respawns a replacement,
           which converts the rest of the batch first.  If the watchdog
           cancelled the line first, the reply is already delivered and
           a replacement already running: die quietly instead, or the
           pool would grow by one domain per wedge-then-crash. *)
        Breaker.record_failure t.breaker;
        let reply =
          {
            lineno = r.req_lineno;
            input = r.req_input;
            outcome = crash_fallback t r.req_input;
            attempts = 0;
          }
        in
        let delivered =
          if t.heartbeats then post_line t ~worker b i reply
          else begin
            b.b_replies.(i) <- reply;
            post_batch t ~worker b ~upto:(i + 1);
            true
          end
        in
        if delivered then begin
          Atomic.incr t.crashes_n;
          Telemetry.Metrics.incr m_crashes;
          (* the post-mortem: name the request the worker died holding,
             then dump every ring before the domain unwinds *)
          if Telemetry.Flight.enabled () then begin
            Telemetry.Flight.record ~req:seq ~kind:"crash"
              (Printf.sprintf "worker=%d exn=%s input=%s" worker
                 (Printexc.to_string exn) r.req_input);
            Telemetry.Flight.dump ~reason:"worker-crash"
          end;
          rest := rest_of b (i + 1);
          (raise exn) [@lint.can_raise Worker_killed]
        end;
        false
    in
    continue && run_batch t ~worker ~rest b (i + 1)
  end
[@@lint.always_on
  "closes the queue-wait spans that submit_batch opened on the submitting \
   domain"]

(* The next unclaimed batch, waiting while there is none; [no_batch]
   once the service is closed and every batch claimed. *)
let take_batch t =
  Mutex.lock t.m;
  while t.claimed = t.n_batches && not t.closed do
    Condition.wait t.c_work t.m
  done;
  let b =
    if t.claimed = t.n_batches then no_batch
    else begin
      let b = t.order.(t.claimed mod t.capacity) in
      t.claimed <- t.claimed + 1;
      b
    end
  in
  Mutex.unlock t.m;
  b

let rec worker_loop t ~worker ~rest =
  let b = take_batch t in
  if b != no_batch && run_batch t ~worker ~rest b 0 then
    worker_loop t ~worker ~rest

(* Each worker domain runs under this wrapper, first finishing [resume]
   (the rest of a batch whose worker died or was abandoned): an escaping
   exception is a domain death, and the dying domain's last act is to
   spawn and register its replacement — before the body returns, so
   shutdown's generation-joining loop is guaranteed to observe the new
   domain. *)
let rec worker_body t ~worker resume () =
  let rest = ref None in
  try
    let continue =
      match resume with
      | None -> true
      | Some (b, i) -> run_batch t ~worker ~rest b i
    in
    if continue then worker_loop t ~worker ~rest
  with _ ->
    let d = Domain.spawn (worker_body t ~worker !rest) in
    Mutex.lock t.m;
    t.workers <- d :: t.workers;
    Mutex.unlock t.m;
    Atomic.incr t.respawns_n;
    Telemetry.Metrics.incr m_respawns

(* {2 Watchdog} *)

(* A line is wedged when its worker is still alive (the crash path
   would have answered it) yet it has been held past its deadline plus
   [grace_ms] — or past [stuck_ms] when it carries no deadline.  OCaml
   domains cannot be killed, so "cancel" means: answer the line with a
   structured timeout, mark the slot so the worker's eventual late
   reply is dropped and the worker exits on wake, and spawn a
   replacement that converts the rest of the batch, so the pool never
   shrinks. *)
let wedged now (p : watchdog_policy) (r : running) =
  (not r.r_cancelled)
  &&
  match r.r_batch.b_deadline with
  | Some d -> now > d.Budget.expires_at +. (float p.grace_ms /. 1000.)
  | None -> now -. r.r_started > float p.stuck_ms /. 1000.

let wedge_error (r : running) =
  match r.r_batch.b_deadline with
  | Some d -> Budget.deadline_error d
  | None ->
    Error.internal ~where:"service.watchdog"
      "request abandoned: worker wedged past the stuck threshold"

let rec watchdog_loop t (p : watchdog_policy) =
  if not (Atomic.get t.wd_stop) then begin
    let now = Unix.gettimeofday () in
    Mutex.lock t.m;
    let victims =
      Hashtbl.fold
        (fun _ r acc -> if wedged now p r then r :: acc else acc)
        t.running []
    in
    List.iter
      (fun r ->
        let b = r.r_batch and i = r.r_index in
        let req = b.b_reqs.(i) in
        r.r_cancelled <- true;
        Atomic.incr t.wedges_n;
        Telemetry.Metrics.incr m_wedges;
        if Telemetry.Flight.enabled () then
          Telemetry.Flight.record ~req:(b.b_first + i) ~kind:"wedge"
            (Printf.sprintf "worker=%d held-s=%.3f input=%s" r.r_worker
               (now -. r.r_started) req.req_input);
        let reply =
          {
            lineno = req.req_lineno;
            input = req.req_input;
            outcome = Failed (wedge_error r);
            attempts = 0;
          }
        in
        b.b_replies.(i) <- reply;
        account_locked t ~worker:r.r_worker reply;
        b.b_filled <- i + 1)
      victims;
    if victims <> [] then Condition.broadcast t.c_result;
    Mutex.unlock t.m;
    (* the dump does file I/O: after the lock, before the respawns, so
       the recording that names the wedged request is already on disk
       if a respawn itself goes wrong *)
    if victims <> [] && Telemetry.Flight.enabled () then
      Telemetry.Flight.dump ~reason:"worker-wedge";
    (* replacements outside the lock: Domain.spawn is heavyweight *)
    List.iter
      (fun r ->
        let d =
          Domain.spawn
            (worker_body t ~worker:r.r_worker
               (rest_of r.r_batch (r.r_index + 1)))
        in
        Mutex.lock t.m;
        t.workers <- d :: t.workers;
        Mutex.unlock t.m;
        Atomic.incr t.respawns_n;
        Telemetry.Metrics.incr m_respawns)
      victims;
    Unix.sleepf (float p.poll_ms /. 1000.);
    watchdog_loop t p
  end

(* Single collector: emits replies in submission order (the reorder
   point), every posted reply of the oldest batch per wake-up, and
   returns a batch's backpressure slot once its last reply is emitted,
   so "in flight" covers everything from submit to emit.  [head] is the
   oldest batch's submission index and [pos] how many of its replies
   were emitted; only the collector advances them. *)
let rec collector_loop t ~head ~pos =
  Mutex.lock t.m;
  let slot = head mod t.capacity in
  let rec next () =
    if head < t.n_batches && t.order.(slot).b_filled > pos then t.order.(slot)
    else if t.closed && head = t.n_batches then no_batch
    else begin
      Condition.wait t.c_result t.m;
      next ()
    end
  in
  let b = next () in
  if b == no_batch then Mutex.unlock t.m
  else begin
    let upto = b.b_filled in
    t.emitted <- t.emitted + (upto - pos);
    let finished = upto = Array.length b.b_reqs in
    if finished then t.order.(slot) <- no_batch;
    Telemetry.Metrics.set_gauge g_queue_depth (t.submitted - t.emitted);
    Mutex.unlock t.m;
    for i = pos to upto - 1 do
      t.emit b.b_replies.(i)
    done;
    if finished then begin
      Semaphore.Counting.release t.slots;
      collector_loop t ~head:(head + 1) ~pos:0
    end
    else collector_loop t ~head ~pos:upto
  end

let start ?(jobs = 2) ?(queue_capacity = 64) ?(retry = default_retry)
    ?(breaker = Breaker.default_policy) ?watchdog ?fallback ~emit convert =
  (* documented preconditions: misconfiguration is a programming error,
     not a per-request failure, so it raises rather than returns *)
  (if jobs < 1 then invalid_arg "Supervisor.start: jobs < 1")
  [@lint.can_raise Invalid_argument];
  (if queue_capacity < 1 then invalid_arg "Supervisor.start: queue_capacity < 1")
  [@lint.can_raise Invalid_argument];
  (if retry.max_retries < 0 then invalid_arg "Supervisor.start: max_retries < 0")
  [@lint.can_raise Invalid_argument];
  let watchdog =
    match watchdog with Some p when p.poll_ms >= 1 -> Some p | _ -> None
  in
  let t =
    {
      jobs;
      capacity = queue_capacity;
      convert;
      fallback = Option.value fallback ~default:default_fallback;
      retry;
      breaker =
        ((Breaker.create ~policy:breaker ())
         [@lint.can_raise
           Invalid_argument (* startup policy validation: abort loudly *)]);
      emit;
      slots = Semaphore.Counting.make queue_capacity;
      budget = Budget.get ();
      heartbeats = Option.is_some watchdog;
      m = Mutex.create ();
      c_result = Condition.create ();
      c_work = Condition.create ();
      order = Array.make queue_capacity no_batch;
      n_batches = 0;
      claimed = 0;
      submitted = 0;
      emitted = 0;
      closed = false;
      max_in_flight = 0;
      succeeded_n = 0;
      degraded_n = 0;
      retries_n = 0;
      fail_syntax = 0;
      fail_range = 0;
      fail_budget = 0;
      fail_internal = 0;
      crashes_n = Atomic.make 0;
      respawns_n = Atomic.make 0;
      wedges_n = Atomic.make 0;
      running = Hashtbl.create 32;
      wd_stop = Atomic.make false;
      w_processed = Array.make jobs 0;
      w_retried = Array.make jobs 0;
      w_degraded = Array.make jobs 0;
      w_metrics = Array.init jobs worker_metrics;
      workers = [];
      collector = None;
      wd_domain = None;
    }
  in
  t.workers <-
    List.init jobs (fun i -> Domain.spawn (worker_body t ~worker:i None));
  t.collector <-
    Some (Domain.spawn (fun () -> collector_loop t ~head:0 ~pos:0));
  Option.iter
    (fun p -> t.wd_domain <- Some (Domain.spawn (fun () -> watchdog_loop t p)))
    watchdog;
  t

let submit_batch t ?deadline_ms reqs =
  match reqs with
  | [] -> ()
  | _ ->
    let b_reqs = Array.of_list reqs in
    let n = Array.length b_reqs in
    Semaphore.Counting.acquire t.slots;
    let b_deadline =
      Option.map (fun ms -> Budget.deadline_after ~ms) deadline_ms
    in
    (* each line's queue-wait span opens here, on the submitting thread;
       the worker that starts the line closes it *)
    let b_t0 =
      Array.map (fun r -> Telemetry.Tracing.start_of r.req_tid) b_reqs
    in
    let b_replies = Array.make n dummy_reply in
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      Semaphore.Counting.release t.slots;
      (invalid_arg "Supervisor.submit: service is shut down")
      [@lint.can_raise Invalid_argument] (* documented: submit-after-shutdown is a caller bug *)
    end;
    let b =
      {
        b_reqs;
        b_t0;
        b_deadline;
        b_replies;
        b_first = t.submitted;
        b_filled = 0;
      }
    in
    (* the semaphore bounds the batches in the ring to its size, so this
       slot was emptied when its previous batch was emitted *)
    t.order.(t.n_batches mod t.capacity) <- b;
    t.n_batches <- t.n_batches + 1;
    t.submitted <- t.submitted + n;
    let in_flight = t.submitted - t.emitted in
    if in_flight > t.max_in_flight then t.max_in_flight <- in_flight;
    Telemetry.Metrics.set_gauge g_queue_depth in_flight;
    Telemetry.Metrics.max_gauge g_max_in_flight in_flight;
    Condition.signal t.c_work;
    Mutex.unlock t.m
[@@lint.always_on "opens the queue-wait spans that the worker's run_batch closes"]

let stream_batch_lines = 32

let stream_queue_capacity ~jobs = max 4 (2 * jobs)

let submit t ?deadline_ms ?(tid = 0) ~lineno input =
  submit_batch t ?deadline_ms
    [ { req_lineno = lineno; req_input = input; req_tid = tid } ]

let stats t =
  Mutex.lock t.m;
  let s =
    {
      submitted = t.submitted;
      completed = t.emitted;
      succeeded = t.succeeded_n;
      degraded = t.degraded_n;
      retries = t.retries_n;
      syntax_failures = t.fail_syntax;
      range_failures = t.fail_range;
      budget_failures = t.fail_budget;
      internal_failures = t.fail_internal;
      crashes = Atomic.get t.crashes_n;
      respawns = Atomic.get t.respawns_n;
      wedges = Atomic.get t.wedges_n;
      breaker_state = Breaker.state_name t.breaker;
      breaker_trips = Breaker.trips t.breaker;
      max_in_flight = t.max_in_flight;
      capacity = t.capacity;
      jobs = t.jobs;
      workers =
        Array.init t.jobs (fun i ->
            {
              worker = i;
              processed = t.w_processed.(i);
              retried = t.w_retried.(i);
              degraded = t.w_degraded.(i);
            });
    }
  in
  Mutex.unlock t.m;
  s

let shutdown t =
  Mutex.lock t.m;
  let already = t.closed in
  t.closed <- true;
  Mutex.unlock t.m;
  if not already then begin
    (* stop the watchdog first: a cancellation after the generation-join
       below would spawn a replacement no one joins *)
    Atomic.set t.wd_stop true;
    Option.iter Domain.join t.wd_domain;
    t.wd_domain <- None;
    (* wake idle workers: each exits once every batch is claimed *)
    Mutex.lock t.m;
    Condition.broadcast t.c_work;
    Mutex.unlock t.m;
    (* Workers can crash and respawn while draining, so join by
       generations until no unjoined domain remains: a dying domain
       registers its replacement before it exits, so once a join
       returns, any replacement it spawned is already visible. *)
    let rec join_workers joined =
      Mutex.lock t.m;
      let current = t.workers in
      Mutex.unlock t.m;
      match List.filter (fun d -> not (List.memq d joined)) current with
      | [] -> ()
      | fresh ->
        List.iter Domain.join fresh;
        join_workers (fresh @ joined)
    in
    join_workers [];
    t.workers <- [];
    (* every claimed batch has been posted; wake the collector so it can
       observe closed && fully-emitted even if nothing was submitted *)
    Mutex.lock t.m;
    Condition.broadcast t.c_result;
    Mutex.unlock t.m;
    Option.iter Domain.join t.collector;
    t.collector <- None
  end;
  stats t

let breaker_state t = Breaker.state_name t.breaker

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "stats: submitted=%d completed=%d ok=%d degraded=%d retries=%d@\n\
     stats: errors: syntax=%d range=%d budget=%d internal=%d@\n\
     stats: jobs=%d queue-capacity=%d max-in-flight=%d breaker=%s trips=%d \
     crashes=%d respawns=%d wedges=%d"
    s.submitted s.completed s.succeeded s.degraded s.retries s.syntax_failures
    s.range_failures s.budget_failures s.internal_failures s.jobs s.capacity
    s.max_in_flight s.breaker_state s.breaker_trips s.crashes s.respawns
    s.wedges;
  Array.iter
    (fun w ->
      Format.fprintf ppf "@\nstats: worker[%d] processed=%d retried=%d degraded=%d"
        w.worker w.processed w.retried w.degraded)
    s.workers
