(* Lightweight span timing for pipeline and service stages.

   A conversion flows parse -> boundaries -> scale -> generate ->
   render, and in service deployments additionally crosses client
   attempts, the wire, the admission queue and a worker domain; each
   stage is timed into a per-stage nanosecond histogram.  Timing every
   conversion would cost two clock reads per stage — far more than the
   2% overhead budget on the sub-microsecond free-format hot loop — so
   spans are *sampled*: each domain keeps a countdown and only every
   Nth span (default 32) reads the clock.  The histograms therefore describe the latency distribution, not an
   exact census; the exact counters live in Metrics.

   This module is also the bridge into request tracing (Tracing): when
   the current request carries a trace id, {!start} always reads the
   clock and {!finish} both forwards the span to the trace ring and
   offers the duration as the histogram's trace-id exemplar.  A span
   site therefore serves both consumers with one start/finish pair.

   Disabled cost: one domain-local load, one atomic load and a branch
   per span site.  Enabled, unsampled cost: a domain-local load, an
   integer decrement and a branch. *)

type stage = Tracing.stage =
  | Parse
  | Boundaries
  | Scale
  | Generate
  | Render
  | Client_attempt
  | Client_backoff
  | Client_hedge
  | Wire_read
  | Wire_write
  | Queue_wait
  | Worker_service
  | Request
  | Fastpath

let all = Tracing.all

let stage_name = Tracing.stage_name

let index = function
  | Parse -> 0
  | Boundaries -> 1
  | Scale -> 2
  | Generate -> 3
  | Render -> 4
  | Client_attempt -> 5
  | Client_backoff -> 6
  | Client_hedge -> 7
  | Wire_read -> 8
  | Wire_write -> 9
  | Queue_wait -> 10
  | Worker_service -> 11
  | Request -> 12
  | Fastpath -> 13

(* Log-linear nanosecond bounds, 100ns to 10ms: the pipeline stages
   sit under a microsecond, a queued service round trip reaches
   milliseconds, and the relative resolution stays roughly constant
   across that whole span (replacing 12 hand-picked bounds). *)
let duration_bounds = Metrics.log_linear ~lo:100 ~hi:10_000_000 ()
  [@@lint.domain_safe "read-only bounds template; Metrics.histogram copies it"]

let hists =
  Array.of_list
    (List.map
       (fun s ->
         Metrics.histogram
           ~labels:[ ("stage", stage_name s) ]
           ~help:
             "Sampled per-stage conversion latency in nanoseconds \
              (pipeline, wire, queue and service stages)."
           ~bounds:duration_bounds "bdprint_stage_duration_ns")
       all)
  [@@lint.domain_safe "array of registered histogram handles; written once at init"]

let sample_every = Atomic.make 32

let set_sample_every n =
  if n < 1 then invalid_arg "Trace.set_sample_every: need >= 1";
  Atomic.set sample_every n

(* Domain-local countdown: worker domains sample independently, no
   contention.  Starts at 1 so the first span of every domain records. *)
let countdown = Domain.DLS.new_key (fun () -> ref 1)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let start () =
  if Tracing.enabled () && Tracing.current () <> 0 then
    (* The current request is traced: always time, so its span tree is
       complete regardless of the histogram sampling countdown.  The
       atomic-flag check first keeps the common tracing-off path to one
       load, skipping the domain-local lookup. *)
    now_ns ()
  else if not (Metrics.enabled ()) then 0
  else begin
    let r = Domain.DLS.get countdown in
    let n = !r in
    if n <= 1 then begin
      r := Atomic.get sample_every;
      now_ns ()
    end
    else begin
      r := n - 1;
      0
    end
  end

let finish ?note stage t0 =
  if t0 <> 0 then begin
    let d = max 0 (now_ns () - t0) in
    let tid = if Tracing.enabled () then Tracing.current () else 0 in
    if Metrics.enabled () then
      Metrics.observe_ex hists.(index stage) ~trace_id:tid d;
    if tid <> 0 then
      Tracing.record ~tid ~stage ~start_ns:t0 ~dur_ns:d ?note ()
  end
