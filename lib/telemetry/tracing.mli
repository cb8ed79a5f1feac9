(** Request-scoped span tracing with Chrome trace-event export.

    One request in N ({!set_sample_every}, default 64) is assigned a
    process-unique trace id; every stage it crosses records a completed
    span into a fixed-size global ring (old spans are overwritten, so
    memory stays bounded).  {!to_chrome_json} renders the ring in
    Chrome trace-event JSON, loadable in chrome://tracing or Perfetto:
    each trace id is its own thread track, so a request's spans nest by
    time containment.

    Trace id [0] means "not traced" throughout; every entry point is a
    cheap no-op for it, so call sites need no guards of their own.

    The domain-local current id set by {!begin_request}/{!adopt} is
    only meaningful where a single request occupies the domain at a
    time (CLI stream drivers, supervisor worker domains).  Systhreads
    share their domain's slot, so multiplexing code — daemon connection
    threads, client hedge helpers — must carry the id explicitly via
    {!span_of} and [emit ~tid]. *)

type stage =
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

val all : stage list
val stage_name : stage -> string

(** {2 Enable switch and sampling} *)

val enabled : unit -> bool
(** One atomic load; disabled means {!sample} and {!begin_request}
    return 0 and every span site stays on its 0-token no-op path. *)

val set_enabled : bool -> unit

val set_sample_every : int -> unit
(** Trace every Nth request per domain (default 64); [1] traces all.
    @raise Invalid_argument on [n < 1]. *)

(** {2 Request lifecycle} *)

val begin_request : unit -> int
(** Sampling decision for a new request on this domain: returns a
    fresh trace id (or 0) and installs it as the domain-local current
    id — including the 0, so an untraced request never inherits its
    predecessor's id.  Pair with {!end_request}. *)

val end_request : int -> unit
(** Records the [Request] root span for a traced request and clears
    the domain-local current id; [0] just clears. *)

val sample : unit -> int
(** The sampling decision alone — a fresh trace id for one request in
    N, or 0 — without touching the domain-local current id.  For
    connection threads that multiplex requests. *)

val fresh_tid : unit -> int
(** An unconditional fresh trace id, bypassing the sampler — for
    adopting requests that were already sampled elsewhere (tests,
    explicit trace requests). *)

val current : unit -> int
(** The domain-local current trace id; 0 when untraced. *)

val adopt : int -> unit
(** Installs [tid] as the domain-local current id (0 clears) — worker
    domains adopt the id carried by a dequeued job. *)

(** {2 Spans} *)

val span : unit -> int
(** Opens a span against the current id: a clock token, or 0 when the
    current request is untraced. *)

val span_of : int -> int
(** Opens a span against an explicit id: a clock token, or 0. *)

val emit : ?note:string -> ?tid:int -> stage -> int -> unit
(** Closes a span opened by {!span}/{!span_of}; a [0] token is a
    no-op.  [tid] defaults to the domain-local current id. *)

val record :
  tid:int -> stage:stage -> start_ns:int -> dur_ns:int -> ?note:string ->
  unit -> unit
(** Low-level ring write of a completed span; [tid = 0] is a no-op.
    {!Trace.finish} uses this to forward pipeline-stage timings. *)

(** {2 Export} *)

val events_recorded : unit -> int
(** Spans currently held in the ring (capped at the ring size). *)

val dropped : unit -> int
(** Spans overwritten since the last {!clear} — nonzero means
    {!to_chrome_json} is a suffix of the run, not the whole run. *)

val to_chrome_json : ?pid:int -> unit -> string
(** The ring as Chrome trace-event JSON ("X" complete events, one
    thread track per trace id), sorted by start time.  [pid] defaults
    to the process id; tests pin it for golden output. *)

val clear : unit -> unit
(** Empties the ring and resets the drop count (tests, TRACE verb). *)

val inject :
  tid:int -> stage:stage -> start_ns:int -> dur_ns:int -> ?dom:int ->
  ?note:string -> unit -> unit
(** Test hook: append a fabricated span, bypassing clock and sampler,
    so golden tests can pin {!to_chrome_json} output exactly. *)
