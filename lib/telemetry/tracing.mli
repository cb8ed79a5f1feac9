(** Request-scoped span timing: per-stage histograms and Chrome
    trace-event export.

    Sampling is decided once per request ({!sample}, {!begin_request}):
    one request in N ({!set_sample_every}, default 64) is sampled
    whenever metrics or tracing is enabled, and a sampled request times
    every span it crosses.  A closed span observes its
    [bdprint_stage_duration_ns{stage}] histogram (log-linear nanosecond
    buckets) when metrics are on.  When the request is also traced, the
    span lands in a fixed-size global ring (old spans are overwritten,
    so memory stays bounded) and its trace id becomes the histogram's
    exemplar.  {!to_chrome_json} renders the ring in Chrome trace-event
    JSON, loadable in chrome://tracing or Perfetto: each trace id is
    its own thread track, so a request's spans nest by time
    containment.

    A request id is [0] (unsampled), {!untraced} (sampled for the
    histograms only) or a positive trace id.  Every entry point is a
    cheap no-op for [0], so call sites need no guards of their own.

    The domain-local current id set by {!begin_request}/{!adopt} is
    only meaningful where a single request occupies the domain at a
    time (CLI stream drivers, supervisor worker domains).  Systhreads
    share their domain's slot, so multiplexing code — daemon connection
    threads, client hedge helpers — must carry the id explicitly via
    {!start_of} and {!finish_of}. *)

type stage =
  | Parse
  | Boundaries
  | Scale
  | Generate
  | Render
  | Client_attempt
  | Client_backoff
  | Client_hedge
  | Wire_write
  | Queue_wait
  | Worker_service
  | Request
  | Fastpath

val all : stage list
val stage_name : stage -> string

(** {2 Enable switch and sampling} *)

val enabled : unit -> bool
(** Whether tracing is on (one atomic load).  Sampling also runs when
    only {!Metrics.enabled} is on; with both off {!sample} and
    {!begin_request} return 0 and every span site stays on its 0-token
    no-op path. *)

val set_enabled : bool -> unit

val set_sample_every : int -> unit
(** Sample every Nth request per domain (default 64); [1] samples all.
    @raise Invalid_argument on [n < 1]. *)

val sample_every_from_env : string -> (unit, string) result
(** Applies environment variable [var] as {!set_sample_every} when it
    is set; [Error] describes a value that is not an integer >= 1 and
    leaves the rate unchanged. *)

val untraced : int
(** The id of a request sampled for the stage histograms only: its
    spans never write the ring, and it never stamps [TID=] on the
    wire. *)

(** {2 Request lifecycle} *)

val begin_request : unit -> int
(** Sampling decision for a new request on this domain: returns its id
    (see {!sample}) and installs it as the domain-local current id —
    including the 0, so an unsampled request never inherits its
    predecessor's id.  Pair with {!end_request}. *)

val end_request : int -> unit
(** Closes the [Request] root span of a sampled request and clears the
    domain-local current id; [0] just clears. *)

val sample : unit -> int
(** The sampling decision alone, without touching the domain-local
    current id: for one request in N a fresh trace id when tracing is
    on, else {!untraced} when metrics are on; 0 otherwise.  For
    connection threads that multiplex requests. *)

val fresh_tid : unit -> int
(** An unconditional fresh trace id, bypassing the sampler — for
    adopting requests that were already sampled elsewhere (tests,
    explicit trace requests). *)

val current : unit -> int
(** The domain-local current request id; 0 when unsampled. *)

val adopt : int -> unit
(** Installs [tid] as the domain-local current id (0 clears) — worker
    domains adopt the id carried by a dequeued job. *)

(** {2 Spans} *)

val start : unit -> int
(** Opens a span of the current request: a clock token, or 0 when it
    is unsampled.  With metrics and tracing off: two atomic loads and a
    branch. *)

val finish : ?note:string -> stage -> int -> unit
(** Closes a span opened by {!start} against the current id; a [0]
    token is a no-op.  [note] is attached to the trace event (ignored
    by the histograms). *)

val start_of : int -> int
(** Opens a span of request [tid]: a clock token, or 0 when [tid = 0]. *)

val finish_of : ?note:string -> tid:int -> stage -> int -> unit
(** Closes a span opened by {!start_of}; a [0] token is a no-op. *)

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

val write_chrome_json : string -> unit
(** Writes {!to_chrome_json} to the file (the [--trace FILE] export); a
    file that cannot be written is skipped silently. *)

val clear : unit -> unit
(** Empties the ring and resets the drop count (tests, TRACE verb). *)

val inject :
  tid:int -> stage:stage -> start_ns:int -> dur_ns:int -> ?dom:int ->
  ?note:string -> unit -> unit
(** Test hook: append a fabricated span, bypassing clock and sampler,
    so golden tests can pin {!to_chrome_json} output exactly. *)
