(** Sampled span timing of the pipeline and service stages.

    Stage timings land in the [bdprint_stage_duration_ns] histogram
    family (one series per stage label, log-linear nanosecond
    buckets).  Spans are sampled one-in-N per domain
    ({!set_sample_every}, default 32) so the hot loop pays clock reads
    only on sampled conversions; when telemetry is disabled a span
    site costs a domain-local load, an atomic load and a branch.

    When the current request carries a {!Tracing} id, a span site
    always times (regardless of the sampling countdown), forwards the
    completed span into the trace ring, and offers its duration as the
    histogram's exemplar — one start/finish pair feeds both the
    aggregate histograms and the per-request trace. *)

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

val all : stage list
val stage_name : stage -> string

val set_sample_every : int -> unit
(** Record every Nth span per domain (default 32); [1] records all.
    @raise Invalid_argument on [n < 1]. *)

val start : unit -> int
(** Opens a span: returns a clock token, or [0] when this span is
    neither traced nor sampled. *)

val finish : ?note:string -> stage -> int -> unit
(** Closes a span opened by {!start}; a [0] token is a no-op.  [note]
    is attached to the trace event (ignored by the histograms). *)
