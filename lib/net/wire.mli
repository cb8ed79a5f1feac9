(** The bdprintd wire protocol: newline-framed text requests with
    line- or length-framed replies.  See docs/SERVICE.md for the full
    specification.

    Requests are single LF-terminated lines (a trailing CR is
    tolerated).  Conversion replies are single lines tagged with the
    outcome ([OK] / [DEG] / [ERR] / [SHED]); bulk payloads ([STATS],
    [METRICS]) are length-framed: a header line carrying the byte count
    followed by exactly that many bytes.

    This module is pure — parsing and rendering only — so the protocol
    is testable without sockets, and the load generator and the chaos
    harness share one grammar with the server. *)

type request =
  | Conv of { input : string; tid : int }
      (** [CONV [TID=<t>] <input>]: convert one number.  The optional
          TID token carries a request-scoped trace id
          (see {!Telemetry.Tracing}); [tid = 0] means absent.  Clients
          only emit it for requests they are actually tracing, so the
          token never reaches a pre-TID server unless tracing is
          deliberately enabled against it. *)
  | Batch of { count : int; tid : int }
      (** [BATCH <n> [TID=<t>]]: the next [n] lines are inputs; [n]
          replies follow in order, then an [END] line *)
  | Deadline of int
      (** [DEADLINE <ms>]: per-request deadline for subsequent requests
          on this connection; 0 clears it *)
  | Ping
  | Healthz
  | Stats  (** length-framed JSON service statistics *)
  | Metrics  (** length-framed Prometheus snapshot *)
  | Trace_dump
      (** [TRACE]: length-framed Chrome trace-event JSON of the
          daemon's span ring *)
  | Quit

type reply =
  | Converted of string  (** [OK <output>] *)
  | Degraded of string
      (** [DEG <output>]: breaker- or crash-fallback [%.17g] output —
          reads back to the same value but is not the pipeline's
          shortest form *)
  | Failed of { cls : string; detail : string }
      (** [ERR <class> <detail>], [cls] one of syntax / range / budget /
          internal / proto *)
  | Shed of { reason : string; retry_after_ms : int option }
      (** [SHED <reason> [retry-after-ms=<n>]]: explicit load-shedding,
          [reason] one of [queue-full] / [overload] / [draining]; the
          request was {e not} converted.  [retry_after_ms] is the
          server's machine-readable hint of when retrying is likely to
          succeed — clients should honor it in place of their default
          backoff.  [draining] sheds carry no hint: the right response
          is failover, not retry. *)
  | Batch_end of { ok : int; failed : int; shed : int }
      (** [END ok=<n> failed=<n> shed=<n>] after a batch's replies *)
  | Pong
  | Ready of string
      (** [READY [<attrs>]]: healthy.  [attrs] is a space-separated
          [key=value] list — [uptime-s], [version], [wedges] — empty
          on old servers; clients must ignore keys they do not know. *)
  | Draining of string  (** [DRAINING [<attrs>]]: shutting down *)
  | Payload of { verb : string; body : string }
      (** [<verb> <byte-count>] then the body bytes ([STATS],
          [METRICS], [TRACE]) *)
  | Bye

val max_batch : int
(** Upper bound on [BATCH <n>] (1024): bounds per-connection memory. *)

val max_deadline_ms : int
(** Upper bound on [DEADLINE <ms>] (3_600_000). *)

val parse_request : string -> (request, string) result
(** Parses one request line (without its newline).  [Error reason]
    describes the protocol violation ([unknown-verb ...],
    [bad-count ...], ...); the server reports it as [ERR proto <reason>]
    and keeps the connection. *)

val render_reply : reply -> string
(** The exact bytes to write, trailing newline(s) included.  [Payload]
    renders as the header line followed by the body and a final
    newline. *)

val render_conv : ?tid:int -> string -> string
(** The [CONV] request frame, newline included; [tid] (default 0 =
    untraced) emits the TID token. *)

val render_batch : ?tid:int -> int -> string
(** The [BATCH] request frame, newline included. *)

val parse_reply_line : string -> (reply, string) result
(** Client-side parse of one reply line (without its newline).
    [Payload] replies parse with [body = ""] and the byte count in
    {!payload_length}; the caller must then read that many bytes plus
    the trailing newline. *)

val payload_length : string -> int option
(** [payload_length line] is [Some n] when [line] is a length-framed
    payload header ([STATS <n>] / [METRICS <n>] / [TRACE <n>]). *)
