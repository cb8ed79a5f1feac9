(** bdprintd's serving engine: a crash-tolerant networked conversion
    daemon over the supervised worker pool.

    One listener (Unix-domain or TCP socket) accepts connections on a
    dedicated thread; each connection is served by its own thread
    speaking the {!Wire} protocol, while conversions run on the
    {!Service.Supervisor} worker domains — so a slow or stalled client
    can never block another client or a worker.

    {b Survival properties} (the daemon's headline feature):

    {ul
    {- {e Bounded admission with explicit shedding}: at most
       [admission_capacity] conversion requests are in flight across all
       connections.  A request beyond the bound is answered
       [SHED queue-full] {e immediately} — the daemon never queues
       unboundedly and never silently drops.  An {e adaptive} controller
       additionally sheds ([SHED overload]) a deadline-carrying request
       whose projected queue wait (in-flight depth × the live
       service-time EWMA ÷ workers) already exceeds its deadline —
       refusing fast beats converting a reply that arrives dead.  Both
       sheds carry a machine-readable [retry-after-ms] hint derived from
       the same EWMA.}
    {- {e Wedge detection}: the supervisor's watchdog domain (see
       {!Service.Supervisor.watchdog_policy}; on by default here)
       answers any request stuck past its deadline on a live-but-wedged
       worker with a structured timeout and replaces the worker, so one
       pathological request cannot capture a worker domain forever.}
    {- {e Per-client deadlines and budgets}: each connection can set a
       wall-clock deadline ([DEADLINE <ms>]) enforced through
       {!Robust.Budget}'s cooperative check sites; input frames are
       bounded by the ambient budget's [max_input_length] and oversized
       frames are rejected as [ERR proto frame-too-long] without
       desynchronising the stream.}
    {- {e Crash tolerance}: worker-domain crashes (the
       [service.worker-kill] fault) are detected by the supervisor,
       answered through the breaker-backed [%.17g] degraded fallback and
       healed by automatic respawn — the daemon itself never dies.}
    {- {e Graceful drain}: {!drain} (wired to SIGTERM/SIGINT by
       [bdprintd]) stops accepting, answers new conversion requests with
       [SHED draining], finishes every admitted request, shuts the
       supervisor down, and wakes {!wait} — losing no accepted
       request.}} *)

type listen =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)

type config = {
  jobs : int;  (** supervisor worker domains *)
  admission_capacity : int;  (** max in-flight conversion requests *)
  default_deadline_ms : int option;
      (** deadline applied until a connection overrides it *)
  retry : Service.Supervisor.retry_policy;
  breaker : Service.Breaker.policy;
  watchdog : Service.Supervisor.watchdog_policy option;
      (** wedge-detection monitor; [None] disables it *)
}

val default_config : config
(** 2 jobs, 256 admissions, no default deadline, default supervisor
    retry/breaker/watchdog policies. *)

type stats = {
  connections : int;  (** accepted since start *)
  active_connections : int;
  requests : int;  (** conversion requests (CONV + batch items) *)
  replies_ok : int;
  replies_degraded : int;
  replies_failed : int;
  shed_queue_full : int;
  shed_overload : int;
      (** adaptive-admission sheds: projected wait exceeded the deadline *)
  shed_draining : int;
  proto_errors : int;  (** malformed frames answered [ERR proto ...] *)
  supervisor : Service.Supervisor.stats;
}

type t

val start :
  ?config:config ->
  convert:(string -> (string, Robust.Error.t) result) ->
  listen ->
  (t, Robust.Error.t) result
(** Binds the listener, spawns the supervisor pool and the accept
    thread, and returns immediately.  Binding failures (address in use,
    bad path) surface as [Error (Internal _)].  [convert] runs on
    worker domains and must be safe to call concurrently.  SIGPIPE is
    set to ignore: client disconnects surface as [EPIPE] writes handled
    per connection. *)

val address : t -> string
(** The bound address, e.g. ["127.0.0.1:43117"] or a socket path — for
    TCP with port 0, the actual ephemeral port. *)

val port : t -> int option
(** The bound TCP port, if listening on TCP. *)

val drain : t -> unit
(** Requests graceful shutdown; returns immediately (async-signal-safe:
    only sets a flag the accept loop polls).  Idempotent. *)

val draining : t -> bool

val wait : t -> stats
(** Blocks until a requested drain completes — listener closed, every
    admitted request answered and written, supervisor shut down, idle
    connections shut down — then returns the final statistics. *)

val stats : t -> stats
(** A consistent snapshot, callable at any time. *)

val stats_json : t -> string
(** The [STATS] payload: a flat JSON object (stable keys, documented in
    docs/SERVICE.md). *)
