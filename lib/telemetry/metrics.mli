(** Domain-safe metrics: atomic counters, gauges and fixed-bucket
    histograms with lock-free recording, grouped in registries.

    Recording operations ({!incr}, {!add}, {!set_gauge}, {!observe})
    never block: every cell is an [Atomic.t], so the service layer's
    worker domains can record concurrently and sums stay exact.
    Registration is mutex-protected and {e idempotent} — registering an
    already-known (name, labels) series returns the existing metric —
    so libraries declare their instruments at module toplevel.

    The process-wide {!enabled} flag is the zero-cost-when-disabled
    gate: hot-loop instrumentation sites check it (one atomic load and
    a branch) before touching any metric.  Cheap once-per-request
    sites — the reader tier counters, fault trip counters, service
    reply accounting — record unconditionally so their public
    stats contracts hold without telemetry being switched on. *)

type meta = { name : string; help : string; labels : (string * string) list }

type counter
type gauge
type histogram

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registry

val create_registry : unit -> registry
(** A fresh, empty registry — used by tests that need golden output
    independent of the process-wide instruments. *)

val default : registry
(** The process-wide registry all library instrumentation registers
    into; [bdprint --metrics] and {!Snapshot.take} read it. *)

(** {2 Enable switch} *)

val enabled : unit -> bool
(** One atomic load; hot paths branch on this before recording. *)

val set_enabled : bool -> unit

(** {2 Registration (idempotent)} *)

val counter :
  ?registry:registry ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  counter

val gauge :
  ?registry:registry ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  gauge

val histogram :
  ?registry:registry ->
  ?labels:(string * string) list ->
  help:string ->
  bounds:int array ->
  string ->
  histogram
(** [bounds] are strictly increasing inclusive upper bounds; an
    implicit overflow (+Inf) bucket is appended.
    @raise Invalid_argument on empty or non-increasing bounds, or when
    the series exists with different bounds or a different type. *)

val log_linear : ?per_decade:int -> lo:int -> hi:int -> unit -> int array
(** Log-linear bucket bounds for {!histogram}: [lo], then within each
    decade [b, 10b) the bounds [b*i*10/per_decade] for
    [i = 1..per_decade], through [hi] (always included).  Resolution is
    roughly constant {e relative} error, and the bucket count grows
    with [log (hi/lo)].  [per_decade] defaults to 5 — with [lo] a
    power of ten that yields 100, 200, 400, 600, 800, 1000, 2000, ...
    @raise Invalid_argument unless [1 <= lo < hi] and
    [1 <= per_decade <= 10]. *)

(** {2 Recording — lock-free} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment. *)

val value : counter -> int

val reset_counter : counter -> unit
(** For tests ({!Robust.Faults.reset_trip_counts}); Prometheus
    semantics say counters only go up, so production code never calls
    this. *)

val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

val max_gauge : gauge -> int -> unit
(** Retains the maximum of the current value and the argument
    (lock-free CAS loop) — high-water marks like max-in-flight. *)

val observe : histogram -> int -> unit
(** Adds [v] to the first bucket whose bound is [>= v] (overflow bucket
    past the last bound) and updates sum and count. *)

val observe_ex : histogram -> trace_id:int -> int -> unit
(** {!observe}, and when [trace_id > 0] also offers [(v, trace_id)]
    as the histogram's exemplar — kept only if [v] exceeds the current
    exemplar's value (lock-free CAS), so the exemplar always points a
    trace at the worst observed latency. *)

val exemplar_of : histogram -> (int * int) option
(** The current [(value, trace_id)] exemplar, if any traced
    observation has been recorded. *)

(** {2 Introspection} *)

val meta_of : metric -> meta

val list_metrics : ?registry:registry -> unit -> metric list
(** In registration order. *)

val histogram_bounds : histogram -> int array
(** The registered upper bounds (a copy), without the implicit +Inf. *)

val histogram_state : histogram -> int array * int * int
(** [(per_bucket_counts, sum, count)]; counts are per-bucket (not
    cumulative) and include the trailing overflow bucket. *)

val reset_all : ?registry:registry -> unit -> unit
(** Zeroes every metric in the registry (tests and benchmarks). *)
