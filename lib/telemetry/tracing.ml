(* Request-scoped span tracing with Chrome trace-event export.

   A traced request gets a process-unique trace id; every pipeline and
   service stage it crosses records a completed span ("X" phase in
   Chrome trace-event terms) into a fixed-size global ring.  Requests
   are *sampled* — a per-domain countdown picks one in N (default 64) —
   so the hot loop only pays clock reads on the requests it is actually
   following, and the ring bounds memory however long the process runs
   (old spans are overwritten).

   Identity travels two ways:
   - [begin_request]/[end_request] manage a domain-local current trace
     id for straight-line pipelines (the CLI stream drivers, worker
     domains processing one job at a time).  Systhreads share their
     domain's DLS slot, so code that multiplexes requests across
     threads — the daemon's connection threads, the client's hedge
     helpers — must instead carry the id explicitly through
     [span_of]/[emit ~tid].
   - Across the wire the id rides the optional TID field of CONV/BATCH
     (see Wire), so a daemon-side span lands under the same track as
     the client spans that caused it.

   Export is Chrome trace-event JSON (chrome://tracing, Perfetto).
   Each trace id becomes its own thread track ([tid] field), so the
   viewer nests a request's spans by time containment without explicit
   parent pointers. *)

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

let all =
  [ Parse; Boundaries; Scale; Generate; Render; Client_attempt;
    Client_backoff; Client_hedge; Wire_read; Wire_write; Queue_wait;
    Worker_service; Request; Fastpath ]

let stage_name = function
  | Parse -> "parse"
  | Boundaries -> "boundaries"
  | Scale -> "scale"
  | Generate -> "generate"
  | Render -> "render"
  | Client_attempt -> "client-attempt"
  | Client_backoff -> "client-backoff"
  | Client_hedge -> "client-hedge"
  | Wire_read -> "wire-read"
  | Wire_write -> "wire-write"
  | Queue_wait -> "queue-wait"
  | Worker_service -> "worker-service"
  | Request -> "request"
  | Fastpath -> "fastpath"

type event = {
  ev_tid : int;
  ev_stage : stage;
  ev_start_ns : int;
  ev_dur_ns : int;
  ev_dom : int;
  ev_note : string;
}

(* ------------------------------------------------------------------ *)
(* Enable switch and sampling *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let sample_every = Atomic.make 64

let set_sample_every n =
  if n < 1 then invalid_arg "Tracing.set_sample_every: need >= 1";
  Atomic.set sample_every n

(* Trace id 0 means "not traced" everywhere; ids start at 1. *)
let next_tid = Atomic.make 1

(* Per-domain sampling countdown, starting at 1 so the first request of
   every domain is traced (short CLI runs still produce a trace). *)
let countdown = Domain.DLS.new_key (fun () -> ref 1)

(* Domain-local current trace id; 0 when the current request is not
   traced.  Valid only where one request occupies the domain at a time
   (see the module comment). *)
let current_tid = Domain.DLS.new_key (fun () -> ref 0)

let request_start = Domain.DLS.new_key (fun () -> ref 0)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ------------------------------------------------------------------ *)
(* The span ring: immutable slots under an atomic cursor.

   Writers claim a slot with fetch-and-add and store an immutable
   record — a single pointer store, so concurrent readers can see a
   stale slot but never a torn one.  When the ring wraps, the oldest
   spans are overwritten; [dropped] counts them so an export can say it
   is partial. *)

let capacity = 8192

let ring : event option array = Array.make capacity None
  [@@lint.domain_safe "immutable-record slots; pointer stores are atomic"]

let cursor = Atomic.make 0

let record ~tid ~stage ~start_ns ~dur_ns ?(note = "") () =
  if tid <> 0 then begin
    let ev =
      {
        ev_tid = tid;
        ev_stage = stage;
        ev_start_ns = start_ns;
        ev_dur_ns = max 0 dur_ns;
        ev_dom = (Domain.self () :> int);
        ev_note = note;
      }
    in
    let i = Atomic.fetch_and_add cursor 1 in
    ring.(i mod capacity) <- Some ev
  end

let dropped () = max 0 (Atomic.get cursor - capacity)

let events_recorded () = min capacity (Atomic.get cursor)

let clear () =
  Array.fill ring 0 capacity None;
  Atomic.set cursor 0

(* ------------------------------------------------------------------ *)
(* Request lifecycle *)

let fresh_tid () = Atomic.fetch_and_add next_tid 1

(* Sampling decision alone: a fresh trace id for one request in N, or
   0.  Does not touch the domain-local current id, so connection
   threads that multiplex requests can use it safely. *)
let sample () =
  if not (enabled ()) then 0
  else begin
    let r = Domain.DLS.get countdown in
    let n = !r in
    if n <= 1 then begin
      r := Atomic.get sample_every;
      fresh_tid ()
    end
    else begin
      r := n - 1;
      0
    end
  end

let current () = !(Domain.DLS.get current_tid)

let adopt tid = Domain.DLS.get current_tid := tid

let begin_request () =
  let tid = sample () in
  (* Always (re)set the current id: an unsampled request must not
     inherit the previous request's id. *)
  adopt tid;
  if tid <> 0 then Domain.DLS.get request_start := now_ns ();
  tid

let end_request tid =
  if tid <> 0 then begin
    let t0 = !(Domain.DLS.get request_start) in
    if t0 <> 0 then
      record ~tid ~stage:Request ~start_ns:t0 ~dur_ns:(now_ns () - t0) ()
  end;
  adopt 0

(* ------------------------------------------------------------------ *)
(* Spans *)

let span_of tid = if tid <> 0 then now_ns () else 0

let span () = span_of (current ())

let emit ?note ?tid stage t0 =
  if t0 <> 0 then begin
    let tid = match tid with Some t -> t | None -> current () in
    if tid <> 0 then
      record ~tid ~stage ~start_ns:t0 ~dur_ns:(now_ns () - t0) ?note ()
  end

(* Test hook: a deterministic event for golden output, bypassing the
   clock and the sampler. *)
let inject ~tid ~stage ~start_ns ~dur_ns ?(dom = 0) ?(note = "") () =
  let i = Atomic.fetch_and_add cursor 1 in
  ring.(i mod capacity) <-
    Some
      {
        ev_tid = tid;
        ev_stage = stage;
        ev_start_ns = start_ns;
        ev_dur_ns = max 0 dur_ns;
        ev_dom = dom;
        ev_note = note;
      }

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

let events () =
  let evs = Array.to_list ring |> List.filter_map Fun.id in
  List.sort
    (fun a b ->
      match compare a.ev_start_ns b.ev_start_ns with
      | 0 -> compare a.ev_tid b.ev_tid
      | c -> c)
    evs

let json_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Microseconds with nanosecond precision kept as three decimals —
   Chrome's [ts]/[dur] unit is the microsecond. *)
let micros ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let to_chrome_json ?pid () =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"bdprint\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"dom\":%d%s}}"
           (stage_name ev.ev_stage) (micros ev.ev_start_ns)
           (micros ev.ev_dur_ns) pid ev.ev_tid ev.ev_dom
           (if String.equal ev.ev_note "" then ""
            else Printf.sprintf ",\"note\":\"%s\"" (json_escape ev.ev_note))))
    (events ());
  Buffer.add_string buf
    (Printf.sprintf "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":%d}}\n"
       (dropped ()));
  Buffer.contents buf
