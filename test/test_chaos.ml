(* Differential chaos test for the supervised conversion service.

   Every fault injection point runs at 1% per-call transient probability
   while a mixed corpus streams through the parallel service.  The
   contract under chaos:

   - every successful output is byte-identical to the fault-free
     sequential run (retries mask transients without corrupting results);
   - every failure keeps the class the fault-free run assigned it
     (syntax stays syntax; no injected fault is misreported);
   - no Degraded outputs and no surviving Internal errors — with a
     generous retry budget the breaker must never open at p = 0.01;
   - no exception escapes: every line gets exactly one reply, in order;
   - after disarming, the service recovers immediately and the breaker
     ends closed (it must not stick open once faults stop).

   The corpus runs twice: one [submit] per line, then through
   [submit_batch] in seeded irregular batch sizes, so retries, the
   breaker and ordering are also held to the contract when a worker
   converts many lines per handoff.

   Line count defaults to 10_000; CHAOS_LINES overrides it (the
   @chaos-smoke alias runs a reduced pass). *)

module S = Service.Supervisor
module Error = Robust.Error
module Faults = Robust.Faults
module Gen = Robust.Gen

(* the production line conversion, as bdprint and bdprintd run it *)
let convert = Dragon.Printer.line_converter ()

let n_lines =
  match Sys.getenv_opt "CHAOS_LINES" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> failwith "CHAOS_LINES must be a positive integer")
  | None -> 10_000

(* Deterministic corpus: the nasty seed list plus a seeded mix of
   plain/extreme/long-digit/garbage inputs. *)
let corpus =
  let st = Random.State.make [| 0xC4A05 |] in
  let generated =
    List.init (max 0 (n_lines - List.length Gen.nasty)) (fun _ -> Gen.any st)
  in
  let all = Gen.nasty @ generated in
  (* exactly n_lines, even if nasty alone exceeds the requested count *)
  List.filteri (fun i _ -> i < n_lines) all

(* With ~tens of guarded calls per conversion, a 1% per-call fault rate
   fails a given attempt with probability up to roughly 0.45; 25 retries
   push the per-line residual below 1e-9, so the byte-identical
   assertion over 10k lines is deterministic in practice. *)
let chaos_retry =
  {
    S.max_retries = 25;
    backoff_ms = 0.05;
    backoff_multiplier = 2.0;
    backoff_cap_ms = 0.5;
  }

(* Hands the service lines [first ..] of [inputs], one [submit] per
   line or, with [batched], through [submit_batch] in seeded irregular
   batch sizes from 1 to 300. *)
let submit_lines ~batched svc ~first inputs =
  if not batched then
    List.iteri (fun i input -> S.submit svc ~lineno:(first + i) input) inputs
  else begin
    let st = Random.State.make [| 0xBA7C4 |] in
    let rec go lineno = function
      | [] -> ()
      | inputs ->
        let size = 1 + Random.State.int st 300 in
        let batch = List.filteri (fun i _ -> i < size) inputs in
        S.submit_batch svc
          (List.mapi
             (fun i input ->
               { S.req_lineno = lineno + i; req_input = input; req_tid = 0 })
             batch);
        go (lineno + List.length batch)
          (List.filteri (fun i _ -> i >= size) inputs)
    in
    go first inputs
  end

let run_chaos ~batched () =
  Faults.disarm_all ();

  (* 1. fault-free sequential baseline *)
  let baseline = List.map convert corpus in

  (* 2. arm everything at 1% and stream through the parallel service *)
  Faults.reset_trip_counts ();
  List.iter (fun p -> Faults.arm ~probability:0.01 p) Faults.pipeline_points;
  (* any failure below reproduces with this exact seed and schedule *)
  Printf.printf
    "chaos: reproduce with BDPRINT_FAULTS_SEED=%d BDPRINT_FAULTS=%S\n%!"
    Faults.seed (Faults.spec_string ());

  let replies = ref [] in
  let svc =
    S.start ~jobs:4 ~queue_capacity:128 ~retry:chaos_retry
      ~breaker:{ Service.Breaker.failure_threshold = 8; cooldown_ms = 20 }
      ~emit:(fun r -> replies := r :: !replies)
      convert
  in
  submit_lines ~batched svc ~first:1 corpus;
  (* a few large batches are all submitted at once: keep the faults
     armed until every corpus line is answered *)
  Sync.wait_until ~timeout_s:120. "every corpus line answered" (fun () ->
      (S.stats svc).S.completed >= n_lines);

  (* 3. disarm and submit a recovery tail on the same still-running
     service: it must come back clean, with the breaker closed *)
  Faults.disarm_all ();
  let recovery = List.init 20 (fun i -> Printf.sprintf "%d.5" i) in
  submit_lines ~batched svc ~first:(n_lines + 1) recovery;
  let stats = S.shutdown svc in
  let replies = List.rev !replies in

  let trips = Faults.total_trips () in
  Printf.printf
    "chaos: %d lines + %d recovery, %d fault trips, %d retries, breaker=%s \
     trips=%d\n\
     %!"
    n_lines (List.length recovery) trips stats.S.retries stats.S.breaker_state
    stats.S.breaker_trips;

  (* every line answered, in submission order *)
  Alcotest.(check int) "one reply per line"
    (n_lines + List.length recovery)
    (List.length replies);
  List.iteri
    (fun i (r : S.reply) ->
      Alcotest.(check int) "order preserved" (i + 1) r.S.lineno)
    replies;

  (* the chaos was real and the retries did work *)
  Alcotest.(check bool) "faults actually tripped" true (trips > 0);
  Alcotest.(check bool) "retries actually happened" true (stats.S.retries > 0);

  (* differential check against the fault-free baseline *)
  let chaos_replies = List.filteri (fun i _ -> i < n_lines) replies in
  List.iteri
    (fun i (expected, (r : S.reply)) ->
      match (expected, r.S.outcome) with
      | Ok want, S.Done got ->
        if not (String.equal want got) then
          Alcotest.failf "line %d (%S): chaos output %S <> baseline %S" (i + 1)
            r.S.input got want
      | Error want, S.Failed got ->
        let wc = Error.category want and gc = Error.category got in
        if not (String.equal wc gc) then
          Alcotest.failf "line %d (%S): chaos failure class %s <> baseline %s"
            (i + 1) r.S.input gc wc
      | Ok want, S.Failed got ->
        Alcotest.failf "line %d (%S): chaos failed (%s) but baseline says %S"
          (i + 1) r.S.input (Error.to_string got) want
      | Error want, S.Done got ->
        Alcotest.failf
          "line %d (%S): chaos produced %S but baseline fails (%s)" (i + 1)
          r.S.input got (Error.to_string want)
      | _, S.Degraded got ->
        Alcotest.failf "line %d (%S): degraded output %S under chaos" (i + 1)
          r.S.input got)
    (List.combine baseline chaos_replies);

  (* transients never surfaced, never degraded, never opened the breaker *)
  Alcotest.(check int) "no surviving internal errors" 0
    stats.S.internal_failures;
  Alcotest.(check int) "no degraded outputs" 0 stats.S.degraded;
  Alcotest.(check int) "breaker never tripped" 0 stats.S.breaker_trips;

  (* the recovery tail after disarm is entirely clean *)
  let tail = List.filteri (fun i _ -> i >= n_lines) replies in
  List.iter
    (fun (r : S.reply) ->
      match r.S.outcome with
      | S.Done _ -> ()
      | _ -> Alcotest.failf "recovery line %d not clean" r.S.lineno)
    tail;
  Alcotest.(check string) "breaker closed after disarm" "closed"
    stats.S.breaker_state

let () =
  Alcotest.run "chaos"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "1%% transient faults, %d lines" n_lines)
            `Quick (run_chaos ~batched:false);
          Alcotest.test_case
            (Printf.sprintf "1%% transient faults, %d lines in batches" n_lines)
            `Quick (run_chaos ~batched:true);
        ] );
    ]
