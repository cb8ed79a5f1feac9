(* Tests for the networked conversion daemon (lib/net): the Wire
   protocol grammar and the Server engine end-to-end over real TCP
   sockets — verbs, explicit load shedding (repeated values included),
   protocol-error resynchronisation, graceful
   drain (no accepted request lost), and a chaos run with the network
   fault points and worker-kill armed, verifying zero wrong
   conversions. *)

module Wire = Net.Wire
module Server = Net.Server
module Error = Robust.Error
module Faults = Robust.Faults

let convert_real input =
  match
    Reader.read ~mode:Fp.Rounding.To_nearest_even Fp.Format_spec.binary64 input
  with
  | Error _ as e -> e
  | Ok v ->
    Dragon.Printer.print_value ~base:10 ~mode:Fp.Rounding.To_nearest_even
      ~strategy:Dragon.Scaling.Fast_estimate ~notation:Dragon.Render.Auto
      Fp.Format_spec.binary64 v

(* {2 Wire} *)

let test_wire_requests () =
  let ok s = Result.get_ok (Wire.parse_request s) in
  let errs s = Result.is_error (Wire.parse_request s) in
  Alcotest.(check bool) "conv" true
    (ok "CONV 0.1" = Wire.Conv { input = "0.1"; tid = 0 });
  Alcotest.(check bool) "conv trims" true
    (ok "CONV   0.1 " = Wire.Conv { input = "0.1"; tid = 0 });
  Alcotest.(check bool) "conv cr" true
    (ok "CONV 0.1\r" = Wire.Conv { input = "0.1"; tid = 0 });
  Alcotest.(check bool) "conv tid" true
    (ok "CONV TID=7 0.1" = Wire.Conv { input = "0.1"; tid = 7 });
  Alcotest.(check bool) "conv tid trims" true
    (ok "CONV  TID=7  0.1" = Wire.Conv { input = "0.1"; tid = 7 });
  Alcotest.(check bool) "conv tid-like input" true
    (ok "CONV TID" = Wire.Conv { input = "TID"; tid = 0 });
  Alcotest.(check bool) "batch" true
    (ok "BATCH 10" = Wire.Batch { count = 10; tid = 0 });
  Alcotest.(check bool) "batch tid" true
    (ok "BATCH 10 TID=9" = Wire.Batch { count = 10; tid = 9 });
  Alcotest.(check bool) "trace" true (ok "TRACE" = Wire.Trace_dump);
  Alcotest.(check bool) "deadline" true (ok "DEADLINE 50" = Wire.Deadline 50);
  Alcotest.(check bool) "ping" true (ok "PING" = Wire.Ping);
  Alcotest.(check bool) "healthz" true (ok "HEALTHZ" = Wire.Healthz);
  Alcotest.(check bool) "stats" true (ok "STATS" = Wire.Stats);
  Alcotest.(check bool) "metrics" true (ok "METRICS" = Wire.Metrics);
  Alcotest.(check bool) "quit" true (ok "QUIT" = Wire.Quit);
  Alcotest.(check bool) "empty conv" true (errs "CONV ");
  Alcotest.(check bool) "bad tid" true (errs "CONV TID=x 0.1");
  Alcotest.(check bool) "tid zero" true (errs "CONV TID=0 0.1");
  Alcotest.(check bool) "tid alone" true (errs "CONV TID=5");
  Alcotest.(check bool) "batch trailing junk" true (errs "BATCH 10 extra");
  Alcotest.(check bool) "trace junk" true (errs "TRACE x");
  (* render/parse round-trip of the request frames the client emits *)
  Alcotest.(check string) "render conv" "CONV 0.1\n" (Wire.render_conv "0.1");
  Alcotest.(check string) "render conv tid" "CONV TID=7 0.1\n"
    (Wire.render_conv ~tid:7 "0.1");
  Alcotest.(check string) "render batch tid" "BATCH 10 TID=9\n"
    (Wire.render_batch ~tid:9 10);
  Alcotest.(check bool) "batch 0" true (errs "BATCH 0");
  Alcotest.(check bool) "batch over" true
    (errs (Printf.sprintf "BATCH %d" (Wire.max_batch + 1)));
  Alcotest.(check bool) "batch junk" true (errs "BATCH ten");
  Alcotest.(check bool) "deadline negative" true (errs "DEADLINE -1");
  Alcotest.(check bool) "deadline over" true
    (errs (Printf.sprintf "DEADLINE %d" (Wire.max_deadline_ms + 1)));
  Alcotest.(check bool) "ping junk" true (errs "PING x");
  Alcotest.(check bool) "unknown" true (errs "FROB 1");
  Alcotest.(check bool) "empty" true (errs "")

let test_wire_replies () =
  let round r =
    let s = Wire.render_reply r in
    let line = String.sub s 0 (String.length s - 1) in
    Result.get_ok (Wire.parse_reply_line line)
  in
  Alcotest.(check bool) "ok" true (round (Wire.Converted "0.1") = Wire.Converted "0.1");
  Alcotest.(check bool) "deg" true (round (Wire.Degraded "1.5") = Wire.Degraded "1.5");
  Alcotest.(check bool) "err" true
    (round (Wire.Failed { cls = "syntax"; detail = "bad" })
    = Wire.Failed { cls = "syntax"; detail = "bad" });
  Alcotest.(check bool) "shed" true
    (round (Wire.Shed { reason = "queue-full"; retry_after_ms = None })
    = Wire.Shed { reason = "queue-full"; retry_after_ms = None });
  Alcotest.(check bool) "shed retry-after" true
    (round (Wire.Shed { reason = "overload"; retry_after_ms = Some 40 })
    = Wire.Shed { reason = "overload"; retry_after_ms = Some 40 });
  Alcotest.(check string) "shed rendering" "SHED overload retry-after-ms=40\n"
    (Wire.render_reply
       (Wire.Shed { reason = "overload"; retry_after_ms = Some 40 }));
  Alcotest.(check bool) "end" true
    (round (Wire.Batch_end { ok = 3; failed = 1; shed = 2 })
    = Wire.Batch_end { ok = 3; failed = 1; shed = 2 });
  Alcotest.(check bool) "pong" true (round Wire.Pong = Wire.Pong);
  Alcotest.(check bool) "bye" true (round Wire.Bye = Wire.Bye);
  (* READY/DRAINING attrs round-trip; the bare forms stay byte-identical
     to the pre-attr protocol *)
  Alcotest.(check string) "ready bare" "READY\n"
    (Wire.render_reply (Wire.Ready ""));
  Alcotest.(check bool) "ready attrs" true
    (round (Wire.Ready "uptime-s=3 version=1.0.0 wedges=0")
    = Wire.Ready "uptime-s=3 version=1.0.0 wedges=0");
  Alcotest.(check bool) "draining attrs" true
    (round (Wire.Draining "uptime-s=3") = Wire.Draining "uptime-s=3");
  (* newline injection cannot desynchronise the framing *)
  let s = Wire.render_reply (Wire.Failed { cls = "syntax"; detail = "a\nb" }) in
  Alcotest.(check int) "one newline" 1
    (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s);
  (* payload headers *)
  Alcotest.(check (option int)) "payload len" (Some 12)
    (Wire.payload_length "STATS 12");
  Alcotest.(check (option int)) "not payload" None (Wire.payload_length "OK 1")

(* {2 Server client harness} *)

type client = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  acc : Buffer.t;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  { fd; rbuf = Bytes.create 4096; rpos = 0; rlen = 0; acc = Buffer.create 64 }

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let send c s =
  let b = Bytes.of_string s in
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write c.fd b off len in
      go (off + n) (len - n)
    end
  in
  go 0 (Bytes.length b)

exception Closed_by_server

let refill c =
  let n = Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) in
  if n = 0 then raise Closed_by_server;
  c.rpos <- 0;
  c.rlen <- n

let rec recv_line c =
  if c.rpos >= c.rlen then begin
    refill c;
    recv_line c
  end
  else
    match Bytes.index_from_opt c.rbuf c.rpos '\n' with
    | Some i when i < c.rlen ->
      Buffer.add_subbytes c.acc c.rbuf c.rpos (i - c.rpos);
      c.rpos <- i + 1;
      let s = Buffer.contents c.acc in
      Buffer.clear c.acc;
      s
    | _ ->
      Buffer.add_subbytes c.acc c.rbuf c.rpos (c.rlen - c.rpos);
      c.rpos <- c.rlen;
      recv_line c

let rec recv_bytes c n =
  if n = 0 then ()
  else if c.rpos < c.rlen then begin
    let take = min n (c.rlen - c.rpos) in
    Buffer.add_subbytes c.acc c.rbuf c.rpos take;
    c.rpos <- c.rpos + take;
    recv_bytes c (n - take)
  end
  else begin
    refill c;
    recv_bytes c n
  end

let recv_reply c =
  let line = recv_line c in
  match Wire.parse_reply_line line with
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e
  | Ok (Wire.Payload { verb; _ }) ->
    let n =
      match Wire.payload_length line with
      | Some n -> n
      | None -> Alcotest.failf "payload header without length: %S" line
    in
    recv_bytes c n;
    let body = Buffer.contents c.acc in
    Buffer.clear c.acc;
    let nl = recv_line c in
    Alcotest.(check string) "payload trailing newline" "" nl;
    Wire.Payload { verb; body }
  | Ok r -> r

let with_server ?config ?(convert = convert_real) f =
  let server =
    match Server.start ?config ~convert (Server.Tcp ("127.0.0.1", 0)) with
    | Result.Ok s -> s
    | Result.Error e -> Alcotest.failf "server start: %s" (Error.to_string e)
  in
  let port = Option.get (Server.port server) in
  Fun.protect
    ~finally:(fun () ->
      Server.drain server;
      ignore (Server.wait server))
    (fun () -> f server port)

(* {2 Server tests} *)

let test_server_verbs () =
  with_server (fun server port ->
      let c = connect port in
      send c "PING\n";
      Alcotest.(check bool) "pong" true (recv_reply c = Wire.Pong);
      send c "HEALTHZ\n";
      (match recv_reply c with
      | Wire.Ready attrs ->
        (* attr soup must carry the documented keys *)
        List.iter
          (fun key ->
            Alcotest.(check bool) ("healthz " ^ key) true
              (List.exists
                 (fun p ->
                   String.length p > String.length key
                   && String.sub p 0 (String.length key + 1) = key ^ "=")
                 (String.split_on_char ' ' attrs)))
          [ "uptime-s"; "version"; "wedges" ]
      | r -> Alcotest.failf "expected READY, got %s" (Wire.render_reply r));
      send c "CONV 0.1\n";
      Alcotest.(check bool) "conv" true (recv_reply c = Wire.Converted "0.1");
      send c "CONV 0.1\n";
      Alcotest.(check bool) "conv repeat" true
        (recv_reply c = Wire.Converted "0.1");
      send c "CONV 1e23\n";
      Alcotest.(check bool) "conv sci" true (recv_reply c = Wire.Converted "1e23");
      send c "CONV bogus\n";
      (match recv_reply c with
      | Wire.Failed { cls = "syntax"; _ } -> ()
      | r -> Alcotest.failf "expected syntax error, got %s" (Wire.render_reply r));
      send c "DEADLINE 5000\n";
      Alcotest.(check bool) "deadline ack" true
        (recv_reply c = Wire.Converted "deadline=5000");
      send c "BATCH 3\n1.5\n2.5\nnope\n";
      Alcotest.(check bool) "b1" true (recv_reply c = Wire.Converted "1.5");
      Alcotest.(check bool) "b2" true (recv_reply c = Wire.Converted "2.5");
      (match recv_reply c with
      | Wire.Failed _ -> ()
      | r -> Alcotest.failf "expected failure, got %s" (Wire.render_reply r));
      (match recv_reply c with
      | Wire.Batch_end { ok = 2; failed = 1; shed = 0 } -> ()
      | r -> Alcotest.failf "bad END: %s" (Wire.render_reply r));
      send c "STATS\n";
      (match recv_reply c with
      | Wire.Payload { verb = "STATS"; body } ->
        Alcotest.(check bool) "stats json" true
          (String.length body > 2 && body.[0] = '{')
      | r -> Alcotest.failf "bad STATS: %s" (Wire.render_reply r));
      send c "METRICS\n";
      (match recv_reply c with
      | Wire.Payload { verb = "METRICS"; _ } -> ()
      | r -> Alcotest.failf "bad METRICS: %s" (Wire.render_reply r));
      send c "QUIT\n";
      Alcotest.(check bool) "bye" true (recv_reply c = Wire.Bye);
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "requests" 7 s.Server.requests;
      Alcotest.(check int) "proto clean" 0 s.Server.proto_errors)

let test_server_proto_resync () =
  with_server (fun server port ->
      let c = connect port in
      send c "FROB 1\n";
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; _ } -> ()
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      (* an oversized frame is discarded up to its newline and the
         stream stays in sync *)
      let budget = Robust.Budget.get () in
      let huge = String.make (budget.Robust.Budget.max_input_length + 256) 'x' in
      send c ("CONV " ^ huge ^ "\n");
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; detail } ->
        Alcotest.(check string) "too long" "frame-too-long" detail
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      send c "CONV 0.5\n";
      Alcotest.(check bool) "resynced" true (recv_reply c = Wire.Converted "0.5");
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "proto errors" 2 s.Server.proto_errors)

(* Regression (stream resync with pipelined requests): buffered
   requests sitting behind a malformed frame must each get their own
   reply, one-for-one and in order — the ERR proto answer must not eat,
   duplicate or reorder the replies of the requests queued after it. *)
let test_server_pipelined_proto_resync () =
  with_server (fun server port ->
      let c = connect port in
      (* one write, five frames: good, bad verb, good, bad again, good *)
      send c "CONV 0.1\nFROB 1\nCONV 0.5\nGARBAGE ###\nCONV 1.5\nPING\n";
      Alcotest.(check bool) "r1" true (recv_reply c = Wire.Converted "0.1");
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; _ } -> ()
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      Alcotest.(check bool) "r3" true (recv_reply c = Wire.Converted "0.5");
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; _ } -> ()
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      Alcotest.(check bool) "r5" true (recv_reply c = Wire.Converted "1.5");
      Alcotest.(check bool) "r6" true (recv_reply c = Wire.Pong);
      (* nothing further is buffered: a fresh request gets exactly one
         fresh reply *)
      send c "CONV 2.5\n";
      Alcotest.(check bool) "r7" true (recv_reply c = Wire.Converted "2.5");
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "both proto errors counted" 2 s.Server.proto_errors)

(* Adaptive admission: with a known-slow service and a deadline shorter
   than the projected queue wait, the daemon refuses up front with
   [SHED overload] and a retry-after hint instead of converting a reply
   that would arrive dead. *)
let test_server_overload_shed () =
  let slow input =
    Unix.sleepf 0.1;
    convert_real input
  in
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      admission_capacity = 64;
    }
  in
  with_server ~config ~convert:slow (fun server port ->
      let a = connect port in
      (* warm the service-time EWMA with one completed conversion *)
      send a "CONV 0.1\n";
      Alcotest.(check bool) "warmup" true (recv_reply a = Wire.Converted "0.1");
      (* occupy the only worker... *)
      send a "CONV 0.5\n";
      Thread.delay 0.02;
      (* ...then ask for a 30 ms answer while ~100 ms of work is queued *)
      let b = connect port in
      send b "DEADLINE 30\nCONV 1.5\n";
      Alcotest.(check bool) "ack" true (recv_reply b = Wire.Converted "deadline=30");
      (match recv_reply b with
      | Wire.Shed { reason = "overload"; retry_after_ms = Some ms } ->
        Alcotest.(check bool) "positive hint" true (ms >= 1)
      | r -> Alcotest.failf "expected SHED overload, got %s" (Wire.render_reply r));
      Alcotest.(check bool) "queued conv fine" true
        (recv_reply a = Wire.Converted "0.5");
      close a;
      close b;
      let s = Server.stats server in
      Alcotest.(check bool) "overload shed counted" true
        (s.Server.shed_overload >= 1))

(* Repeated values get no shortcut: every CONV goes through admission
   and the supervisor.  A value answered once is converted again on
   repeat, and with the only admission slot held by a slow request a
   repeat is shed like any other request. *)
let test_server_repeats_are_admitted () =
  let conversions = Atomic.make 0 in
  let started = Atomic.make false and release = Atomic.make false in
  let convert input =
    Atomic.incr conversions;
    if input = "0.5" then begin
      Atomic.set started true;
      while not (Atomic.get release) do
        Unix.sleepf 0.001
      done
    end;
    convert_real input
  in
  let config =
    { Server.default_config with Server.jobs = 1; admission_capacity = 1 }
  in
  with_server ~config ~convert (fun server port ->
      let a = connect port in
      send a "CONV 0.25
";
      Alcotest.(check bool) "first" true (recv_reply a = Wire.Converted "0.25");
      send a "CONV 0.25
";
      Alcotest.(check bool) "repeat" true (recv_reply a = Wire.Converted "0.25");
      Alcotest.(check int) "repeat converted again" 2 (Atomic.get conversions);
      Alcotest.(check int) "both submitted" 2
        (Server.stats server).Server.supervisor.Service.Supervisor.submitted;
      let b = connect port in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set release true;
          close a;
          close b)
        (fun () ->
          (* hold the single admission slot... *)
          send a "CONV 0.5
";
          while not (Atomic.get started) do
            Unix.sleepf 0.001
          done;
          (* ...and an already-answered value is shed, not served *)
          send b "CONV 0.25
";
          (match recv_reply b with
          | Wire.Shed { reason = "queue-full"; _ } -> ()
          | r ->
            Alcotest.failf "expected SHED queue-full, got %s"
              (Wire.render_reply r));
          Atomic.set release true;
          Alcotest.(check bool) "slow request converts" true
            (recv_reply a = Wire.Converted "0.5"));
      Alcotest.(check int) "shed counted" 1
        (Server.stats server).Server.shed_queue_full)

(* Watchdog: a wedged worker (alive but stalled far past the request's
   deadline) must not capture its request forever — the watchdog answers
   with a structured budget timeout, replaces the worker, and the next
   request converts normally. *)
let test_server_worker_wedge () =
  Faults.reset_call_counts ();
  Faults.arm_at ~call:1 "service.worker-wedge";
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      watchdog =
        Some
          {
            Service.Supervisor.poll_ms = 10;
            grace_ms = 50;
            stuck_ms = 10_000;
          };
    }
  in
  with_server ~config (fun server port ->
      let c = connect port in
      send c "DEADLINE 100\nCONV 0.1\n";
      Alcotest.(check bool) "ack" true
        (recv_reply c = Wire.Converted "deadline=100");
      (match recv_reply c with
      | Wire.Failed { cls = "budget"; _ } -> ()
      | r ->
        Alcotest.failf "expected budget timeout from the watchdog, got %s"
          (Wire.render_reply r));
      (* the wedged worker was replaced: the stream keeps working *)
      send c "DEADLINE 0\nCONV 0.5\n";
      Alcotest.(check bool) "clear ack" true
        (recv_reply c = Wire.Converted "deadline=0");
      Alcotest.(check bool) "replacement converts" true
        (recv_reply c = Wire.Converted "0.5");
      close c;
      let s = Server.stats server in
      Alcotest.(check bool) "wedge detected" true
        (s.Server.supervisor.Service.Supervisor.wedges >= 1))

let test_server_shedding () =
  (* one worker, one admission slot, slow conversions: concurrent
     clients must get explicit SHED queue-full replies, never silence *)
  let slow input =
    Unix.sleepf 0.15;
    convert_real input
  in
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      admission_capacity = 1;
    }
  in
  with_server ~config ~convert:slow (fun server port ->
      let n = 6 in
      let replies = Array.make n Wire.Pong in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                let c = connect port in
                send c "CONV 0.125\n";
                replies.(i) <- recv_reply c;
                close c)
              ())
      in
      List.iter Thread.join threads;
      let ok = ref 0 and shed = ref 0 in
      Array.iter
        (function
          | Wire.Converted "0.125" -> incr ok
          | Wire.Shed { reason = "queue-full"; retry_after_ms } ->
            (* the shed must carry a machine-readable retry hint *)
            Alcotest.(check bool) "retry-after present" true
              (match retry_after_ms with Some ms -> ms >= 1 | None -> false);
            incr shed
          | r -> Alcotest.failf "unexpected reply %s" (Wire.render_reply r))
        replies;
      Alcotest.(check int) "every request answered" n (!ok + !shed);
      Alcotest.(check bool) "some converted" true (!ok >= 1);
      Alcotest.(check bool) "some shed" true (!shed >= 1);
      let s = Server.stats server in
      Alcotest.(check int) "sheds counted" !shed s.Server.shed_queue_full)

let test_server_drain_loses_nothing () =
  let slowish input =
    Unix.sleepf 0.02;
    convert_real input
  in
  let config =
    { Server.default_config with Server.jobs = 2 }
  in
  with_server ~config ~convert:slowish (fun server port ->
      let n_threads = 4 in
      let sent = Array.make n_threads 0 in
      let answered = Array.make n_threads 0 in
      let shed = Array.make n_threads 0 in
      let wrong = Array.make n_threads 0 in
      let threads =
        List.init n_threads (fun i ->
            Thread.create
              (fun () ->
                let c = connect port in
                (try
                   for _ = 1 to 200 do
                     send c "CONV 0.375\n";
                     sent.(i) <- sent.(i) + 1;
                     match recv_reply c with
                     | Wire.Converted "0.375" | Wire.Degraded _ ->
                       answered.(i) <- answered.(i) + 1
                     | Wire.Shed _ -> shed.(i) <- shed.(i) + 1
                     | _ -> wrong.(i) <- wrong.(i) + 1
                   done
                 with Closed_by_server | Unix.Unix_error (_, _, _) -> ());
                close c)
              ())
      in
      Thread.delay 0.3;
      Server.drain server;
      let final = Server.wait server in
      List.iter Thread.join threads;
      let total a = Array.fold_left ( + ) 0 a in
      (* serial request/reply per connection: every request either got a
         reply or hit EOF after drain shut the connection down — but a
         request the server ADMITTED always got its reply first *)
      Alcotest.(check int) "no wrong replies" 0 (total wrong);
      Alcotest.(check bool) "work happened before drain" true
        (total answered > 0);
      Alcotest.(check int) "server answered every admitted request"
        (final.Server.replies_ok + final.Server.replies_degraded
       + final.Server.replies_failed + final.Server.shed_queue_full
        + final.Server.shed_overload + final.Server.shed_draining)
        final.Server.requests;
      (* the client-observed gap (sent but unanswered) is only ever the
         last in-flight request of each connection, cut by EOF *)
      Alcotest.(check bool) "bounded loss at EOF" true
        (total sent - (total answered + total shed) <= n_threads))

let test_server_chaos () =
  let requests =
    match Sys.getenv_opt "NET_CHAOS_REQUESTS" with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000)
    | None -> 10_000
  in
  Faults.arm ~probability:0.01 "service.worker-kill";
  Faults.arm ~probability:0.01 "net.slow-client";
  Faults.arm ~probability:0.02 "net.partial-write";
  (* any failure below reproduces with this line's seed + schedule *)
  Printf.printf "chaos: reproduce with BDPRINT_FAULTS_SEED=%d BDPRINT_FAULTS=%S\n%!"
    Faults.seed (Faults.spec_string ());
  Fun.protect ~finally:Faults.disarm_all @@ fun () ->
  let config =
    {
      Server.default_config with
      Server.jobs = 3;
      admission_capacity = 64;
    }
  in
  with_server ~config (fun server port ->
      (* a quarter hot repeats, the rest random doubles; expected
         outputs are computed fault-free in this thread (the armed
         points only fire in workers / write paths) *)
      let hot = [| "0"; "1"; "0.5"; "0.1"; "1e23"; "-2.5" |] in
      let st = Random.State.make [| Faults.seed; 0xbdc0de; requests |] in
      let fresh_input () =
        if Random.State.int st 4 = 0 then hot.(Random.State.int st 6)
        else
          let f = Int64.float_of_bits (Random.State.int64 st Int64.max_int) in
          match classify_float f with
          | FP_nan | FP_infinite -> "0.25"
          | _ -> Printf.sprintf "%.17g" f
      in
      let n_threads = 4 in
      let per_thread = requests / n_threads in
      let wrong = Atomic.make 0 in
      let ok = Atomic.make 0 in
      let deg = Atomic.make 0 in
      let shed = Atomic.make 0 in
      let failed = Atomic.make 0 in
      let proto = Atomic.make 0 in
      let check_outcome input reply =
        let expected = convert_real input in
        match (reply, expected) with
        | Wire.Converted out, Ok e ->
          if out <> e then Atomic.incr wrong else Atomic.incr ok
        | Wire.Degraded out, Ok e ->
          (* crash/breaker fallback: different spelling, same value *)
          if float_of_string out <> float_of_string e then Atomic.incr wrong
          else Atomic.incr deg
        | Wire.Failed _, Error _ -> Atomic.incr failed
        | Wire.Shed _, _ -> Atomic.incr shed
        | Wire.Failed { cls; detail }, Ok _ ->
          (* a degraded-fallback failure is only legal for inputs the
             host fallback cannot parse; for plain doubles it is wrong *)
          ignore (cls, detail);
          Atomic.incr wrong
        | _, _ -> Atomic.incr wrong
      in
      let client_loop tid () =
        let c = connect port in
        let stc = Random.State.make [| tid; 42 |] in
        for i = 1 to per_thread do
          let input = fresh_input () in
          (* the malformed-frame fault: inject garbage, expect ERR proto,
             stream stays usable *)
          if Faults.fires "net.malformed-frame" then begin
            send c "GARBAGE ###\n";
            match recv_reply c with
            | Wire.Failed { cls = "proto"; _ } -> Atomic.incr proto
            | r ->
              Alcotest.failf "malformed frame got %s" (Wire.render_reply r)
          end;
          send c ("CONV " ^ input ^ "\n");
          check_outcome input (recv_reply c);
          if i mod 500 = 0 then ignore (Random.State.int stc 2)
        done;
        send c "QUIT\n";
        (match recv_reply c with
        | Wire.Bye -> ()
        | r -> Alcotest.failf "bad BYE: %s" (Wire.render_reply r));
        close c
      in
      (* arm the client-side fault too *)
      Faults.arm ~probability:0.01 "net.malformed-frame";
      let threads =
        List.init n_threads (fun i -> Thread.create (client_loop i) ())
      in
      List.iter Thread.join threads;
      (* the daemon survived: still answering *)
      let c = connect port in
      send c "PING\n";
      Alcotest.(check bool) "daemon alive" true (recv_reply c = Wire.Pong);
      close c;
      Alcotest.(check int) "zero wrong conversions" 0 (Atomic.get wrong);
      let answered =
        Atomic.get ok + Atomic.get deg + Atomic.get shed + Atomic.get failed
      in
      Alcotest.(check int) "every request answered explicitly"
        (n_threads * per_thread) answered;
      let s = Server.stats server in
      Alcotest.(check int) "proto errors counted" (Atomic.get proto)
        s.Server.proto_errors;
      Alcotest.(check bool) "chaos actually happened" true
        (s.Server.supervisor.Service.Supervisor.crashes > 0
        || Atomic.get proto > 0);
      Alcotest.(check int) "respawn healed every crash"
        s.Server.supervisor.Service.Supervisor.crashes
        s.Server.supervisor.Service.Supervisor.respawns)

let test_server_deadline () =
  (* a 1 ms deadline on a slow conversion fails with a budget error *)
  let slow input =
    Unix.sleepf 0.05;
    Robust.Budget.check_deadline ();
    convert_real input
  in
  with_server ~convert:slow (fun _server port ->
      let c = connect port in
      send c "DEADLINE 1\nCONV 0.1\n";
      Alcotest.(check bool) "ack" true (recv_reply c = Wire.Converted "deadline=1");
      (match recv_reply c with
      | Wire.Failed { cls = "budget"; _ } -> ()
      | r -> Alcotest.failf "expected budget timeout, got %s" (Wire.render_reply r));
      send c "DEADLINE 0\nCONV 0.1\n";
      Alcotest.(check bool) "clear ack" true
        (recv_reply c = Wire.Converted "deadline=0");
      Alcotest.(check bool) "no deadline converts" true
        (recv_reply c = Wire.Converted "0.1");
      close c)

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "requests" `Quick test_wire_requests;
          Alcotest.test_case "replies" `Quick test_wire_replies;
        ] );
      ( "server",
        [
          Alcotest.test_case "verbs" `Quick test_server_verbs;
          Alcotest.test_case "proto-resync" `Quick test_server_proto_resync;
          Alcotest.test_case "pipelined-proto-resync" `Quick
            test_server_pipelined_proto_resync;
          Alcotest.test_case "shedding" `Quick test_server_shedding;
          Alcotest.test_case "overload-shed" `Quick test_server_overload_shed;
          Alcotest.test_case "repeats-are-admitted" `Quick
            test_server_repeats_are_admitted;
          Alcotest.test_case "worker-wedge" `Quick test_server_worker_wedge;
          Alcotest.test_case "deadline" `Quick test_server_deadline;
          Alcotest.test_case "drain-loses-nothing" `Quick
            test_server_drain_loses_nothing;
          Alcotest.test_case "chaos" `Slow test_server_chaos;
        ] );
    ]
