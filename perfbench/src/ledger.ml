(* The traced run: each end-to-end figure split into layers.  The
   benchmark calls each library's public functions itself, on the
   workload's own generated inputs, and records a span around every
   call; self times then attribute a line's time to the layers.  The
   CLI, the supervised service and the daemon are measured around the
   same inputs, and their residuals against the in-process pipeline
   name the time no layer accounts for.

   Every layer is measured on every workload, so a metric that a
   workload's programs do not exercise still reads as the layer's cost
   on those inputs; README.md lists which workload each one is
   expected to move. *)

module Printer = Dragon.Printer
module Render = Dragon.Render
module Supervisor = Service.Supervisor

type ctx = {
  own : Inputs.pipeline;  (** the pipeline the workload's program runs *)
  inputs : Inputs.t;
  seed : int;
  cli : Cli.command;
  cli_input : string;
  bdprintd : string;
  work : string;
  seconds : float;
  report : Report.t;
}

let mode = Inputs.mode
let b64 = Inputs.b64
let add ctx = Report.add ctx.report

let ns_per per_s n = per_s *. 1e9 /. float_of_int n

(* {2 The composed pipeline, with a span around each layer call} *)

type names = {
  line : int;
  reader : int;
  fp : int;
  dragon : int;
  render : int;
}

let names sp pipeline =
  let i = Spans.intern sp in
  match pipeline with
  | Inputs.Shortest ->
    {
      line = i "pipeline.shortest";
      reader = i "reader";
      fp = i "fp";
      dragon = i "dragon.shortest";
      render = i "render.free";
    }
  | Inputs.Fixed17 ->
    {
      line = i "pipeline.fixed17";
      reader = i "reader";
      fp = i "fp";
      dragon = i "dragon.fixed17";
      render = i "render.fixed";
    }

(* Runs [pipeline] over lines [0, n) — read, decompose, convert, render:
   the same calls [Printer.print_value] and bdprint make, one span
   each.  Returns the seconds taken and the lines whose output differed
   from [expected]. *)
let compose sp nm pipeline (lines : string array) (expected : string array) n =
  let bad = ref 0 in
  let t0 = Proc.now () in
  for i = 0 to n - 1 do
    let l = Spans.enter sp ~name:nm.line ~parent:(-1) ~rid:i in
    let s = Spans.enter sp ~name:nm.reader ~parent:l ~rid:i in
    let r = Reader.Fast.read lines.(i) in
    Spans.leave sp s;
    let out =
      match r with
      | Error _ -> None
      | Ok x -> (
        let s = Spans.enter sp ~name:nm.fp ~parent:l ~rid:i in
        let value = Fp.Ieee.decompose x in
        Spans.leave sp s;
        match value with
        | Fp.Value.Zero neg -> Some (Render.zero ~neg ())
        | Fp.Value.Inf neg -> Some (Render.infinity ~neg ())
        | Fp.Value.Nan -> Some Render.nan
        | Fp.Value.Finite v -> (
          let neg = v.Fp.Value.neg in
          match pipeline with
          | Inputs.Shortest ->
            let s = Spans.enter sp ~name:nm.dragon ~parent:l ~rid:i in
            let t =
              Dragon.Free_format.convert ~base:10 ~mode
                ~strategy:Dragon.Scaling.Fast_estimate b64 v
            in
            Spans.leave sp s;
            let s = Spans.enter sp ~name:nm.render ~parent:l ~rid:i in
            let o = Render.free ~notation:Render.Auto ~neg ~base:10 t in
            Spans.leave sp s;
            Some o
          | Inputs.Fixed17 -> (
            let s = Spans.enter sp ~name:nm.dragon ~parent:l ~rid:i in
            let t =
              Dragon.Fixed_format.convert ~base:10 ~mode b64 v
                (Dragon.Fixed_format.Relative 17)
            in
            Spans.leave sp s;
            match t with
            | Error _ -> None
            | Ok t ->
              let s = Spans.enter sp ~name:nm.render ~parent:l ~rid:i in
              let o = Render.fixed ~notation:Render.Auto ~neg ~base:10 t in
              Spans.leave sp s;
              Some o)))
    in
    Spans.leave sp l;
    match out with Some o when o = expected.(i) -> () | _ -> incr bad
  done;
  (Proc.now () -. t0, !bad)

(* Seconds and minor words per line of the bdprint conversion itself
   ([Inputs.convert]: read, then print), untraced. *)
let plain pipeline (lines : string array) (expected : string array) n =
  let bad = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Proc.now () in
  for i = 0 to n - 1 do
    match Inputs.convert pipeline lines.(i) with
    | Ok o when o = expected.(i) -> ()
    | _ -> incr bad
  done;
  let dt = Proc.now () -. t0 in
  (dt, (Gc.minor_words () -. w0) /. float_of_int n, !bad)

let finite_values (values : float array) n =
  Array.to_list (Array.sub values 0 n)
  |> List.filter_map (fun x ->
         match Fp.Ieee.decompose x with Fp.Value.Finite v -> Some v | _ -> None)
  |> Array.of_list

(* Minor words per call of one conversion kernel alone. *)
let words_per_call f (vs : Fp.Value.finite array) =
  let w0 = Gc.minor_words () in
  Array.iter f vs;
  Stats.ratio (Gc.minor_words () -. w0) (float_of_int (Array.length vs))

(* {2 In-process layers} *)

type layers = {
  line_ns : float;  (** bdprint's conversion, untraced *)
  line_words : float;
  overhead : float;  (** traced composed pass against its untraced twin *)
  own : (string, Spans.agg) Hashtbl.t;  (** span totals of the own pipeline *)
  own_names : names;
}

let in_process ctx sp =
  let inp = ctx.inputs in
  let n_all = Array.length inp.Inputs.lines in
  (* line counts keep the traced run near its time budget: exact-kernel
     fixed-17 lines cost ~8x a fast-path shortest line *)
  let n_s = min n_all 20_000 and n_f = min n_all 4_000 in
  let lines = inp.Inputs.lines in
  let expected p n =
    if p = ctx.own then inp.Inputs.expected
    else
      Array.init n (fun i ->
          match Inputs.convert p lines.(i) with
          | Ok s -> s
          | Error e -> failwith (Robust.Error.to_string e))
  in
  let exp_s = expected Inputs.Shortest n_s and exp_f = expected Inputs.Fixed17 n_f in
  let n_own = if ctx.own = Inputs.Shortest then n_s else n_f in
  let exp_own = if ctx.own = Inputs.Shortest then exp_s else exp_f in
  let attempted = ref 0 and failed = ref 0 in
  (* fast-path verdict per line, from the telemetry counters (on for
     this pass only) *)
  let vs = finite_values inp.Inputs.values n_s in
  let fell_back = Array.make n_s false in
  Telemetry.set_enabled true;
  let h0, f0 = Printer.fastpath_stats () in
  for i = 0 to n_s - 1 do
    match Fp.Ieee.decompose inp.Inputs.values.(i) with
    | Fp.Value.Finite v ->
      let _, fb0 = Printer.fastpath_stats () in
      ignore
        (Dragon.Free_format.convert ~base:10 ~mode
           ~strategy:Dragon.Scaling.Fast_estimate b64 v);
      let _, fb1 = Printer.fastpath_stats () in
      fell_back.(i) <- fb1 > fb0
    | _ -> ()
  done;
  let h1, f1 = Printer.fastpath_stats () in
  Telemetry.set_enabled false;
  let hits = float_of_int (h1 - h0) and fbs = float_of_int (f1 - f0) in
  (* traced passes alternate with untraced twins of the same code *)
  let off = Spans.create ~enabled:false 0 in
  let nm_s = names sp Inputs.Shortest and nm_f = names sp Inputs.Fixed17 in
  let nm_off_s = names off Inputs.Shortest and nm_off_f = names off Inputs.Fixed17 in
  let reps = 3 in
  let untraced = Array.make reps 0. and traced = Array.make reps 0. in
  let plain_ns = Array.make reps 0. in
  let words = ref 0. in
  let tiers = ref Reader.Fast.{ exact = 0; extended = 0; fallback = 0 } in
  for r = 0 to reps - 1 do
    let run sp nm p e n =
      let dt, bad = compose sp nm p lines e n in
      attempted := !attempted + n;
      failed := !failed + bad;
      dt
    in
    let us = run off nm_off_s Inputs.Shortest exp_s n_s in
    let uf = run off nm_off_f Inputs.Fixed17 exp_f n_f in
    Spans.reset sp;
    let st0 = Reader.Fast.stats () in
    let ts = run sp nm_s Inputs.Shortest exp_s n_s in
    let st1 = Reader.Fast.stats () in
    let tf = run sp nm_f Inputs.Fixed17 exp_f n_f in
    let st2 = Reader.Fast.stats () in
    let d a b =
      Reader.Fast.
        {
          exact = b.exact - a.exact;
          extended = b.extended - a.extended;
          fallback = b.fallback - a.fallback;
        }
    in
    tiers := if ctx.own = Inputs.Shortest then d st0 st1 else d st1 st2;
    let own_u, own_t = if ctx.own = Inputs.Shortest then (us, ts) else (uf, tf) in
    untraced.(r) <- ns_per own_u n_own;
    traced.(r) <- ns_per own_t n_own;
    let dt, w, bad = plain ctx.own lines exp_own n_own in
    attempted := !attempted + n_own;
    failed := !failed + bad;
    plain_ns.(r) <- ns_per dt n_own;
    words := w
  done;
  let selfs = Spans.self_times sp in
  let pass line i =
    sp.Spans.name.(i) = line
    || (sp.Spans.parent.(i) >= 0 && sp.Spans.name.(sp.Spans.parent.(i)) = line)
  in
  let agg_s = Spans.aggregate ~keep:(pass nm_s.line) sp selfs in
  let agg_f = Spans.aggregate ~keep:(pass nm_f.line) sp selfs in
  let agg_own = if ctx.own = Inputs.Shortest then agg_s else agg_f in
  let nm_own = if ctx.own = Inputs.Shortest then nm_s else nm_f in
  let fb =
    Spans.aggregate
      ~keep:(fun i -> sp.Spans.name.(i) = nm_s.dragon && fell_back.(sp.Spans.rid.(i)))
      sp selfs
  in
  let t = !tiers in
  let reads = float_of_int (t.exact + t.extended + t.fallback) in
  let line_ns = Stats.median plain_ns in
  add ctx "reader.read_ns" "ns" (Spans.mean_self agg_own "reader");
  add ctx "reader.exact_frac" "fraction" (Stats.ratio (float_of_int t.exact) reads);
  add ctx "reader.extended_frac" "fraction" (Stats.ratio (float_of_int t.extended) reads);
  add ctx "reader.fallback_frac" "fraction" (Stats.ratio (float_of_int t.fallback) reads);
  add ctx "fp.decompose_ns" "ns" (Spans.mean_self agg_own "fp");
  add ctx "dragon.shortest_ns" "ns" (Spans.mean_self agg_s "dragon.shortest");
  add ctx "fastpath.hit_frac" "fraction" (Stats.ratio hits (hits +. fbs));
  add ctx "dragon.fallback_ns" "ns" (Spans.mean_self fb "dragon.shortest");
  add ctx "dragon.shortest_minor_words" "words"
    (words_per_call
       (fun v ->
         ignore
           (Dragon.Free_format.convert ~base:10 ~mode
              ~strategy:Dragon.Scaling.Fast_estimate b64 v))
       vs);
  add ctx "dragon.fixed17_ns" "ns" (Spans.mean_self agg_f "dragon.fixed17");
  add ctx "dragon.fixed17_minor_words" "words"
    (words_per_call
       (fun v ->
         ignore
           (Dragon.Fixed_format.convert ~base:10 ~mode b64 v
              (Dragon.Fixed_format.Relative 17)))
       (finite_values inp.Inputs.values n_f));
  add ctx "render.free_ns" "ns" (Spans.mean_self agg_s "render.free");
  add ctx "render.fixed_ns" "ns" (Spans.mean_self agg_f "render.fixed");
  add ctx "pipeline.line_ns" "ns" line_ns;
  add ctx "pipeline.self_ns" "ns" (Spans.mean_self agg_own (Spans.label sp nm_own.line));
  Report.note "own pipeline per line: %.1f ns untraced, %.1f ns traced (%d lines, %d reps)"
    (Stats.median untraced) (Stats.median traced) n_own reps;
  Report.tally ctx.report ~attempted:!attempted ~failed:!failed;
  {
    line_ns;
    line_words = !words;
    overhead = (Stats.median traced /. Stats.median untraced) -. 1.;
    own = agg_own;
    own_names = nm_own;
  }

(* {2 The CLI around the pipeline} *)

let cli ctx (l : layers) =
  let reps, attempted, failed =
    Cli.throughput ctx.cli ~work:ctx.work ~input:ctx.cli_input ~inputs:ctx.inputs
      ~budget_s:(0.5 *. ctx.seconds) ~min_reps:3
  in
  Report.tally ctx.report ~attempted ~failed;
  let n = float_of_int (Array.length ctx.inputs.Inputs.lines) in
  let wall_ns = Stats.median (Array.map (fun r -> r.Cli.wall_s *. 1e9 /. n) reps) in
  let words = Stats.median (Array.map (fun r -> r.Cli.minor_words /. n) reps) in
  add ctx "cli.residual_ns" "ns" (wall_ns -. l.line_ns);
  add ctx "cli.residual_minor_words" "words" (words -. l.line_words);
  wall_ns

(* {2 The supervised service around the pipeline} *)

let service ctx (l : layers) =
  let inp = ctx.inputs in
  let n = min (Array.length inp.Inputs.lines) 20_000 in
  let jobs = 2 in
  let busy = Array.make n 0 and submitted = Array.make n 0 and emitted = Array.make n 0 in
  let bad = Atomic.make 0 in
  (* each request carries its line index after a space, so the wrapper
     can charge busy time to it; the index is split off before timing *)
  let convert tagged =
    let sp = String.rindex tagged ' ' in
    let i = int_of_string (String.sub tagged (sp + 1) (String.length tagged - sp - 1)) in
    let input = String.sub tagged 0 sp in
    let t0 = Spans.now_ns () in
    let r = Inputs.convert ctx.own input in
    busy.(i) <- busy.(i) + (Spans.now_ns () - t0);
    r
  in
  let emit (reply : Supervisor.reply) =
    let i = reply.Supervisor.lineno in
    emitted.(i) <- Spans.now_ns ();
    match reply.Supervisor.outcome with
    | Supervisor.Done o when o = inp.Inputs.expected.(i) -> ()
    | _ -> Atomic.incr bad
  in
  let tagged = Array.init n (fun i -> inp.Inputs.lines.(i) ^ " " ^ string_of_int i) in
  let t0 = Spans.now_ns () in
  let svc = Supervisor.start ~jobs ~queue_capacity:(max 64 (8 * jobs)) ~emit convert in
  let in_submit = ref 0 in
  let s0 = Spans.now_ns () in
  for i = 0 to n - 1 do
    let a = Spans.now_ns () in
    submitted.(i) <- a;
    Supervisor.submit svc ~lineno:i tagged.(i);
    in_submit := !in_submit + (Spans.now_ns () - a)
  done;
  let s1 = Spans.now_ns () in
  ignore (Supervisor.shutdown svc);
  let wall = float_of_int (Spans.now_ns () - t0) in
  Report.tally ctx.report ~attempted:n ~failed:(Atomic.get bad);
  let total_busy = float_of_int (Array.fold_left ( + ) 0 busy) in
  let waits =
    Array.init n (fun i -> float_of_int (emitted.(i) - submitted.(i) - busy.(i)) /. 1e3)
  in
  add ctx "service.worker_busy_frac" "fraction" (total_busy /. (float_of_int jobs *. wall));
  add ctx "service.wait_us_p50" "us" (Stats.median waits);
  add ctx "service.submit_block_frac" "fraction"
    (float_of_int !in_submit /. float_of_int (s1 - s0));
  add ctx "service.handoff_ns" "ns" ((wall /. float_of_int n) -. l.line_ns)

(* {2 The daemon around the pipeline} *)

(* The daemon's request stream: the inputs in order, with every 4th
   request drawn from a 16-value hot set, so the memo has repeats to
   serve. *)
let request_stream ~seed n =
  let st = Random.State.make [| seed; 0xd4 |] in
  let hot = Array.init 16 (fun _ -> Random.State.int st n) in
  let next = ref 0 in
  Array.init (2 * n) (fun k ->
      if k mod 4 = 3 then hot.(Random.State.int st 16)
      else begin
        let i = !next in
        next := (i + 1) mod n;
        i
      end)

let net ctx (l : layers) =
  let inp = ctx.inputs in
  (* the daemon always prints shortest output *)
  let expected =
    if ctx.own = Inputs.Shortest then inp.Inputs.expected
    else
      Array.map
        (fun s ->
          match Inputs.convert Inputs.Shortest s with
          | Ok o -> o
          | Error e -> failwith (Robust.Error.to_string e))
        inp.Inputs.lines
  in
  let d =
    Daemon.spawn ~exe:ctx.bdprintd
      ~args:
        [ "--jobs"; "2"; "--listen"; "127.0.0.1:0"; "--metrics";
          Filename.concat ctx.work "daemon-metrics.json" ]
      ~stderr_path:(Filename.concat ctx.work "daemon-ledger.err")
  in
  let requests = request_stream ~seed:ctx.seed (Array.length inp.Inputs.lines) in
  let n = min 5_000 (Array.length requests / 2) in
  let failed = ref 0 in
  let c = Daemon.Raw.connect d in
  let timed f =
    let t0 = Proc.now () in
    let r = f () in
    (r, (Proc.now () -. t0) *. 1e6)
  in
  for _ = 1 to 200 do
    ignore (Daemon.Raw.request c "PING\n")
  done;
  let pings =
    Array.init 2_000 (fun _ ->
        let r, us = timed (fun () -> Daemon.Raw.request c "PING\n") in
        if r <> "PONG" then incr failed;
        us)
  in
  let convs =
    Array.init n (fun k ->
        let i = requests.(k) in
        let r, us =
          timed (fun () -> Daemon.Raw.request c (Net.Wire.render_conv inp.Inputs.lines.(i)))
        in
        if r <> "OK " ^ expected.(i) then incr failed;
        us)
  in
  let client = Net.Client.create [ Daemon.client_addr d ] in
  (* the client replays the next slice of the stream, not the raw
     slice, so both see the daemon's memo in the same state *)
  let viaclient =
    Array.init n (fun k ->
        let i = requests.(n + k) in
        let r, us = timed (fun () -> Net.Client.convert client inp.Inputs.lines.(i)) in
        (match r with
        | Ok { Net.Client.output; degraded = false; tier = Net.Client.Remote _; _ }
          when output = expected.(i) ->
          ()
        | _ -> incr failed);
        us)
  in
  let cstats = Net.Client.stats client in
  Net.Client.close client;
  let stats = Daemon.Raw.payload c "STATS" in
  let prom = Daemon.Raw.payload c "METRICS" in
  Daemon.Raw.close c;
  let status = Daemon.stop d in
  if not (Proc.status_ok status) then incr failed;
  Report.tally ctx.report ~attempted:(2_000 + (2 * n)) ~failed:!failed;
  let ping = Stats.median pings and conv = Stats.median convs in
  let field = Daemon.stats_field stats in
  let requests = float_of_int (field "requests") in
  let sheds =
    float_of_int (field "shed_queue_full" + field "shed_overload" + field "shed_draining")
  in
  add ctx "net.ping_rtt_us" "us" ping;
  add ctx "net.conv_rtt_us" "us" conv;
  add ctx "net.server_residual_us" "us" (conv -. ping -. (l.line_ns /. 1e3));
  add ctx "net.client_overhead_us" "us" (Stats.median viaclient -. conv);
  add ctx "net.worker_service_p50_us" "us"
    (Option.value ~default:0. (Daemon.stage_p50_us prom "worker-service"));
  add ctx "memo.hit_frac" "fraction" (Stats.ratio (float_of_int (field "cache_hits")) requests);
  add ctx "net.shed_frac" "fraction" (Stats.ratio sheds requests);
  add ctx "client.retry_frac" "fraction"
    (Stats.ratio (float_of_int cstats.Net.Client.retries)
       (float_of_int cstats.Net.Client.requests))

(* {2 The whole traced run} *)

let run ctx ~spans_path =
  let sp = Spans.create ((6 * 24_000) + 16) in
  let phase name f =
    let t0 = Spans.now_ns () in
    let r = f () in
    ignore
      (Spans.add sp ~name:(Spans.intern sp name) ~parent:(-1) ~rid:(-1) ~start:t0
         ~stop:(Spans.now_ns ()));
    r
  in
  let l = in_process ctx sp in
  let cli_ns = phase "phase.cli" (fun () -> cli ctx l) in
  phase "phase.service" (fun () -> service ctx l);
  phase "phase.net" (fun () -> net ctx l);
  add ctx "trace.overhead_frac" "fraction" l.overhead;
  let selfs = Spans.self_times sp in
  Spans.write sp selfs spans_path;
  (* the attribution: traced self time per layer, plus what the CLI adds *)
  let row name label = (name, Spans.mean_self l.own label) in
  let lbl = Spans.label sp in
  let nm = l.own_names in
  let rows =
    [
      row "reader" "reader";
      row "fp" "fp";
      row (lbl nm.dragon) (lbl nm.dragon);
      row (lbl nm.render) (lbl nm.render);
      row "pipeline glue" (lbl nm.line);
      ("cli.residual", cli_ns -. l.line_ns);
    ]
  in
  Report.note "per-line attribution of %s (ns):" (Cli.describe ctx.cli);
  List.iter (fun (k, v) -> Report.note "  %-18s %10.1f" k v) rows;
  Report.note "  %-18s %10.1f (CLI wall per line %.1f, untraced pipeline %.1f)" "sum"
    (List.fold_left (fun a (_, v) -> a +. v) 0. rows)
    cli_ns l.line_ns;
  Report.note "spans written to %s (%d spans)" spans_path (Spans.count sp)
