(* bdprint --stdin measured from outside: whole-file runs over a
   generated input file and start-up time on a one-line input,
   interleaved with the calibration loop so that each figure samples
   the whole run. *)

type command = { exe : string; args : string list }

let describe c = String.concat " " ("bdprint" :: c.args)

(* A run's failures: every expected line that did not come back right,
   or all of them when the process itself failed. *)
let run_failures (r : Proc.finished) v =
  if Proc.status_ok r.Proc.status then Verify.failures v
  else max (Verify.failures v) v.Verify.expected

type rep = {
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  top_heap_words : float;
}

(* One verified run over the whole input file. *)
let whole_file cmd ~work ~input ~(inputs : Inputs.t) =
  let r =
    Proc.run ~exe:cmd.exe ~args:cmd.args ~input
      ~stderr_path:(Filename.concat work "run.err")
  in
  let v = Verify.stream ~expected:inputs.Inputs.expected r.Proc.out in
  let f = run_failures r v in
  if f > 0 then
    Report.note "%s: %s (%s)" (describe cmd)
      (Format.asprintf "%a" Verify.pp v)
      (Proc.status_to_string r.Proc.status);
  let gc =
    match r.Proc.gc with
    | Some g -> g
    | None -> failwith "bdprint printed no GC report at exit"
  in
  ( {
      wall_s = r.Proc.wall_s;
      cpu_s = r.Proc.cpu_s;
      minor_words = gc.Proc.minor_words;
      top_heap_words = gc.Proc.top_heap_words;
    },
    f )

(* Whole-file runs until [budget_s] has passed and at least [min_reps]
   ran; returns the runs, lines attempted and lines failed. *)
let throughput cmd ~work ~input ~(inputs : Inputs.t) ~budget_s ~min_reps =
  let t_end = Proc.now () +. budget_s in
  let reps = ref [] and failed = ref 0 in
  while List.length !reps < min_reps || Proc.now () < t_end do
    let rep, f = whole_file cmd ~work ~input ~inputs in
    reps := rep :: !reps;
    failed := !failed + f
  done;
  let reps = Array.of_list (List.rev !reps) in
  (reps, Array.length reps * Array.length inputs.Inputs.lines, !failed)

(* {2 A whole measurement} *)

type measured = {
  reps : rep array;  (** whole-file runs *)
  setups : float array;  (** spawn-to-exit seconds on the one-line input *)
  factors : float array;
      (** {!Calib.factor} around each iteration, aligned with the above *)
  attempted : int;
  failed : int;
}

(* Until [seconds] have passed (and at least [min_reps] iterations ran),
   iterations of: a whole-file run, a start-up spawn on the first input
   line, then the calibration loop. *)
let measure cmd ~work ~input ~(inputs : Inputs.t) ~seconds ~min_reps =
  let one_line = Filename.concat work "one_line.txt" in
  Inputs.write_lines one_line [| inputs.Inputs.lines.(0) |];
  let first = [| inputs.Inputs.expected.(0) |] in
  let t_end = Proc.now () +. seconds in
  let reps = ref [] and setups = ref [] and factors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let cal = ref (Calib.measure ()) in
  while List.length !reps < min_reps || Proc.now () < t_end do
    let rep, f = whole_file cmd ~work ~input ~inputs in
    reps := rep :: !reps;
    attempted := !attempted + Array.length inputs.Inputs.lines;
    failed := !failed + f;
    let r =
      Proc.run ~exe:cmd.exe ~args:cmd.args ~input:one_line
        ~stderr_path:(Filename.concat work "setup.err")
    in
    setups := r.Proc.wall_s :: !setups;
    incr attempted;
    failed := !failed + run_failures r (Verify.stream ~expected:first r.Proc.out);
    let c = Calib.measure () in
    factors := Calib.factor ((!cal +. c) /. 2.) :: !factors;
    cal := c
  done;
  let arr l = Array.of_list (List.rev l) in
  {
    reps = arr !reps;
    setups = arr !setups;
    factors = arr !factors;
    attempted = !attempted;
    failed = !failed;
  }
