(* The repository benchmark: bdprint measured end to end on seeded
   workloads, and every layer down to the daemon measured by a traced
   run on the same inputs, with every output verified.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root after building bin/bdprint.exe and
   bin/bdprintd.exe (perfbench/run.sh does both).  --trace 0 reports the
   end-to-end metrics; --trace 1 runs the per-layer ledger instead.  The
   last line of standard output is the JSON result; the exit code is 0
   only when every output was correct. *)

open Perfbench

type workload = {
  name : string;
  pipeline : Inputs.pipeline;
  args : string list;  (** bdprint's arguments *)
  values : seed:int -> int -> float array;
  text : float -> string;
  size : int;  (** distinct input lines *)
}

(* Sizes keep one whole-file CLI run near a quarter of a second, so a
   run holds a few dozen of them. *)
let workloads =
  [
    {
      name = "cli_shortest_schryer";
      pipeline = Inputs.Shortest;
      args = [ "--stdin" ];
      values = Inputs.schryer;
      text = Inputs.shortest_text;
      size = 50_000;
    };
    {
      name = "cli_shortest_random_j2";
      pipeline = Inputs.Shortest;
      args = [ "--stdin"; "--jobs"; "2" ];
      values = Inputs.random_bits;
      text = Inputs.digits17_text;
      size = 40_000;
    };
    {
      name = "cli_fixed17_schryer";
      pipeline = Inputs.Fixed17;
      args = [ "--stdin"; "--digits"; "17" ];
      values = Inputs.schryer;
      text = Inputs.shortest_text;
      size = 10_000;
    };
  ]

let bdprint = "_build/default/bin/bdprint.exe"
let bdprintd = "_build/default/bin/bdprintd.exe"

let usage () =
  prerr_endline
    "usage: bench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads:";
  List.iter (fun w -> prerr_endline ("  " ^ w.name)) workloads;
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (w, int "seed", float_of_int seconds, trace = 1)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let run_cli r ~cmd ~work ~input ~(inputs : Inputs.t) ~seconds =
  let add = Report.add r in
  let m = Cli.measure cmd ~work ~input ~inputs ~seconds ~min_reps:5 in
  Report.tally r ~attempted:m.Cli.attempted ~failed:m.Cli.failed;
  let n = float_of_int (Array.length inputs.Inputs.lines) in
  let per_rep g = Array.mapi (fun i x -> g x m.Cli.factors.(i)) m.Cli.reps in
  let best higher g = Stats.best ~higher (per_rep g) in
  let med g = Stats.median (per_rep g) in
  Report.note
    "%s: %d whole-file runs of %.0f lines; raw %.0f lines/s, machine at %.3f of \
     reference speed"
    (Cli.describe cmd) (Array.length m.Cli.reps) n
    (best true (fun x _ -> n /. x.Cli.wall_s))
    (Stats.median m.Cli.factors);
  add "items_per_s" "1/s" (best true (fun x f -> n /. (x.Cli.wall_s *. f)));
  add "mb_per_s" "MB/s"
    (best true (fun x f -> float_of_int inputs.Inputs.bytes /. (x.Cli.wall_s *. f) /. 1e6));
  add "cpu_us_per_item" "us" (best false (fun x f -> x.Cli.cpu_s *. f *. 1e6 /. n));
  add "minor_words_per_item" "words" (med (fun x _ -> x.Cli.minor_words /. n));
  add "top_heap_mb" "MB" (med (fun x _ -> mb_of_words x.Cli.top_heap_words));
  add "setup_s" "s" (Stats.median (Array.map2 ( *. ) m.Cli.setups m.Cli.factors))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let w, seed, seconds, trace = parse_args () in
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        Printf.eprintf "bench: %s not found; build the repository first\n" exe;
        exit 2
      end)
    [ bdprint; bdprintd ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a hung child must not hang the benchmark, and no child outlives it *)
  let abort msg =
    Sys.Signal_handle
      (fun _ ->
        prerr_endline ("bench: " ^ msg);
        Proc.kill_all ();
        exit 3)
  in
  Sys.set_signal Sys.sigalrm (abort "time limit exceeded");
  Sys.set_signal Sys.sigterm (abort "terminated");
  Sys.set_signal Sys.sigint (abort "interrupted");
  ignore (Unix.alarm 170);
  let root = ".perfbench_work" in
  let work = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  List.iter (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755) [ root; work ];
  let r = Report.create () in
  Printf.printf "perfbench: workload %s, seed %d, %.0f s, trace %b\n%!" w.name seed
    seconds trace;
  (* inputs and expectations, before any timing *)
  let pipeline = w.pipeline in
  let inputs = Inputs.make pipeline ~text:w.text (w.values ~seed w.size) in
  let bad = Inputs.audit pipeline ~samples:300 inputs in
  Report.tally r ~attempted:(Array.length inputs.Inputs.lines) ~failed:bad;
  if bad > 0 then Report.note "%d expected outputs failed the reference audit" bad;
  let input = Filename.concat work "input.txt" in
  Inputs.write_lines input inputs.Inputs.lines;
  let cmd = { Cli.exe = bdprint; args = w.args } in
  Printf.printf "  %d input lines, %d bytes\n%!" (Array.length inputs.Inputs.lines)
    inputs.Inputs.bytes;
  (if trace then
     Ledger.run
       {
         Ledger.own = pipeline;
         inputs;
         seed;
         cli = cmd;
         cli_input = input;
         bdprintd;
         work;
         seconds;
         report = r;
       }
       ~spans_path:(Filename.concat root ("spans-" ^ w.name ^ ".jsonl"))
   else run_cli r ~cmd ~work ~input ~inputs ~seconds);
  rm_rf work;
  Report.note "%d items attempted, %d failed" r.Report.attempted r.Report.failed;
  print_endline (Report.json r);
  exit (if r.Report.failed = 0 then 0 else 1)
