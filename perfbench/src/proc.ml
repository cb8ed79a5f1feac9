(* Child processes: the programs under test run as real processes.
   Each child gets the caller's environment minus anything that could
   steer the program (OCAMLRUNPARAM and BDPRINT* variables), plus
   OCAMLRUNPARAM=v=0x400 so the OCaml runtime prints its GC totals to
   stderr at exit; nothing is added to the programs themselves.  Every
   child is tracked until reaped and killed if the benchmark exits
   early. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let live : int list ref = ref []

let forget pid = live := List.filter (fun p -> p <> pid) !live

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      try ignore (waitpid_retry [] pid) with Unix.Unix_error (_, _, _) -> ())
    !live;
  live := []

let () = at_exit kill_all

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun v ->
         not (starts_with ~prefix:"OCAMLRUNPARAM=" v || starts_with ~prefix:"BDPRINT" v))
  |> List.cons "OCAMLRUNPARAM=v=0x400"
  |> Array.of_list

let spawn ~exe ~args ~stdin ~stdout ~stderr =
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ()) stdin
      stdout stderr
  in
  live := pid :: !live;
  pid

let rec read_retry fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf off len

let read_all fd =
  let b = Buffer.create (1 lsl 20) in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = read_retry fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents b

let rec write_all fd s off len =
  if len > 0 then
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* {2 The runtime's exit report} *)

type gc = { minor_words : float; top_heap_words : float }

let parse_gc text =
  let field key =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = key ->
          float_of_string_opt
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  match (field "minor_words", field "top_heap_words") with
  | Some minor_words, Some top_heap_words -> Some { minor_words; top_heap_words }
  | _ -> None

(* Children's CPU seconds so far; a child's time is added at reaping. *)
let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* {2 Run to completion} *)

type finished = {
  wall_s : float;  (** spawn to exit *)
  cpu_s : float;  (** user + system CPU of the child *)
  out : string;  (** everything the child wrote to stdout *)
  gc : gc option;
  status : Unix.process_status;
}

let reap pid =
  let c0 = child_cpu () in
  let _, status = waitpid_retry [] pid in
  forget pid;
  (status, child_cpu () -. c0)

(* Runs [exe args] with stdin read from [input] and stdout piped back. *)
let run ~exe ~args ~input ~stderr_path =
  let inp = Unix.openfile input [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = spawn ~exe ~args ~stdin:inp ~stdout:w ~stderr:err in
  Unix.close inp;
  Unix.close w;
  Unix.close err;
  let out = read_all r in
  Unix.close r;
  let status, cpu_s = reap pid in
  let wall_s = now () -. t0 in
  { wall_s; cpu_s; out; gc = parse_gc (read_file stderr_path); status }

(* {2 Long-running children} *)

(* Sends SIGTERM and reaps the child, escalating to SIGKILL if it has
   not exited within [grace_s]. *)
let terminate ?(grace_s = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  let deadline = now () +. grace_s in
  let rec wait () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      snd (waitpid_retry [] pid)
    | _, status -> status
  in
  let status = wait () in
  forget pid;
  status

let status_ok = function Unix.WEXITED 0 -> true | _ -> false

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
