(* Machine-speed reference.  On a shared machine the speed available to
   a process drifts by tens of percent over tens of seconds (other
   tenants' load), far more than the changes the benchmark must
   resolve.  A fixed loop of the benchmark's own, built only on the
   OCaml standard library so it never changes with the code under
   test, is timed next to every measured repetition; each repetition's
   times are then scaled to a reference machine on which the loop
   takes [nominal_s].  Raw and scaled figures are both printed. *)

let nominal_s = 0.05
let sink = ref 0

(* Integer and float formatting, hashing and short-lived allocation:
   the same kinds of work as parsing and printing numbers. *)
let work () =
  let b = Buffer.create 64 in
  for i = 1 to 50_000 do
    Buffer.clear b;
    Buffer.add_string b (string_of_int (i * 7919));
    Buffer.add_string b (Printf.sprintf "%.17g" (float_of_int i /. 7.));
    sink := !sink + Hashtbl.hash (Buffer.contents b)
  done

(* Seconds the loop takes now. *)
let measure () =
  let t0 = Proc.now () in
  work ();
  Proc.now () -. t0

(* The factor that turns a time measured while the loop took [c]
   seconds into reference-machine time. *)
let factor c = nominal_s /. c
