(* Metric collection and the result line.  Every metric is printed by
   name with its unit as it is recorded; the last line of standard
   output is one JSON object with the correctness verdict, the item
   counts and the metrics. *)

type t = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; attempted = 0; failed = 0 }

let add t name unit_ value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not a finite number" name);
  Printf.printf "  %-28s %16.4f %s\n%!" name value unit_;
  t.metrics <- (name, value, unit_) :: t.metrics

(* Items attempted and those that failed verification. *)
let tally t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let json t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (t.failed = 0 && t.attempted > 0)
    t.attempted t.failed;
  List.iteri
    (fun i (name, value, unit_) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name value unit_)
    (List.rev t.metrics);
  Buffer.add_string b "}}";
  Buffer.contents b
