(* Span recorder for the traced run.  Spans live in preallocated
   arrays, so recording one costs two clock reads and a few array
   stores and allocates nothing; they are written out when the run
   ends.  A recorder created with [~enabled:false] skips the clock
   entirely, which is how the untraced twin of a traced pass runs the
   very same code. *)

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable n : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  rid : int array;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(enabled = true) capacity =
  let cap = if enabled then capacity else 0 in
  {
    enabled;
    names = Hashtbl.create 16;
    labels = [||];
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    rid = Array.make cap 0;
  }

(* Span names are interned once, outside the timed code. *)
let intern t label =
  match Hashtbl.find_opt t.names label with
  | Some id -> id
  | None ->
    let id = Array.length t.labels in
    Hashtbl.add t.names label id;
    t.labels <- Array.append t.labels [| label |];
    id

let label t id = t.labels.(id)
let count t = t.n
let reset t = t.n <- 0

(* [enter] returns the span's index, or -1 when the recorder is off or
   full; [leave] of -1 is a no-op, so call sites need no branches. *)
let enter t ~name ~parent ~rid =
  let i = t.n in
  if (not t.enabled) || i >= Array.length t.name then -1
  else begin
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.rid.(i) <- rid;
    t.n <- i + 1;
    t.start.(i) <- now_ns ();
    i
  end

let leave t i = if i >= 0 then t.stop.(i) <- now_ns ()

(* Recording a span whose bounds were measured elsewhere. *)
let add t ~name ~parent ~rid ~start ~stop =
  let i = t.n in
  if (not t.enabled) || i >= Array.length t.name then -1
  else begin
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.rid.(i) <- rid;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.n <- i + 1;
    i
  end

let duration t i = t.stop.(i) - t.start.(i)

(* Self time: a span's duration minus the part of its interval that its
   children cover.  Children are clipped to the parent and overlapping
   children are merged, so time is never subtracted twice. *)
let self_times t =
  let n = t.n in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 && p < n then children.(p) <- i :: children.(p)
  done;
  Array.init n (fun i ->
      let lo = t.start.(i) and hi = t.stop.(i) in
      let ivs =
        List.filter_map
          (fun c ->
            let a = max lo t.start.(c) and b = min hi t.stop.(c) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, last =
        List.fold_left
          (fun (acc, (ca, cb)) (a, b) ->
            if a > cb then (acc + (cb - ca), (a, b)) else (acc, (ca, max cb b)))
          (0, (lo, lo))
          ivs
      in
      let covered = covered + (snd last - fst last) in
      hi - lo - covered)

type agg = { spans : int; total_ns : int; self_ns : int }

(* Per-name totals over the spans that satisfy [keep]. *)
let aggregate ?(keep = fun _ -> true) t selfs =
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    if keep i then begin
      let l = t.labels.(t.name.(i)) in
      let a =
        Option.value (Hashtbl.find_opt tbl l)
          ~default:{ spans = 0; total_ns = 0; self_ns = 0 }
      in
      Hashtbl.replace tbl l
        {
          spans = a.spans + 1;
          total_ns = a.total_ns + duration t i;
          self_ns = a.self_ns + selfs.(i);
        }
    end
  done;
  tbl

let mean_self tbl label =
  match Hashtbl.find_opt tbl label with
  | Some a when a.spans > 0 -> float_of_int a.self_ns /. float_of_int a.spans
  | _ -> 0.

(* One JSON object per line: name, request id, bounds in ns relative to
   the first span, parent index and self time. *)
let write t selfs path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = if t.n > 0 then t.start.(0) else 0 in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"rid\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"self_ns\":%d}\n"
          i t.labels.(t.name.(i)) t.rid.(i) (t.start.(i) - t0) (t.stop.(i) - t0)
          t.parent.(i) selfs.(i)
      done)
