(* Seeded inputs and their expected outputs.  Inputs come from the
   repository's two corpora — the Schryer reconstruction and
   uniform-random-bit doubles — sampled by the seed; expected outputs
   are computed in process before any timing, and checked against
   references that do not share the code under test. *)

module Printer = Dragon.Printer
module Render = Dragon.Render

type pipeline = Shortest | Fixed17

let mode = Fp.Rounding.To_nearest_even
let b64 = Fp.Format_spec.binary64

let render_value pipeline value =
  match (pipeline, value) with
  | Shortest, _ ->
    Printer.print_value ~base:10 ~mode ~strategy:Dragon.Scaling.Fast_estimate
      ~notation:Render.Auto b64 value
  | Fixed17, Fp.Value.Zero neg -> Ok (Render.zero ~neg ())
  | Fixed17, Fp.Value.Inf neg -> Ok (Render.infinity ~neg ())
  | Fixed17, Fp.Value.Nan -> Ok Render.nan
  | Fixed17, Fp.Value.Finite v ->
    Result.map
      (Render.fixed ~notation:Render.Auto ~neg:v.Fp.Value.neg ~base:10)
      (Dragon.Fixed_format.convert ~base:10 ~mode b64 v
         (Dragon.Fixed_format.Relative 17))

(* What bdprint's per-line conversion does for a decimal binary64 line
   under its default options: the certified fast reader, then the
   printer. *)
let convert pipeline input =
  match Reader.Fast.read input with
  | Error _ as e -> e
  | Ok x -> render_value pipeline (Fp.Ieee.decompose x)

(* The exact bignum reader and the pure-Nat digit loop with the
   table-driven fast path off: the differential anchor. *)
let reference pipeline input =
  let pure = Dragon.Generate.force_pure () and fast = Printer.fastpath_enabled () in
  Dragon.Generate.set_force_pure true;
  Printer.set_fastpath_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Dragon.Generate.set_force_pure pure;
      Printer.set_fastpath_enabled fast)
    (fun () ->
      match Reader.read ~mode b64 input with
      | Error _ as e -> e
      | Ok value -> render_value pipeline value)

(* {2 Corpora} *)

(* [n] distinct values of the paper-size Schryer corpus in a seeded
   order (a partial Fisher-Yates shuffle). *)
let schryer ~seed n =
  let all = Workloads.Schryer.corpus () in
  let st = Random.State.make [| seed; 0x5c |] in
  let m = Array.length all in
  let n = min n m in
  for i = 0 to n - 1 do
    let j = i + Random.State.int st (m - i) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  Array.sub all 0 n

let random_bits ~seed n = Workloads.Corpus.random_finite ~seed n

(* Schryer values are written as their shortest strings; random-bit
   values with 17 significant digits, which round-trip but are not
   shortest. *)
let shortest_text x = Printer.print x
let digits17_text x = Printf.sprintf "%.17g" x

(* {2 Expected outputs} *)

type t = {
  values : float array;  (** the generated doubles *)
  lines : string array;  (** their input text, one per line *)
  expected : string array;  (** the output each line must produce *)
  bytes : int;  (** input size with newlines *)
}

exception Bad_input of string

let make pipeline ~text values =
  let lines = Array.map text values in
  let expected =
    Array.map
      (fun l ->
        match convert pipeline l with
        | Ok s -> s
        | Error e -> raise (Bad_input (l ^ ": " ^ Robust.Error.to_string e)))
      lines
  in
  let bytes = Array.fold_left (fun acc l -> acc + String.length l + 1) 0 lines in
  { values; lines; expected; bytes }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Checks the expectations without trusting the code that made them:
   - every input and every expected output reads back, through libc's
     strtod, to the generated double (fixed outputs only when they carry
     no '#' mark);
   - a deterministic sample of [samples] lines matches the pure-Nat
     reference byte for byte.
   Returns the number of failed checks. *)
let audit pipeline ~samples t =
  let n = Array.length t.lines in
  let bad = ref 0 in
  for i = 0 to n - 1 do
    let x = t.values.(i) in
    let reads_back s =
      match float_of_string_opt s with Some y -> same_bits x y | None -> false
    in
    if not (reads_back t.lines.(i)) then incr bad;
    let out = t.expected.(i) in
    let checkable = pipeline = Shortest || not (String.contains out '#') in
    if checkable && not (reads_back out) then incr bad
  done;
  let step = max 1 (n / max 1 samples) in
  let i = ref 0 in
  while !i < n do
    (match reference pipeline t.lines.(!i) with
    | Ok s when s = t.expected.(!i) -> ()
    | _ -> incr bad);
    i := !i + step
  done;
  !bad

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)
