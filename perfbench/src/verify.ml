(* Output verification.  A stream is compared line by line, by
   position, against outputs computed before timing: a wrong, reordered
   or dropped line fails at its position and every line past the end of
   either side counts as missing or extra. *)

type t = {
  expected : int;
  matched : int;
  wrong : int;  (** lines present but different from the expected bytes *)
  missing : int;  (** expected lines the stream never produced *)
  extra : int;  (** lines beyond the expected count *)
}

let failures v = v.wrong + v.missing + v.extra

(* [stream ~expected out] checks [out], the complete standard output of
   one run, against [expected.(0)], [expected.(1)], ...  Every line must
   end with a newline; an unterminated tail counts as a wrong line. *)
let stream ~expected out =
  let n = Array.length expected in
  let len = String.length out in
  let rec go pos i matched wrong extra =
    if pos >= len then (i, matched, wrong, extra)
    else
      let stop, next =
        match String.index_from_opt out pos '\n' with
        | Some j -> (j, j + 1)
        | None -> (len, len)
      in
      let terminated = stop < len in
      if i >= n then go next (i + 1) matched wrong (extra + 1)
      else
        let e = expected.(i) in
        let ok =
          terminated
          && stop - pos = String.length e
          && String.sub out pos (stop - pos) = e
        in
        if ok then go next (i + 1) (matched + 1) wrong extra
        else go next (i + 1) matched (wrong + 1) extra
  in
  let lines, matched, wrong, extra = go 0 0 0 0 0 in
  let produced = min lines n in
  { expected = n; matched; wrong; missing = n - produced; extra }

let pp ppf v =
  Format.fprintf ppf "%d/%d matched, %d wrong, %d missing, %d extra" v.matched
    v.expected v.wrong v.missing v.extra
