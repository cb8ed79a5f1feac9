(* Order statistics over samples.  Percentiles use the nearest-rank
   definition: the p-th percentile of n sorted samples is the smallest
   sample with at least p% of the samples at or below it, so it is
   always a measured value, never an interpolation. *)

type pct = {
  value : float;
  samples : int;  (** sample count the percentile was taken over *)
  beyond : int;  (** samples strictly above the percentile's rank *)
}

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let rank n p =
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  max 1 (min n k)

let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p <= 0. || p > 100. then invalid_arg "Stats.percentile: p outside (0, 100]";
  let k = rank n p in
  { value = s.(k - 1); samples = n; beyond = n - k }

let median a = (percentile a 50.).value

let ratio a b = if b = 0. then 0. else a /. b

(* The favourable quartile of repeated measurements: the upper
   quartile of a rate, the lower quartile of a time.  Interference from
   other work on the machine only ever slows a repetition down, so this
   reads an undisturbed repetition as long as a quarter of them ran
   undisturbed. *)
let best ~higher a = (percentile a (if higher then 75. else 25.)).value
