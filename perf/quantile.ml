(* Order statistics for benchmark samples.

   [median] and [quartiles] follow Python's [statistics.median] and
   [statistics.quantiles(data, n=4)] (the default "exclusive" method)
   exactly, so the spreads this benchmark reports are the ones an outside
   checker computes from the same values.  Request-latency percentiles
   use nearest rank, and a percentile is reportable only when at least
   [min_beyond] samples lie beyond it. *)

let min_beyond = 10

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* statistics.quantiles(data, n=4, method='exclusive'): with m = n + 1,
   cut point i sits at position i*m/4 (1-based), clamped to [1, n-1] and
   linearly interpolated. *)
let quartiles a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.quartiles: no samples";
  let s = sorted a in
  if n = 1 then (s.(0), s.(0), s.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* Interquartile range as a share of the median. *)
let spread a =
  let q1, _, q3 = quartiles a in
  let m = median a in
  if m = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs m

(* Nearest-rank percentile: the smallest sample with at least p% of the
   samples at or below it. *)
let nearest_rank p a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.nearest_rank: no samples";
  let s = sorted a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly beyond the nearest-rank p-th percentile's position. *)
let beyond p n = n - int_of_float (Float.ceil (p *. float_of_int n /. 100.0))

let reportable p n = beyond p n >= min_beyond

(* The highest of [ps] that is reportable for these samples, with its
   value. *)
let tail ps a =
  List.find_map
    (fun p -> if reportable p (Array.length a) then Some (p, nearest_rank p a) else None)
    (List.sort (fun x y -> Float.compare y x) ps)
