(* Summary statistics for the benchmark: medians and quartiles of
   repeated runs, tail percentiles of latency samples, and the
   regression test against a bound. Pure functions, unit-tested in
   test_stats.ml. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted_array xs with
  | [||] -> invalid_arg "Stats.median: no values"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The first and third quartiles exactly as Python's
   [statistics.quantiles xs ~n:4] (the default "exclusive" method)
   computes them, so numbers here match any script that checks the
   benchmark's spread. A single value is its own quartiles. *)
let quartiles xs =
  match sorted_array xs with
  | [||] -> invalid_arg "Stats.quartiles: no values"
  | [| x |] -> (x, x)
  | a ->
    let len = Array.length a in
    let m = len + 1 in
    let cut i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 3)

(* Nearest-rank percentile of integer samples. *)
let percentile samples p =
  match sorted_array (List.map float_of_int samples) with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The highest of the usual tail percentiles that still has at least
   ten samples beyond it: p99.9 needs 10,000 samples, p99 1,000, p90
   100; below that only the median is supported. *)
let tail_percentile n =
  let supported p = float_of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9 in
  match List.find_opt supported [ 99.99; 99.9; 99.; 90. ] with Some p -> p | None -> 50.

type better = Lower | Higher

(* Does [value] read worse than [base] by more than [bound], a share of
   [base]? A zero base admits no worsening at all. *)
let regressed ~better ~bound ~base ~value =
  match better with
  | Lower -> value > base +. (bound *. Float.abs base)
  | Higher -> value < base -. (bound *. Float.abs base)
