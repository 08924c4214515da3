let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd count" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single" 7. (Stats.median [ 7. ])

(* reference values from Python: statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let pair = Alcotest.(pair close close) in
  Alcotest.check pair "1..10" (2.75, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check pair "unsorted five" (1.5, 4.5) (Stats.quartiles [ 5.; 3.; 1.; 4.; 2. ]);
  Alcotest.check pair "two values extrapolate" (0.75, 2.25) (Stats.quartiles [ 2.; 1. ]);
  Alcotest.check pair "single" (4., 4.) (Stats.quartiles [ 4. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> i + 1) in
  Alcotest.check close "p50 nearest rank" 50. (Stats.percentile xs 50.);
  Alcotest.check close "p99 nearest rank" 99. (Stats.percentile xs 99.);
  Alcotest.check close "empty" 0. (Stats.percentile [] 99.)

let test_tail_rule () =
  let check n p =
    Alcotest.check close (Printf.sprintf "%d samples" n) p (Stats.tail_percentile n)
  in
  check 50 50.;
  check 100 90.;
  check 999 90.;
  check 1_000 99.;
  check 1_500 99.;
  check 10_000 99.9;
  check 50_000 99.9;
  check 100_000 99.99

let test_bound () =
  let lower = Stats.regressed ~better:Stats.Lower ~bound:0.1 ~base:100. in
  let higher = Stats.regressed ~better:Stats.Higher ~bound:0.1 ~base:100. in
  Alcotest.(check bool) "lower: within bound" false (lower ~value:110.);
  Alcotest.(check bool) "lower: beyond bound" true (lower ~value:110.5);
  Alcotest.(check bool) "lower: improvement" false (lower ~value:50.);
  Alcotest.(check bool) "higher: within bound" false (higher ~value:90.);
  Alcotest.(check bool) "higher: beyond bound" true (higher ~value:89.5);
  Alcotest.(check bool) "zero base, zero bound" true
    (Stats.regressed ~better:Stats.Lower ~bound:0. ~base:0. ~value:1.)

let () =
  Alcotest.run "rdalbench stats"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "bound" `Quick test_bound;
        ] );
    ]
