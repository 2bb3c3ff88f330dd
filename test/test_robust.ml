(* Robust trend statistics (Bbng_analysis.Robust): the median/MAD gate
   behind `bench --trend` and `bbng_cli runs diff`.  The properties
   that matter: a steady history passes, a 2x slowdown is flagged,
   improvements are typed as such, a MAD-0 history falls back to the
   percentage threshold instead of flagging every 1ns wiggle, and the
   absolute floor silences sub-100ns timings — and only timings: it is
   keyed by the metric name's suffix. *)

open Helpers
module Robust = Bbng_analysis.Robust

let check_float = Alcotest.(check (float 1e-9))

let check_trend name expected got =
  let pp = function
    | Some Robust.Regressed -> "Regressed"
    | Some Robust.Improved -> "Improved"
    | Some Robust.Steady -> "Steady"
    | None -> "None"
  in
  Alcotest.(check string) name (pp expected) (pp got)

let test_median () =
  Alcotest.(check (option (float 1e-9))) "empty" None (Robust.median []);
  check_float "singleton" 42. (Option.get (Robust.median [ 42. ]));
  check_float "odd" 3. (Option.get (Robust.median [ 5.; 1.; 3. ]));
  check_float "even takes the middle pair's mean" 2.5
    (Option.get (Robust.median [ 4.; 1.; 2.; 3. ]));
  check_float "outlier-insensitive" 3.
    (Option.get (Robust.median [ 1e9; 3.; 2.; 3.; 4. ]))

let test_mad () =
  Alcotest.(check (option (float 1e-9))) "empty" None (Robust.mad []);
  check_float "identical values have zero spread" 0.
    (Option.get (Robust.mad [ 7.; 7.; 7. ]));
  (* median 3, |deviations| = [2;1;0;1;2] -> mad 1 *)
  check_float "symmetric spread" 1.
    (Option.get (Robust.mad [ 1.; 2.; 3.; 4.; 5. ]))

let ns = "bench.bbng/x.ns_per_run"
let words = "bench.bbng/x.minor_words_per_run"
let steady_history = [ 1000.; 1010.; 990.; 1005.; 995. ]

let test_classify_steady () =
  check_trend "unchanged re-run passes" (Some Robust.Steady)
    (Robust.classify ~metric:ns ~history:steady_history 1002.)

let test_classify_regression () =
  check_trend "2x slowdown flagged" (Some Robust.Regressed)
    (Robust.classify ~metric:ns ~history:steady_history 2000.);
  check_trend "2x speedup typed as improvement" (Some Robust.Improved)
    (Robust.classify ~metric:ns ~history:steady_history 500.)

let test_classify_empty_and_singleton () =
  check_trend "empty history cannot classify" None
    (Robust.classify ~metric:ns ~history:[] 100.);
  check_trend "singleton history classifies against itself"
    (Some Robust.Steady)
    (Robust.classify ~metric:ns ~history:[ 1000. ] 1001.)

let test_mad_zero_fallback () =
  (* identical history: MAD 0 would flag any wiggle without the
     percentage fallback *)
  let flat = [ 1000.; 1000.; 1000. ] in
  check_trend "small wiggle absorbed by the pct threshold"
    (Some Robust.Steady)
    (Robust.classify ~threshold_pct:25. ~metric:ns ~history:flat 1100.);
  check_trend "past the pct threshold still flags" (Some Robust.Regressed)
    (Robust.classify ~threshold_pct:25. ~metric:ns ~history:flat 1300.)

let test_floor_silences_noise () =
  let tiny = [ 10.; 12.; 9. ] in
  check_trend "sub-floor swing ignored" (Some Robust.Steady)
    (Robust.classify ~metric:ns ~history:tiny 60.);
  check_trend "without the floor the same swing flags"
    (Some Robust.Regressed)
    (Robust.classify ~metric:words ~history:tiny 60.)

(* the floor follows the name's suffix, not a substring: "census"
   contains "ns", and a census count must still gate at 25% *)
let test_floor_by_suffix () =
  check_float "ns_per_run timings get the floor" 100. (Robust.floor ~metric:ns);
  check_float "exact word counts get none" 0. (Robust.floor ~metric:words);
  check_float "census metrics get none" 0.
    (Robust.floor ~metric:"census.equilibria");
  check_float "a bare ns ending is not a timing suffix" 0.
    (Robust.floor ~metric:"spans");
  let doubled metric = Robust.classify ~metric ~history:[ 40. ] 90. in
  check_trend "census.equilibria 40 -> 90 regresses" (Some Robust.Regressed)
    (doubled "census.equilibria");
  check_trend "dynamics.steps 40 -> 90 regresses" (Some Robust.Regressed)
    (doubled "dynamics.steps");
  check_trend "a sub-100ns timing swing stays steady" (Some Robust.Steady)
    (doubled ns)

let test_sigma_score () =
  Alcotest.(check (option (float 1e-6)))
    "zero-MAD history has no score" None
    (Robust.sigma_score ~history:[ 5.; 5. ] 6.);
  let z = Option.get (Robust.sigma_score ~history:steady_history 2000.) in
  check_true "a 2x slowdown scores far out" (z > 10.)

let suite =
  [
    case "median" test_median;
    case "mad" test_mad;
    case "steady history passes" test_classify_steady;
    case "2x slowdown flagged, speedup typed" test_classify_regression;
    case "empty and singleton histories" test_classify_empty_and_singleton;
    case "MAD-0 falls back to pct threshold" test_mad_zero_fallback;
    case "absolute floor silences noise benches" test_floor_silences_noise;
    case "floor is keyed by the ns_per_run suffix" test_floor_by_suffix;
    case "sigma score" test_sigma_score;
  ]
