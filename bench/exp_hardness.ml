(* Theorem 2.1: best response is NP-hard (k-center / k-median).

   Two empirical legs:
   1. the reduction is exact — the new player's best response solves
      k-center (MAX) / k-median (SUM) on random connected graphs,
      cross-validated against the standalone exact solvers;
   2. the exact best-response solver scales exponentially in the budget
      (wall-clock doubling table), while the polynomial heuristics
      (Gonzalez / local search / swap) stay cheap. *)

open Bbng_core
open Bbng_solvers
open Exp_common
module Table = Bbng_analysis.Table
module Generators = Bbng_graph.Generators

let reduction_equivalence () =
  subsection "E2.1a — reduction exactness on random connected graphs";
  let t =
    Table.make
      ~headers:
        [ "n"; "k"; "seed"; "k-center"; "via game"; "agree";
          "k-median"; "via game"; "agree" ]
  in
  List.iter
    (fun (n, k, seed) ->
      let g = Generators.random_connected_gnp (rng seed) ~n ~p:0.3 in
      let kc = (K_center.exact g ~k).K_center.radius in
      let kc_game = (Reduction.solve_center_via_game g ~k).K_center.radius in
      let km = (K_median.exact g ~k).K_median.cost in
      let km_game = (Reduction.solve_median_via_game g ~k).K_median.cost in
      Table.add_row t
        [ string_of_int n; string_of_int k; string_of_int seed;
          string_of_int kc; string_of_int kc_game; verdict_cell (kc = kc_game);
          string_of_int km; string_of_int km_game; verdict_cell (km = km_game) ])
    [ (8, 2, 1); (8, 3, 2); (10, 2, 3); (10, 3, 4); (12, 2, 5); (12, 3, 6); (14, 2, 7) ];
  Table.print t

let exponential_scaling () =
  subsection "E2.1b — exact best response scales exponentially in the budget";
  let t =
    Table.make
      ~headers:
        [ "n"; "budget"; "strategies"; "exhaustive (s)"; "pruned exact (s)";
          "greedy (s)"; "swap (s)" ]
  in
  List.iter
    (fun (n, b) ->
      let g = Generators.random_connected_gnp (rng (100 + n)) ~n ~p:0.15 in
      let inst = Reduction.of_median_instance g ~k:b in
      let count = Bbng_graph.Combinatorics.binomial_sat n b in
      (* the honest exponential: evaluate every one of the C(n, b)
         strategies of the new player (it is the last index, so subsets
         of 0..n-1 are directly valid target sets) *)
      let _, exhaustive_t =
        time_it (fun () ->
            let best = ref max_int in
            Bbng_graph.Combinatorics.iter_combinations ~n ~k:b (fun c ->
                let cost = Reduction.strategy_cost inst c in
                if cost < !best then best := cost);
            !best)
      in
      (* the production solver may stop early at the Lemma 2.2 floor *)
      let _, exact_t = time_it (fun () -> Reduction.best_response inst) in
      let _, greedy_t =
        time_it (fun () ->
            Best_response.greedy inst.Reduction.game inst.Reduction.profile
              inst.Reduction.new_player)
      in
      let _, swap_t =
        time_it (fun () ->
            Best_response.swap_best_refutation inst.Reduction.game inst.Reduction.profile
              inst.Reduction.new_player)
      in
      Table.add_row t
        [ string_of_int (n + 1); string_of_int b; string_of_int count;
          Printf.sprintf "%.4f" exhaustive_t; Printf.sprintf "%.4f" exact_t;
          Printf.sprintf "%.4f" greedy_t; Printf.sprintf "%.4f" swap_t ])
    [ (12, 3); (14, 4); (16, 5); (18, 6); (20, 7); (22, 8) ];
  Table.print t;
  note
    "the exhaustive column tracks C(n-1, b); pruning (Lemma 2.2 floor) sometimes escapes it, heuristics stay flat"

let heuristic_quality () =
  subsection "E2.1c — heuristic quality vs exact (connected G(n, p))";
  let t =
    Table.make
      ~headers:[ "n"; "k"; "opt radius"; "gonzalez"; "opt median"; "local search" ]
  in
  List.iter
    (fun (n, k, seed) ->
      let g = Generators.random_connected_gnp (rng seed) ~n ~p:0.25 in
      let kc = (K_center.exact g ~k).K_center.radius in
      let gz = (K_center.gonzalez g ~k).K_center.radius in
      let km = (K_median.exact g ~k).K_median.cost in
      let ls = (K_median.local_search g ~k).K_median.cost in
      Table.add_row t
        [ string_of_int n; string_of_int k; string_of_int kc; string_of_int gz;
          string_of_int km; string_of_int ls ])
    [ (10, 2, 11); (12, 2, 12); (14, 3, 13); (16, 3, 14) ];
  Table.print t

let run () =
  section "THEOREM 2.1 — NP-hardness of best response";
  reduction_equivalence ();
  exponential_scaling ();
  heuristic_quality ()
