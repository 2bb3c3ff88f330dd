open Helpers
open Bbng_core

let test_for_all_true () =
  check_true "all pass" (Parallel.for_all ~domains:3 ~n:100 (fun i -> i >= 0))

let test_for_all_false () =
  check_false "one fails" (Parallel.for_all ~domains:3 ~n:100 (fun i -> i <> 57))

let test_for_all_sequential_fallback () =
  check_true "domains=1" (Parallel.for_all ~domains:1 ~n:10 (fun i -> i < 10));
  check_false "domains=1 failing" (Parallel.for_all ~domains:1 ~n:10 (fun i -> i < 5));
  check_true "n=0 vacuous" (Parallel.for_all ~domains:4 ~n:0 (fun _ -> false))

let test_for_all_covers_every_index () =
  (* each index must be evaluated exactly once when nothing fails *)
  let hits = Array.init 64 (fun _ -> Atomic.make 0) in
  check_true "runs"
    (Parallel.for_all ~domains:4 ~n:64 (fun i ->
         Atomic.incr hits.(i);
         true));
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "index %d hit once" i) 1 (Atomic.get c))
    hits

let test_recommended_positive () =
  check_true "at least one" (Parallel.recommended_domains () >= 1)

(* Early exit abandons remaining work, and the chunks-abandoned counter
   makes that checkable: index 0 is claimed first and fails, so most of
   the indices are never claimed, whatever the scheduling. *)
let test_for_all_abandons_work () =
  let abandoned = Bbng_obs.Counter.make "parallel.chunks_abandoned" in
  let spawned = Bbng_obs.Counter.make "parallel.domains_spawned" in
  let before = Bbng_obs.Counter.get abandoned in
  let spawned_before = Bbng_obs.Counter.get spawned in
  check_false "early failure"
    (Parallel.for_all ~domains:4 ~n:10_000 (fun i -> i <> 0));
  check_int "domains were spawned" (spawned_before + 3) (Bbng_obs.Counter.get spawned);
  check_true "early exit abandoned work"
    (Bbng_obs.Counter.get abandoned > before);
  (* one domain runs the same loop: every index after the failing one
     is never claimed *)
  let before = Bbng_obs.Counter.get abandoned in
  check_false "early failure, one domain"
    (Parallel.for_all ~domains:1 ~n:100 (fun i -> i <> 0));
  check_int "one domain abandons the rest" (before + 99)
    (Bbng_obs.Counter.get abandoned)

(* A raising task stops further claims, and the call returns only once
   every domain is joined: the evaluation count is final when the
   exception arrives, and most indices were never claimed. *)
let test_raise_joins_every_domain () =
  let n = 400 in
  List.iter
    (fun (name, fan_out) ->
      let evaluated = Atomic.make 0 in
      let task i =
        Atomic.incr evaluated;
        Unix.sleepf 0.0005;
        if i = 0 then failwith "task 0"
      in
      (match fan_out task with
      | () -> Alcotest.failf "%s: the task's exception was lost" name
      | exception Failure msg -> check_true (name ^ ": first exception") (msg = "task 0"));
      let at_return = Atomic.get evaluated in
      Unix.sleepf 0.05;
      check_int (name ^ ": no evaluation after return") at_return
        (Atomic.get evaluated);
      check_true (name ^ ": claims stopped") (at_return < n))
    [
      ("map", fun task -> ignore (Parallel.map ~domains:3 ~n task : unit array));
      ( "for_all",
        fun task ->
          ignore
            (Parallel.for_all ~domains:3 ~n (fun i ->
                 task i;
                 true)
              : bool) );
    ]

let test_no_abandonment_without_early_exit () =
  let abandoned = Bbng_obs.Counter.make "parallel.chunks_abandoned" in
  let before = Bbng_obs.Counter.get abandoned in
  check_true "full scan" (Parallel.for_all ~domains:4 ~n:1_000 (fun _ -> true));
  check_int "nothing abandoned" before (Bbng_obs.Counter.get abandoned)

let test_parallel_certification_agrees () =
  (* parallel and sequential certification agree on equilibria and on
     refuted profiles *)
  let eq = Bbng_constructions.Tripod.profile ~k:4 in
  let eq_game = Game.make Cost.Max (Strategy.budgets eq) in
  check_true "equilibrium, parallel" (Equilibrium.is_nash_parallel ~domains:4 eq_game eq);
  check_true "matches sequential" (Equilibrium.is_nash eq_game eq);
  let bad = Strategy.of_digraph (Bbng_graph.Generators.directed_path 8) in
  let bad_game = Game.make Cost.Max (Strategy.budgets bad) in
  check_false "refuted, parallel" (Equilibrium.is_nash_parallel ~domains:4 bad_game bad);
  match
    Equilibrium.certificate_verdict
      (Equilibrium.certify_parallel_cert ~domains:4 bad_game bad)
  with
  | Equilibrium.Equilibrium -> Alcotest.fail "expected refutation"
  | Equilibrium.Refuted r ->
      (* the witness is the sequential certifier's, and it replays *)
      check_true "lowest-index witness"
        (Equilibrium.certify bad_game bad = Equilibrium.Refuted r);
      let replay =
        Game.deviation_cost bad_game bad ~player:r.Equilibrium.player
          ~targets:r.Equilibrium.better.Best_response.targets
      in
      check_int "parallel witness honest" r.Equilibrium.better.Best_response.cost replay;
      check_true "strictly better" (replay < r.Equilibrium.current_cost)
  | Equilibrium.Degraded _ -> Alcotest.fail "unbudgeted certify cannot degrade"

let prop_parallel_matches_sequential =
  qcheck ~count:40 "parallel is_nash == sequential is_nash"
    (random_budget_gen ~n_min:2 ~n_max:7) (fun input ->
      let p = random_profile_of input in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          Equilibrium.is_nash game p = Equilibrium.is_nash_parallel ~domains:3 game p)
        Cost.all_versions)

(* --- map: dynamic claiming, every index once, in its own slot --- *)

let test_map_matches_sequential () =
  let f i = (i * 17) mod 5 in
  let seq = Array.init 40 f in
  List.iter
    (fun domains ->
      check_int_array
        (Printf.sprintf "domains=%d" domains)
        seq
        (Parallel.map ~domains ~n:40 f))
    [ 1; 2; 4 ]

let test_map_each_index_once () =
  (* dynamic claiming evaluates every index exactly once, and each
     lands in its own slot (per-cell writes are single-owner) *)
  let hits = Array.make 60 0 in
  let got =
    Parallel.map ~domains:3 ~n:60 (fun i ->
        hits.(i) <- hits.(i) + 1;
        i)
  in
  check_true "every index exactly once" (Array.for_all (fun c -> c = 1) hits);
  check_int_array "identity in order" (Array.init 60 Fun.id) got

let test_map_empty () =
  check_int "n=0" 0 (Array.length (Parallel.map ~n:0 (fun i -> i)))

let suite =
  [
    case "for_all true" test_for_all_true;
    case "for_all false" test_for_all_false;
    case "sequential fallback" test_for_all_sequential_fallback;
    case "covers every index once" test_for_all_covers_every_index;
    case "recommended domains" test_recommended_positive;
    case "for_all abandons work on early failure" test_for_all_abandons_work;
    case "no abandonment without early exit" test_no_abandonment_without_early_exit;
    slow_case "parallel certification agrees" test_parallel_certification_agrees;
    prop_parallel_matches_sequential;
    case "map_dynamic matches sequential" test_map_matches_sequential;
    case "map_dynamic covers every index once" test_map_each_index_once;
    case "map_dynamic empty" test_map_empty;
    case "a raising task joins every domain" test_raise_joins_every_domain;
  ]
