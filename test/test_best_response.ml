open Helpers
open Bbng_core

(* A small asymmetric fixture: 0 owns two arcs, on a path-ish start. *)
let fixture () =
  let b = Budget.of_list [ 2; 1; 0; 0; 0 ] in
  (* 0 -> {1, 2}, 1 -> 3; vertex 4 isolated *)
  let p = Strategy.make b [| [| 1; 2 |]; [| 3 |]; [||]; [||]; [||] |] in
  (b, p)

let test_exact_connects () =
  (* With the player's arcs removed the rest is {1,3}, {2}, {4}; budget 2
     joins the big component plus one singleton, leaving exactly one
     vertex at Cinf = 25.  All such choices cost 1 + 1 + 2 + 25 = 29 and
     the lexicographically smallest is {1, 2}. *)
  let _, p = fixture () in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  let m = Best_response.exact game p 0 in
  check_int "cost" 29 m.Best_response.cost;
  check_int_array "tie-break" [| 1; 2 |] m.Best_response.targets

let test_exact_is_minimum () =
  (* brute-force double check on a tiny game *)
  let _, p = fixture () in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      let m = Best_response.exact game p 0 in
      (* every alternative strategy costs at least m.cost *)
      let n = 5 in
      Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:2 (fun c ->
          (* unshift around player 0: indices 0..3 map to 1..4 *)
          let targets = Array.map (fun i -> i + 1) c in
          let cost = Game.deviation_cost game p ~player:0 ~targets in
          check_true "minimum" (m.Best_response.cost <= cost)))
    Cost.all_versions

let test_exact_zero_budget () =
  let _, p = fixture () in
  let game = Game.make Cost.Max (Strategy.budgets p) in
  let m = Best_response.exact game p 2 in
  check_int_array "empty strategy" [||] m.Best_response.targets

let test_lemma_2_2 () =
  (* hub of an out-star has local diameter 1 *)
  let p = Strategy.of_digraph (Bbng_graph.Generators.out_star 5) in
  check_true "hub" (Best_response.satisfies_lemma_2_2 p 0);
  check_true "leaf at distance 2, no brace" (Best_response.satisfies_lemma_2_2 p 1);
  (* braced pair with a third vertex: the lemma does not apply to a
     braced vertex with local diameter 2 (vertex 1 here; vertex 0 has
     local diameter 1, so it still qualifies) *)
  let b = Budget.of_list [ 1; 1; 1 ] in
  let braced = Strategy.make b [| [| 1 |]; [| 0 |]; [| 0 |] |] in
  check_true "braced but adjacent to all" (Best_response.satisfies_lemma_2_2 braced 0);
  check_false "braced at distance 2" (Best_response.satisfies_lemma_2_2 braced 1)

let test_exact_refutation_none_at_equilibrium () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:6 in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      for player = 0 to 5 do
        check_true
          (Printf.sprintf "%s player %d" (Cost.version_name version) player)
          (Best_response.exact_refutation game p player = None)
      done)
    Cost.all_versions

let test_exact_refutation_found () =
  (* directed path: the first vertex would rather link to the middle in MAX *)
  let p = Strategy.of_digraph (Bbng_graph.Generators.directed_path 7) in
  let game = Game.make Cost.Max (Strategy.budgets p) in
  match Best_response.exact_refutation game p 0 with
  | Some (m, _) ->
      check_true "strictly better"
        (m.Best_response.cost < Game.player_cost game p 0)
  | None -> Alcotest.fail "expected an improvement"

let test_swap_equals_exact_for_unit_budget () =
  (* with budget 1, a swap IS a full strategy change *)
  let st = rng 11 in
  for _ = 1 to 20 do
    let p = Strategy.random st (Budget.unit_budgets 6) in
    let game = Game.make Cost.Sum (Budget.unit_budgets 6) in
    for player = 0 to 5 do
      let swap = Option.map fst (Best_response.swap_best_refutation game p player) in
      let full = Best_response.best_improvement game p player in
      match (swap, full) with
      | None, None -> ()
      | Some a, Some b ->
          check_int "same cost" b.Best_response.cost a.Best_response.cost
      | Some _, None -> Alcotest.fail "swap found, exact missed"
      | None, Some _ -> Alcotest.fail "exact found, swap missed"
    done
  done

let test_swap_refutation_improves () =
  let p = Strategy.of_digraph (Bbng_graph.Generators.directed_path 8) in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  match Best_response.swap_refutation game p 0 with
  | Some (m, _) -> check_true "improves" (m.Best_response.cost < Game.player_cost game p 0)
  | None -> Alcotest.fail "expected a swap improvement"

let test_greedy_respects_budget () =
  let b = Budget.of_list [ 3; 0; 0; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2; 3 |]; [||]; [||]; [||]; [||]; [||] |] in
  let game = Game.make Cost.Sum b in
  let m = Best_response.greedy game p 0 in
  check_int "budget respected" 3 (Array.length m.Best_response.targets);
  (* greedy on SUM from a star-owner: must reach everyone, its result is optimal here *)
  let exact = Best_response.exact game p 0 in
  check_int "greedy optimal on star" exact.Best_response.cost m.Best_response.cost

let test_audits_record_the_budgets_engine () =
  (* the player's budget picks the pricing engine — rows for b >= 2,
     the overlay BFS otherwise — and every audit records it, with the
     size of the candidate space it scanned.  Engine agreement is
     pinned in test_deviation_eval (rows == overlay == generic). *)
  let _, p = fixture () in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      List.iter
        (fun (player, engine) ->
          let name = Printf.sprintf "player %d" player in
          check_true (name ^ ": exact audit engine")
            ((Best_response.audit_exact game p player).Best_response.engine
            = engine);
          check_true (name ^ ": swap audit engine")
            ((Best_response.audit_swap game p player).Best_response.engine
            = engine))
        [ (0, Deviation_eval.Rows); (1, Deviation_eval.Bfs_overlay);
          (2, Deviation_eval.Bfs_overlay) ];
      (* fixture: n = 5, b = 2, no pruning fires for player 0 *)
      check_true "exhaustive candidate count"
        ((Best_response.audit_exact game p 0).Best_response.candidates
        = Bbng_graph.Combinatorics.Exact 6);
      check_true "swap candidate count"
        ((Best_response.audit_swap game p 0).Best_response.candidates
        = Bbng_graph.Combinatorics.Exact 4))
    Cost.all_versions

let prop_swap_never_beats_exact =
  qcheck "exact best <= best swap" (random_budget_gen ~n_min:2 ~n_max:6)
    (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let game = Game.make Cost.Max (Strategy.budgets p) in
      let player = seed mod n in
      let exact = Best_response.exact game p player in
      match Best_response.swap_best_refutation game p player with
      | None -> exact.Best_response.cost <= Game.player_cost game p player
      | Some (swap, _) -> exact.Best_response.cost <= swap.Best_response.cost)

let prop_exact_at_most_current =
  qcheck "exact best response never worse than current"
    (random_budget_gen ~n_min:2 ~n_max:6) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          let player = seed mod n in
          (Best_response.exact game p player).Best_response.cost
          <= Game.player_cost game p player)
        Cost.all_versions)

let prop_greedy_never_beats_exact =
  qcheck "greedy >= exact" (random_budget_gen ~n_min:2 ~n_max:6)
    (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let game = Game.make Cost.Sum (Strategy.budgets p) in
      let player = seed mod n in
      (Best_response.greedy game p player).Best_response.cost
      >= (Best_response.exact game p player).Best_response.cost)

(* --- test-only reference scans: every candidate priced through the
   generic route, in the scans' documented order, with no bound and no
   shared context --- *)

let ref_exact_candidates n player b =
  let acc = ref [] in
  Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
      acc := Array.map (fun i -> if i < player then i else i + 1) c :: !acc);
  List.rev !acc

(* drop each owned arc in turn, replacements increasing *)
let ref_swap_candidates n player owned =
  List.concat
    (List.init (Array.length owned) (fun drop ->
         List.filter_map
           (fun v ->
             if v = player || Array.mem v owned then None
             else begin
               let t = Array.copy owned in
               t.(drop) <- v;
               Array.sort compare t;
               Some t
             end)
           (List.init n Fun.id)))

let priced game p player candidates =
  List.map
    (fun targets ->
      { Best_response.targets; cost = Game.deviation_cost game p ~player ~targets })
    candidates

(* the first candidate of least cost *)
let ref_first_min = function
  | [] -> None
  | m :: rest ->
      Some
        (List.fold_left
           (fun (b : Best_response.move) (m : Best_response.move) ->
             if m.cost < b.cost then m else b)
           m rest)

(* What an audit of [moves] reports when at most [limit] of them get
   priced: the cheapest seen and the first strict improvement, where
   the scan stops; [Degraded_scan] when the limit cut it short. *)
let ref_audit ~tier ~engine ~candidates ~current ~limit moves =
  let rec go scanned best = function
    | [] -> (tier, scanned, best, None)
    | _ when scanned = limit -> (Best_response.Degraded_scan, scanned, best, None)
    | (m : Best_response.move) :: rest ->
        let best =
          match best with
          | Some (b : Best_response.move) when b.cost <= m.cost -> best
          | _ -> Some m
        in
        if m.cost < current then (tier, scanned + 1, best, Some m)
        else go (scanned + 1) best rest
  in
  let tier, scanned, best, improving = go 0 None moves in
  { Best_response.tier; engine; scanned; candidates; current; best; improving }

let pruned_ref ~tier ~engine ~current =
  {
    Best_response.tier;
    engine;
    scanned = 0;
    candidates = Bbng_graph.Combinatorics.Exact 0;
    current;
    best = None;
    improving = None;
  }

let cost_floor_of game p player =
  let n = Strategy.n p in
  let in_degree = ref 0 in
  for i = 0 to n - 1 do
    if i <> player && Array.mem player (Strategy.strategy p i) then incr in_degree
  done;
  Cost.cost_floor (Game.version game) ~n
    ~budget:(Budget.get (Strategy.budgets p) player)
    ~in_degree:!in_degree

(* Where a walk over [moves] stops, by the search's thresholds: each
   candidate is kept when strictly cheaper than [cap] and than every
   earlier kept one, and the walk ends once a kept cost is below
   [stop].  The kept move, the candidates priced and the improving keeps
   (cheaper than [current]). *)
let ref_walk ~cap ~stop ~current moves =
  let rec go scanned kept improving = function
    | [] -> ((kept : Best_response.move option), scanned, improving)
    | (m : Best_response.move) :: rest -> (
        let bound =
          match kept with Some (k : Best_response.move) -> min cap k.cost | None -> cap
        in
        let kept, improving =
          if m.cost < bound then
            (Some m, if m.cost < current then improving + 1 else improving)
          else (kept, improving)
        in
        match kept with
        | Some k when k.cost < stop -> (kept, scanned + 1, improving)
        | _ -> go (scanned + 1) kept improving rest)
  in
  go 0 None 0 moves

(* a search's answer with its br.candidates and br.improving_moves
   deltas *)
let counted f =
  let candidates () = Bbng_obs.Counter.find "br.candidates"
  and improving () = Bbng_obs.Counter.find "br.improving_moves" in
  let c0 = candidates () and i0 = improving () in
  let r = f () in
  (r, candidates () - c0, improving () - i0)

let prop_scans_match_reference =
  (* every bounded scan answers exactly as the unbounded reference, field
     for field: the audits (unlimited, and cut short by a random work
     limit at whatever candidate it stops), the best response, both
     exact refutations and both swap refutations; and every search's
     counter deltas are those of the reference walk stopped where the
     search's thresholds stop it *)
  let module Budgeted = Bbng_obs.Budgeted in
  qcheck ~count:150 "bounded scans == unbounded reference scans"
    (random_budget_gen ~n_min:2 ~n_max:10) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 41) in
      let player = Random.State.int st n in
      let owned = Strategy.strategy p player in
      let b = Array.length owned in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          (* the budget rule; random budgets draw both sides of it *)
          let engine =
            if b >= 2 then Deviation_eval.Rows else Deviation_eval.Bfs_overlay
          in
          let current = Game.player_cost game p player in
          let floor = cost_floor_of game p player in
          let exact_moves = priced game p player (ref_exact_candidates n player b) in
          let swap_moves = priced game p player (ref_swap_candidates n player owned) in
          let expect_exact ~limit =
            if current <= floor then
              pruned_ref ~tier:Best_response.Cost_floor ~engine ~current
            else if Best_response.satisfies_lemma_2_2 p player then
              pruned_ref ~tier:Best_response.Lemma_2_2_tier ~engine ~current
            else
              ref_audit ~tier:Best_response.Exhaustive ~engine
                ~candidates:(Bbng_graph.Combinatorics.binomial (n - 1) b)
                ~current ~limit exact_moves
          in
          let expect_swap ~limit =
            if current <= floor then
              pruned_ref ~tier:Best_response.Cost_floor ~engine ~current
            else
              ref_audit ~tier:Best_response.Swap_exhaustive ~engine
                ~candidates:(Bbng_graph.Combinatorics.Exact (b * (n - 1 - b)))
                ~current ~limit swap_moves
          in
          (* an audit's deltas: its scanned count, and one improving keep
             iff it refutes *)
          let audited audit expect =
            let a, d_cand, d_impr = counted audit in
            let e = expect a in
            a = e
            && d_cand = e.Best_response.scanned
            && d_impr = if e.Best_response.improving = None then 0 else 1
          in
          let limited audit expect =
            let budget = Budgeted.create ~work_limit:(Random.State.int st (4 * n * n)) () in
            audited
              (fun () -> audit budget)
              (fun a ->
                expect
                  ~limit:
                    (if a.Best_response.tier = Best_response.Degraded_scan then
                       a.Best_response.scanned
                     else max_int))
          in
          let first_below moves =
            List.find_opt (fun (m : Best_response.move) -> m.cost < current) moves
          in
          let cheapest_below moves =
            match ref_first_min moves with
            | Some (m : Best_response.move) when m.cost < current -> Some m
            | _ -> None
          in
          (* a plain search: its answer, and its deltas against the
             reference walk ([pruned]: the ladder settles it unscanned) *)
          let searched search ~pruned ~cap ~stop moves expect =
            let r, d_cand, d_impr = counted search in
            let scanned, improving =
              if pruned then (0, 0)
              else
                let _, scanned, improving = ref_walk ~cap ~stop ~current moves in
                (scanned, improving)
            in
            r = expect && d_cand = scanned && d_impr = improving
          in
          let refutation = Option.map (fun m -> (m, current)) in
          let exact_pruned =
            current <= floor || Best_response.satisfies_lemma_2_2 p player
          and swap_pruned = current <= floor in
          audited
            (fun () -> Best_response.audit_exact game p player)
            (fun _ -> expect_exact ~limit:max_int)
          && audited
               (fun () -> Best_response.audit_swap game p player)
               (fun _ -> expect_swap ~limit:max_int)
          && limited
               (fun budget -> Best_response.audit_exact ~budget game p player)
               expect_exact
          && limited
               (fun budget -> Best_response.audit_swap ~budget game p player)
               expect_swap
          && searched
               (fun () -> Some (Best_response.exact game p player))
               ~pruned:false ~cap:max_int ~stop:(floor + 1) exact_moves
               (ref_first_min exact_moves)
          && searched
               (fun () -> Best_response.best_refutation game p player)
               ~pruned:exact_pruned ~cap:current ~stop:(floor + 1) exact_moves
               (refutation (cheapest_below exact_moves))
          && searched
               (fun () -> Best_response.exact_refutation game p player)
               ~pruned:exact_pruned ~cap:current ~stop:current exact_moves
               (refutation (first_below exact_moves))
          && searched
               (fun () -> Best_response.swap_best_refutation game p player)
               ~pruned:swap_pruned ~cap:current ~stop:min_int swap_moves
               (refutation (cheapest_below swap_moves))
          && searched
               (fun () -> Best_response.swap_refutation game p player)
               ~pruned:swap_pruned ~cap:current ~stop:current swap_moves
               (refutation (first_below swap_moves)))
        Cost.all_versions)

let test_candidates_counter_counts_priced () =
  (* br.candidates counts candidates that were priced: on a work-limited
     certification the evidence's scanned total equals the counter's
     delta, although every degraded player's scan ends on a candidate
     the token refused *)
  let p = Bbng_constructions.Binary_tree.profile ~depth:5 in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  List.iter
    (fun work_limit ->
      let budget = Bbng_obs.Budgeted.create ~work_limit () in
      let before = Bbng_obs.Counter.find "br.candidates" in
      let cert = Equilibrium.certify_cert ~budget game p in
      let moved = Bbng_obs.Counter.find "br.candidates" - before in
      let scanned =
        List.fold_left
          (fun acc (_, (a : Best_response.audit)) -> acc + a.Best_response.scanned)
          0 cert.Equilibrium.cert_evidence
      in
      check_true
        (Printf.sprintf "work limit %d degrades the certificate" work_limit)
        (match Equilibrium.certificate_verdict cert with
        | Equilibrium.Degraded _ -> true
        | _ -> false);
      check_int (Printf.sprintf "work limit %d: scanned = br.candidates delta" work_limit)
        scanned moved)
    [ 100_000; 1_000_000 ]

let suite =
  [
    case "exact absorbs isolated vertices" test_exact_connects;
    case "exact is the minimum" test_exact_is_minimum;
    case "exact with zero budget" test_exact_zero_budget;
    case "lemma 2.2 shortcut" test_lemma_2_2;
    case "no improvement at equilibrium" test_exact_refutation_none_at_equilibrium;
    case "improvement found off equilibrium" test_exact_refutation_found;
    case "swap = exact for unit budgets" test_swap_equals_exact_for_unit_budget;
    case "first improving swap" test_swap_refutation_improves;
    case "greedy respects budget" test_greedy_respects_budget;
    case "audits record the budget's engine" test_audits_record_the_budgets_engine;
    prop_swap_never_beats_exact;
    prop_exact_at_most_current;
    prop_greedy_never_beats_exact;
    prop_scans_match_reference;
    case "br.candidates counts priced candidates"
      test_candidates_counter_counts_priced;
  ]
