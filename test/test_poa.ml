open Helpers
open Bbng_core

let test_canonical_realization_diameter () =
  List.iter
    (fun budgets ->
      let b = Budget.of_list budgets in
      let p = Poa.canonical_low_diameter_realization b in
      let d = Cost.social_cost (Strategy.underlying p) in
      check_true
        (Printf.sprintf "diameter <= 4 for %s"
           (String.concat "," (List.map string_of_int budgets)))
        (d <= 4))
    [
      [ 1; 1; 1 ];
      [ 0; 1; 1; 1 ];
      [ 0; 0; 0; 3 ];
      [ 0; 0; 1; 2 ];
      [ 2; 2; 2; 2 ];
      [ 0; 0; 0; 0; 3; 2 ];
      [ 1; 1; 1; 1; 1; 1; 1 ];
    ]

let test_canonical_realization_star_case () =
  (* a single max-budget player covering everyone: diameter <= 2 *)
  let b = Budget.of_list [ 0; 0; 0; 3 ] in
  let p = Poa.canonical_low_diameter_realization b in
  check_true "diameter <= 2" (Cost.social_cost (Strategy.underlying p) <= 2)

let test_canonical_subcritical () =
  let b = Budget.of_list [ 0; 0; 1; 0 ] in
  let p = Poa.canonical_low_diameter_realization b in
  check_int "disconnected" (Cost.cinf ~n:4) (Cost.social_cost (Strategy.underlying p))

let test_opt_exact_tiny () =
  (* unit budgets n=3: triangle realizable, diameter 1 *)
  check_true "triangle" (Poa.opt_diameter_exact (Budget.unit_budgets 3) = Some 1);
  (* (1,1,1,1): 4 vertices 4 edges, best diameter is 2 *)
  check_true "n=4 unit" (Poa.opt_diameter_exact (Budget.unit_budgets 4) = Some 2);
  (* tree instance (0,1,1,1): 3 edges on 4 vertices: best is a star, 2 *)
  check_true "tree" (Poa.opt_diameter_exact (Budget.of_list [ 0; 1; 1; 1 ]) = Some 2)

let test_opt_exact_refuses_large () =
  check_true "refuses"
    (Poa.opt_diameter_exact ~max_profiles:10 (Budget.uniform ~n:8 ~budget:3) = None)

let test_opt_bounds () =
  let lo, hi = Poa.opt_diameter_bounds (Budget.of_list [ 0; 1; 1; 1 ]) in
  check_true "lo" (lo = 2);
  check_true "hi sane" (hi >= 2 && hi <= 4);
  let lo, hi = Poa.opt_diameter_bounds (Budget.of_list [ 2; 2; 2 ]) in
  check_int "complete possible: lo 1" 1 lo;
  check_true "hi small" (hi <= 2);
  let lo, hi = Poa.opt_diameter_bounds (Budget.of_list [ 0; 0; 1; 0 ]) in
  check_int "subcritical lo" 16 lo;
  check_int "subcritical hi" 16 hi

let test_opt_bounds_bracket_exact () =
  List.iter
    (fun budgets ->
      let b = Budget.of_list budgets in
      match Poa.opt_diameter_exact b with
      | None -> ()
      | Some opt ->
          let lo, hi = Poa.opt_diameter_bounds b in
          check_true
            (Printf.sprintf "bracket for %s"
               (String.concat "," (List.map string_of_int budgets)))
            (lo <= opt && opt <= hi))
    [ [ 1; 1; 1 ]; [ 0; 1; 1; 1 ]; [ 1; 1; 1; 1 ]; [ 0; 0; 2; 1 ]; [ 2; 2; 2 ] ]

let test_ratio () =
  let r = { Poa.num = 6; den = 2 } in
  check_true "float" (Poa.ratio_to_float r = 3.0)

let test_exact_prices_unit4 () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  match Poa.exact_prices game with
  | Some { Poa.anarchy; stability } ->
      check_true "stability <= anarchy"
        (Poa.ratio_to_float stability <= Poa.ratio_to_float anarchy);
      check_int "opt denominators agree" anarchy.Poa.den stability.Poa.den;
      (* OPT = 2 here; equilibria have diameter between 2 and 4 (Thm 4.1) *)
      check_int "den" 2 anarchy.Poa.den;
      check_true "anarchy diameter bounded" (anarchy.Poa.num <= 4)
  | None -> Alcotest.fail "small instance should be solvable"

let test_exact_prices_too_large () =
  let game = Game.make Cost.Sum (Budget.uniform ~n:9 ~budget:3) in
  check_true "refuses" (Poa.exact_prices ~max_profiles:100 game = None)

let test_anarchy_lower_bound () =
  (* tripod k=3: n=10, equilibrium diameter 6, OPT upper <= 4 *)
  let b = Bbng_constructions.Tripod.budgets ~k:3 in
  let r = Poa.anarchy_lower_bound ~equilibrium_diameter:6 b in
  check_int "numerator" 6 r.Poa.num;
  check_true "meaningful bound" (Poa.ratio_to_float r >= 1.5)

let test_welfare_prices () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  match Poa.exact_welfare_prices game with
  | Some { Poa.anarchy; stability } ->
      check_true "stability <= anarchy"
        (Poa.ratio_to_float stability <= Poa.ratio_to_float anarchy);
      check_true "anarchy >= 1" (Poa.ratio_to_float anarchy >= 1.0);
      (* on (1,1,1,1) every equilibrium has diameter 2 and the same
         welfare structure; the welfare PoA stays close to 1 *)
      check_true "welfare PoA small" (Poa.ratio_to_float anarchy <= 1.5)
  | None -> Alcotest.fail "small instance should be solvable"

let test_welfare_refuses_large () =
  let game = Game.make Cost.Sum (Budget.uniform ~n:9 ~budget:3) in
  check_true "refuses" (Poa.exact_welfare_prices ~max_profiles:100 game = None)

let prop_canonical_realization_valid =
  qcheck "canonical realization is always a valid profile"
    (random_budget_gen ~n_min:1 ~n_max:10) (fun input ->
      let b = random_budget_of input in
      let p = Poa.canonical_low_diameter_realization b in
      Strategy.n p = Budget.n b)

let prop_canonical_connectable_diameter4 =
  qcheck "canonical realization has diameter <= 4 when connectable"
    (random_budget_gen ~n_min:2 ~n_max:12) (fun input ->
      let b = random_budget_of input in
      let p = Poa.canonical_low_diameter_realization b in
      (not (Budget.connectable b))
      || Cost.social_cost (Strategy.underlying p) <= 4)

(* Budget vectors on n <= 5 drawn from three regimes, so every branch
   of the bound-settled OPT is hit: subcritical (sigma < n-1, every
   realization disconnected), complete-capable (sigma >= n(n-1)/2,
   lo = 1) and anything in between. *)
let opt_budget_gen =
  QCheck.make
    ~print:(fun (n, total, seed) ->
      Printf.sprintf "n=%d total=%d seed=%d" n total seed)
    QCheck.Gen.(
      int_range 1 5 >>= fun n ->
      let full = n * (n - 1) in
      oneof
        [
          int_range 0 (max 0 (n - 2));
          int_range (full / 2) full;
          int_range 0 full;
        ]
      >>= fun total ->
      int_range 0 10_000 >>= fun seed -> return (n, total, seed))

let prop_opt_exact_matches_exhaustive =
  qcheck ~count:150 "opt_diameter_exact == exhaustive minimum (n <= 5)"
    opt_budget_gen (fun input ->
      let b = random_budget_of input in
      Poa.opt_diameter_exact b = Some (oracle_opt_diameter b))

let test_opt_exact_settled_without_enumeration () =
  (* unit n=7: lo = hi = 2, so OPT is exact with one CSR snapshot (the
     witness's diameter) instead of one per profile *)
  let built () = Bbng_obs.Counter.find "csr.snapshots_built" in
  let before = built () in
  check_true "unit n=7 OPT" (Poa.opt_diameter_exact (Budget.unit_budgets 7) = Some 2);
  check_true "at most the witness snapshot" (built () - before <= 1)

let suite =
  [
    case "canonical realization diameter" test_canonical_realization_diameter;
    case "canonical star case" test_canonical_realization_star_case;
    case "canonical subcritical" test_canonical_subcritical;
    case "opt exact on tiny instances" test_opt_exact_tiny;
    case "opt exact refuses large" test_opt_exact_refuses_large;
    case "opt bounds" test_opt_bounds;
    case "bounds bracket exact" test_opt_bounds_bracket_exact;
    case "ratio" test_ratio;
    slow_case "exact prices on (1,1,1,1)" test_exact_prices_unit4;
    case "exact prices refuses large" test_exact_prices_too_large;
    case "anarchy lower bound" test_anarchy_lower_bound;
    slow_case "welfare prices" test_welfare_prices;
    case "welfare refuses large" test_welfare_refuses_large;
    prop_canonical_realization_valid;
    prop_canonical_connectable_diameter4;
    prop_opt_exact_matches_exhaustive;
    case "opt exact settled by its bounds" test_opt_exact_settled_without_enumeration;
  ]
