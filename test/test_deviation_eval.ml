open Helpers
open Bbng_core

let ctx version p player = Deviation_eval.make version p ~player

let test_accessors () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:5 in
  let c = ctx Cost.Sum p 2 in
  check_int "player" 2 (Deviation_eval.player c);
  check_true "version" (Deviation_eval.version c = Cost.Sum)

let test_current_cost_matches_game () =
  let p = Bbng_constructions.Binary_tree.profile ~depth:2 in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      for player = 0 to Strategy.n p - 1 do
        check_int
          (Printf.sprintf "%s player %d" (Cost.version_name version) player)
          (Game.player_cost game p player)
          (Deviation_eval.current_cost (ctx version p player))
      done)
    Cost.all_versions

let test_cost_matches_deviation_cost () =
  (* hand-picked deviations incl. ones that disconnect the graph *)
  let b = Budget.of_list [ 2; 1; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [| 3 |]; [||]; [||]; [||] |] in
  List.iter
    (fun version ->
      let game = Game.make version b in
      let c = ctx version p 0 in
      List.iter
        (fun targets ->
          check_int
            (Printf.sprintf "%s {%s}" (Cost.version_name version)
               (String.concat ","
                  (List.map string_of_int (Array.to_list targets))))
            (Game.deviation_cost game p ~player:0 ~targets)
            (Deviation_eval.cost c targets))
        [ [| 1; 2 |]; [| 1; 4 |]; [| 3; 4 |]; [| 2; 4 |]; [| 1; 3 |] ])
    Cost.all_versions

let test_kappa_counting () =
  (* everything isolated except the player's arcs: deviating to one
     vertex leaves three components (player+target, and two singletons) *)
  let b = Budget.of_list [ 1; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1 |]; [||]; [||]; [||] |] in
  let c = ctx Cost.Max p 0 in
  (* kappa = 3: {0,1}, {2}, {3}; cost = 16 + 2*16 *)
  check_int "kappa term" (16 + 2 * 16) (Deviation_eval.cost c [| 1 |]);
  let game = Game.make Cost.Max b in
  check_int "agrees with game" (Game.deviation_cost game p ~player:0 ~targets:[| 1 |])
    (Deviation_eval.cost c [| 1 |])

let test_partial_targets () =
  (* the greedy heuristic evaluates fewer targets than the budget *)
  let b = Budget.of_list [ 2; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [||]; [||] |] in
  let c = ctx Cost.Sum p 0 in
  (* one arc only: reach 1 at distance 1, vertex 2 unreachable (9) *)
  check_int "partial" (1 + 9) (Deviation_eval.cost c [| 1 |]);
  check_int "empty" (9 + 9) (Deviation_eval.cost c [||])

let test_reuse_across_calls () =
  (* scratch reuse must not leak state between evaluations *)
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:8 in
  let c = ctx Cost.Sum p 4 in
  let first = Deviation_eval.cost c [| 0 |] in
  let _ = Deviation_eval.cost c [| 5 |] in
  let _ = Deviation_eval.cost c [| 7 |] in
  check_int "same answer after reuse" first (Deviation_eval.cost c [| 0 |])

let test_validation () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:4 in
  let c = ctx Cost.Sum p 1 in
  Alcotest.check_raises "self"
    (Invalid_argument "Deviation_eval.cost: self target") (fun () ->
      ignore (Deviation_eval.cost c [| 1 |]));
  Alcotest.check_raises "range"
    (Invalid_argument "Deviation_eval.cost: target out of range") (fun () ->
      ignore (Deviation_eval.cost c [| 9 |]))

(* --- the distance-row engine --- *)

let rows_of ?budget ?row_cache_cap version p player =
  Deviation_eval.make ?budget ?row_cache_cap ~engine:Deviation_eval.Rows
    version p ~player
let bfs_of version p player =
  Deviation_eval.make ~engine:Deviation_eval.Bfs_overlay version p ~player

let test_engine_names () =
  List.iter
    (fun e ->
      check_true "engine name round trip"
        (Deviation_eval.engine_of_name (Deviation_eval.engine_name e) = Some e))
    [ Deviation_eval.Bfs_overlay; Deviation_eval.Rows ];
  check_true "unknown rejected" (Deviation_eval.engine_of_name "auto" = None)

let test_engine_resolution () =
  (* the budget picks rows only once a scan can reuse rows across
     candidates, i.e. player budget >= 2; a forced engine wins at
     [make], and [reset] re-applies the rule *)
  let b = Budget.of_list [ 2; 1; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [| 0 |]; [||]; [||] |] in
  let engine_of ?engine player =
    Deviation_eval.engine (Deviation_eval.make ?engine Cost.Sum p ~player)
  in
  check_true "b=2 is rows" (engine_of 0 = Deviation_eval.Rows);
  check_true "b=1 is bfs" (engine_of 1 = Deviation_eval.Bfs_overlay);
  check_true "b=0 is bfs" (engine_of 2 = Deviation_eval.Bfs_overlay);
  check_true "forced bfs wins at b=2"
    (engine_of ~engine:Deviation_eval.Bfs_overlay 0 = Deviation_eval.Bfs_overlay);
  check_true "forced rows wins at b=1"
    (engine_of ~engine:Deviation_eval.Rows 1 = Deviation_eval.Rows);
  let c = rows_of Cost.Sum p 1 in
  Deviation_eval.reset c Cost.Sum p ~player:1;
  check_true "reset follows the rule"
    (Deviation_eval.engine c = Deviation_eval.Bfs_overlay)

let test_duplicate_target_rejected () =
  (* a duplicate under-spends the budget while pricing as if legal:
     both engines must reject it, not silently deduplicate *)
  let b = Budget.of_list [ 2; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [||]; [||]; [||] |] in
  List.iter
    (fun c ->
      Alcotest.check_raises "duplicate"
        (Invalid_argument "Deviation_eval.cost: duplicate target") (fun () ->
          ignore (Deviation_eval.cost c [| 3; 3 |])))
    [ bfs_of Cost.Sum p 0; rows_of Cost.Sum p 0 ]

let test_rows_eviction_keeps_answers_exact () =
  (* a cap of 1 forces an eviction on nearly every evaluation; answers
     must stay identical to the overlay engine throughout, and the
     eviction counter must actually move *)
  let p = Bbng_constructions.Tripod.profile ~k:3 in
  let player = 0 in
  List.iter
    (fun version ->
      let r = rows_of ~row_cache_cap:1 version p player in
      let b = bfs_of version p player in
      let n = Strategy.n p in
      let evicted0 = Bbng_obs.Counter.find "deveval.rows_evicted" in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u < v && u <> player && v <> player then
            check_int
              (Printf.sprintf "%s {%d,%d}" (Cost.version_name version) u v)
              (Deviation_eval.cost b [| u; v |])
              (Deviation_eval.cost r [| u; v |])
        done
      done;
      check_true "evictions happened under cap 1"
        (Bbng_obs.Counter.find "deveval.rows_evicted" > evicted0))
    Cost.all_versions

let test_rows_budget_charges_work () =
  (* row builds and combines spend work: a work_limit:0 token lets the
     first evaluation finish (checkpoint precedes any spend) and stops
     the second at its checkpoint *)
  let module Budgeted = Bbng_obs.Budgeted in
  let b = Budget.of_list [ 2; 1; 1; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [| 2 |]; [| 3 |]; [||] |] in
  let budget = Budgeted.create ~work_limit:0 () in
  let c = rows_of ~budget Cost.Sum p 0 in
  ignore (Deviation_eval.cost c [| 1; 3 |]);
  Alcotest.check_raises "second eval trips" Budgeted.Expired (fun () ->
      ignore (Deviation_eval.cost c [| 1; 3 |]))

let prop_rows_equals_bfs =
  (* the tentpole exactness oracle: on random (frequently disconnected)
     profiles, the distance-row engine prices every candidate exactly
     like the overlay BFS, for MAX and SUM, full and partial target
     sets, with rows reused across evaluations of one context *)
  qcheck ~count:200 "rows engine == overlay BFS engine"
    (random_budget_gen ~n_min:2 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 23) in
      let player = Random.State.int st n in
      let candidates =
        List.init 4 (fun _ ->
            let alt = Strategy.random st (Strategy.budgets p) in
            let targets = Strategy.strategy alt player in
            let keep = Random.State.int st (Array.length targets + 1) in
            Array.sub targets 0 keep)
      in
      List.for_all
        (fun version ->
          let r = rows_of version p player in
          let b = bfs_of version p player in
          List.for_all
            (fun targets ->
              Deviation_eval.cost r targets = Deviation_eval.cost b targets)
            candidates)
        Cost.all_versions)

let prop_equivalent_to_generic =
  qcheck ~count:200 "incremental evaluator == generic deviation cost"
    (random_budget_gen ~n_min:2 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 17) in
      let player = Random.State.int st n in
      let alt = Strategy.random st (Strategy.budgets p) in
      let targets = Strategy.strategy alt player in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          Game.deviation_cost game p ~player ~targets
          = Deviation_eval.cost (ctx version p player) targets)
        Cost.all_versions)

let prop_current_cost_equivalent =
  qcheck ~count:100 "current_cost == Game.player_cost"
    (random_budget_gen ~n_min:1 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let player = seed mod n in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          Game.player_cost game p player
          = Deviation_eval.current_cost (ctx version p player))
        Cost.all_versions)

(* every b-subset of the players other than [player] *)
let all_candidates n player b =
  let acc = ref [] in
  Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
      acc := Array.map (fun i -> if i < player then i else i + 1) c :: !acc);
  List.rev !acc

let prop_reset_equals_fresh =
  (* one context re-seated through a random sequence of (profile,
     player) pairs — across growing and shrinking n, after
     row evictions under a cap of 1, and after a scan cut short by an
     expired token — prices every candidate exactly like a fresh
     [make] on the same pair *)
  let module Budgeted = Bbng_obs.Budgeted in
  qcheck ~count:100 "reset context == fresh make"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 100_000))
    (fun seed ->
      let st = rng seed in
      let reused = ref None in
      List.for_all
        (fun _ ->
          let n = 2 + Random.State.int st 7 in
          let total = Random.State.int st ((n * (n - 1)) + 1) in
          let b = Budget.random_partition st ~n ~total in
          let p = Strategy.random st b in
          let player = Random.State.int st n in
          let version = if Random.State.bool st then Cost.Sum else Cost.Max in
          let row_cache_cap = if Random.State.bool st then Some 1 else None in
          let ctx, fresh =
            match !reused with
            | None ->
                (* the first triple may force an engine; every reset
                   follows the budget rule *)
                let engine =
                  match Random.State.int st 3 with
                  | 0 -> None
                  | 1 -> Some Deviation_eval.Rows
                  | _ -> Some Deviation_eval.Bfs_overlay
                in
                let c =
                  Deviation_eval.make ?engine ?row_cache_cap version p ~player
                in
                reused := Some c;
                (c, Deviation_eval.make ?engine version p ~player)
            | Some c ->
                Deviation_eval.reset ?row_cache_cap c version p ~player;
                (c, Deviation_eval.make version p ~player)
          in
          let candidates = all_candidates n player (Budget.get b player) in
          let agree =
            Deviation_eval.engine ctx = Deviation_eval.engine fresh
            && Deviation_eval.player ctx = player
            && Deviation_eval.current_cost ctx = Deviation_eval.current_cost fresh
            && List.for_all
                 (fun t -> Deviation_eval.cost ctx t = Deviation_eval.cost fresh t)
                 candidates
          in
          (* leave the context mid-scan half the time: a token that
             trips after a little work interrupts the next pass *)
          if Random.State.bool st then begin
            Deviation_eval.set_budget ctx
              (Budgeted.create ~work_limit:(Random.State.int st (2 * n)) ());
            try List.iter (fun t -> ignore (Deviation_eval.cost ctx t)) candidates
            with Budgeted.Expired -> ()
          end;
          agree)
        (List.init 6 Fun.id))

let test_release_then_reset () =
  (* a released context holds no rows; re-seated, it prices as new *)
  let p = Bbng_constructions.Tripod.profile ~k:3 in
  let c = rows_of Cost.Sum p 0 in
  let fresh = rows_of Cost.Sum p 0 in
  ignore (Deviation_eval.cost c [| 1; 2 |]);
  Deviation_eval.release c;
  Deviation_eval.reset c Cost.Sum p ~player:0;
  let built0 = Bbng_obs.Counter.find "deveval.rows_built" in
  check_int "same price" (Deviation_eval.cost fresh [| 1; 2 |])
    (Deviation_eval.cost c [| 1; 2 |]);
  check_true "rows were rebuilt after release"
    (Bbng_obs.Counter.find "deveval.rows_built" > built0);
  (* a rejected reset names itself and counts no context *)
  let contexts0 = Bbng_obs.Counter.find "deveval.contexts" in
  Alcotest.check_raises "bad player rejected"
    (Invalid_argument "Deviation_eval.reset: bad player") (fun () ->
      Deviation_eval.reset c Cost.Sum p ~player:(Strategy.n p));
  check_int "rejected reset counts no context" contexts0
    (Bbng_obs.Counter.find "deveval.contexts")

(* --- row layouts: level bitsets across word boundaries, int rows on
   deep graphs --- *)

let layout_name = function
  | Some Deviation_eval.Int_rows -> "int rows"
  | Some Deviation_eval.Level_bitsets -> "level bitsets"
  | None -> "none"

let check_layout name expected c =
  ignore (Deviation_eval.current_cost c);
  Alcotest.(check string)
    (name ^ ": row layout") (layout_name (Some expected))
    (layout_name (Deviation_eval.row_layout c))

(* up to three distinct targets other than [player]: full and partial
   target sets for every budget in 0..3 *)
let random_targets st ~n ~player =
  let k = Random.State.int st 4 in
  let rec draw acc =
    if List.length acc = k then Array.of_list acc
    else
      let v = Random.State.int st n in
      if v = player || List.mem v acc then draw acc else draw (v :: acc)
  in
  draw []

let path_profile n =
  Strategy.make
    (Budget.of_list (List.init n (fun i -> if i < n - 1 then 1 else 0)))
    (Array.init n (fun i -> if i < n - 1 then [| i + 1 |] else [||]))

(* i -> {i+1, ..., i+b} mod n: diameter about n / 2b *)
let circulant ~n ~b =
  Strategy.make (Budget.uniform ~n ~budget:b)
    (Array.init n (fun i ->
         let s = Array.init b (fun k -> (i + k + 1) mod n) in
         Array.sort compare s;
         s))

(* A shallow random core 0..n-k-2 (two arcs each, vertex 0 also
   pointing at the player n-1), two small paths that only the player's
   own arcs reach (the rest of the k vertices), and the player itself:
   the base row misses the paths, so candidates that skip them leave
   G∖player's reach short — the n² penalty under SUM, kappa = 2 or 3
   under MAX — while the layout stays level bitsets. *)
let core_with_islands st ~n ~k =
  let player = n - 1 and core = n - k - 1 in
  let half = k / 2 in
  let strategies =
    Array.init n (fun i ->
        if i = player then [| 0; 1; core |]
        else if i < core then begin
          let rec pick () =
            let a = Random.State.int st core and b = Random.State.int st core in
            if a = i || b = i || a = b then pick () else [| min a b; max a b |]
          in
          let s = pick () in
          if i = 0 then Array.append s [| player |] else s
        end
        else if i = core + half - 1 || i = core + k - 1 then [||]
        else [| i + 1 |])
  in
  (Strategy.make
     (Budget.of_list (Array.to_list (Array.map Array.length strategies)))
     (Array.map (fun s -> Array.sort compare s; s) strategies),
   player)

let agree_on version p player ?row_cache_cap candidates =
  let r = rows_of ?row_cache_cap version p player in
  let b = bfs_of version p player in
  List.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s {%s}" (Cost.version_name version)
           (String.concat "," (List.map string_of_int (Array.to_list t))))
        (Deviation_eval.cost b t) (Deviation_eval.cost r t))
    candidates;
  r

let multiword_sizes = [| 61; 62; 63; 64; 123; 124; 125; 126 |]

let prop_rows_equals_bfs_multiword =
  (* n straddles one and two word boundaries (62 vertices per word):
     uniform b = 2 profiles are shallow and take level bitsets; sparse
     ones (budgets 0..3) are often deep or disconnected and take int
     rows.  Rows must price exactly like the overlay BFS either way,
     with full and partial target sets, under evictions (cap 1) and
     against the generic route on full-budget deviations. *)
  qcheck ~count:60 "rows engine == overlay BFS across word boundaries"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let st = rng seed in
      let n =
        multiword_sizes.(Random.State.int st (Array.length multiword_sizes))
      in
      let budgets =
        if Random.State.bool st then Budget.uniform ~n ~budget:2
        else Budget.of_list (List.init n (fun _ -> Random.State.int st 4))
      in
      let p = Strategy.random st budgets in
      let player = Random.State.int st n in
      let row_cache_cap = if Random.State.int st 4 = 0 then Some 1 else None in
      let candidates = List.init 30 (fun _ -> random_targets st ~n ~player) in
      let full =
        List.init 3 (fun _ ->
            Strategy.strategy (Strategy.random st budgets) player)
      in
      List.for_all
        (fun version ->
          let game = Game.make version budgets in
          let r = rows_of ?row_cache_cap version p player in
          let b = bfs_of version p player in
          List.for_all
            (fun t -> Deviation_eval.cost r t = Deviation_eval.cost b t)
            candidates
          && List.for_all
               (fun t ->
                 Deviation_eval.cost r t
                 = Game.deviation_cost game p ~player ~targets:t)
               full)
        Cost.all_versions)

let test_shallow_multiword_takes_levels () =
  List.iter
    (fun n ->
      let p = Strategy.random (rng n) (Budget.uniform ~n ~budget:2) in
      let st = rng (n + 1) in
      List.iter
        (fun version ->
          let player = Random.State.int st n in
          let candidates = List.init 200 (fun _ -> random_targets st ~n ~player) in
          let r = agree_on version p player candidates in
          check_layout (Printf.sprintf "random b=2 n=%d" n) Deviation_eval.Level_bitsets r)
        Cost.all_versions)
    [ 62; 63; 124; 125; 200 ]

let test_deep_profiles_take_int_rows () =
  (* paths, tripods and circulants are too deep for level bitsets; the
     int-row combine must stay exact on them, including the path's
     disconnected deviations *)
  List.iter
    (fun (name, p, player) ->
      let n = Strategy.n p in
      let b = Budget.get (Strategy.budgets p) player in
      List.iter
        (fun version ->
          let r = agree_on version p player (all_candidates n player b) in
          check_layout name Deviation_eval.Int_rows r)
        Cost.all_versions)
    [
      ("path n=64", path_profile 64, 10);
      ("tripod k=21", Bbng_constructions.Tripod.profile ~k:21, 0);
      ("circulant n=123 b=2", circulant ~n:123 ~b:2, 5);
    ]

let test_levels_disconnected () =
  (* level bitsets on a G∖player that the base row does not cover:
     every subset of up to three targets drawn from a mix of core and
     island vertices, so candidates reach zero, one or both islands *)
  let st = rng 5 in
  List.iter
    (fun (n, k) ->
      let p, player = core_with_islands st ~n ~k in
      let core = n - k - 1 in
      let pool = [ 0; 1; 2; core - 1; core; core + 1; core + (k / 2); n - 2 ] in
      let pool = Array.of_list pool in
      let candidates = ref [ [||] ] in
      let m = Array.length pool in
      for size = 1 to 3 do
        Bbng_graph.Combinatorics.iter_combinations ~n:m ~k:size (fun c ->
            candidates := Array.map (fun i -> pool.(i)) c :: !candidates)
      done;
      List.iter
        (fun version ->
          List.iter
            (fun row_cache_cap ->
              let r = agree_on version p player ?row_cache_cap !candidates in
              check_layout (Printf.sprintf "islands n=%d" n)
                Deviation_eval.Level_bitsets r)
            [ None; Some 1 ])
        Cost.all_versions)
    [ (63, 6); (126, 8) ]

let test_reset_shallow_deep_shallow () =
  (* one context re-seated shallow -> deep -> shallow switches layout
     each time and prices like a fresh context throughout *)
  let shallow = Strategy.random (rng 3) (Budget.uniform ~n:124 ~budget:2) in
  let deep = circulant ~n:200 ~b:2 in
  let st = rng 4 in
  let c = rows_of Cost.Sum shallow 0 in
  List.iter
    (fun (name, version, p, player, layout) ->
      Deviation_eval.reset c version p ~player;
      let fresh = rows_of version p player in
      let n = Strategy.n p in
      for _ = 1 to 200 do
        let t = random_targets st ~n ~player in
        check_int name (Deviation_eval.cost fresh t) (Deviation_eval.cost c t)
      done;
      check_layout name layout c)
    [
      ("shallow", Cost.Sum, shallow, 7, Deviation_eval.Level_bitsets);
      ("deep", Cost.Max, deep, 30, Deviation_eval.Int_rows);
      ("shallow again", Cost.Max, shallow, 100, Deviation_eval.Level_bitsets);
    ]

(* The [cost_below] contract, against the generic route: the exact cost
   when it is below the bound, and some value >= the bound otherwise.
   One context is re-seated across shallow (level bitsets), deep (int
   rows) and disconnected profiles, sometimes under a cache cap of 1;
   each profile prices full-budget candidates in shuffled target
   orders, runs of candidates sharing all but their last target, and
   repeats, at bounds cost - 1, cost, cost + 1, a random value and
   max_int.  Where the player has at most 600 candidates, every one is
   also priced at bounds cost and cost + 1 against the overlay engine,
   so the tight cases of every settling tier come up. *)
let prop_cost_below_contract =
  qcheck ~count:100 "cost_below: exact below the bound, >= it otherwise"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let st = rng seed in
      let reused = ref None in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        a
      in
      List.for_all
        (fun _ ->
          let p, player =
            match Random.State.int st 4 with
            | 0 ->
                let n = 4 + Random.State.int st 60 in
                (Strategy.random st (Budget.uniform ~n ~budget:2), Random.State.int st n)
            | 1 ->
                let n = 4 + Random.State.int st 60 in
                let b = Budget.of_list (List.init n (fun _ -> Random.State.int st 4)) in
                (Strategy.random st b, Random.State.int st n)
            | 2 ->
                let n = 20 + Random.State.int st 40 in
                core_with_islands st ~n ~k:(4 + Random.State.int st 6)
            | _ ->
                if Random.State.bool st then (circulant ~n:(30 + Random.State.int st 40) ~b:2, 3)
                else (Bbng_constructions.Tripod.profile ~k:(3 + Random.State.int st 8), 0)
          in
          let n = Strategy.n p in
          let version = if Random.State.bool st then Cost.Sum else Cost.Max in
          let game = Game.make version (Strategy.budgets p) in
          let row_cache_cap = if Random.State.bool st then Some 1 else None in
          let b = Budget.get (Strategy.budgets p) player in
          (* [reset] follows the budget rule; half the players it would
             price on the overlay get a fresh forced-rows context
             instead, so rows bounds stay covered at b <= 1 *)
          let ctx =
            match !reused with
            | Some c when b >= 2 || Random.State.bool st ->
                Deviation_eval.reset ?row_cache_cap c version p ~player;
                c
            | _ ->
                let c = rows_of ?row_cache_cap version p player in
                reused := Some c;
                c
          in
          let draw () = Strategy.strategy (Strategy.random st (Strategy.budgets p)) player in
          let candidates =
            List.concat_map
              (fun _ ->
                let t = shuffle (Array.copy (draw ())) in
                (* the same prefix with other last targets *)
                let siblings =
                  List.filter_map
                    (fun v ->
                      if b = 0 || v = player || Array.mem v t then None
                      else begin
                        let t' = Array.copy t in
                        t'.(b - 1) <- v;
                        Some t'
                      end)
                    (List.init 3 (fun _ -> Random.State.int st n))
                in
                (t :: siblings) @ [ shuffle (Array.copy t) ])
              (List.init 4 Fun.id)
          in
          let swept =
            (not
               (Bbng_graph.Combinatorics.count_at_most 600
                  (Bbng_graph.Combinatorics.binomial (n - 1) b)))
            ||
            let oracle = bfs_of version p player in
            List.for_all
              (fun targets ->
                let exact = Deviation_eval.cost oracle targets in
                Deviation_eval.cost_below ctx targets ~bound:exact >= exact
                && Deviation_eval.cost_below ctx targets ~bound:(exact + 1) = exact)
              (all_candidates n player b)
          in
          swept
          && List.for_all
            (fun targets ->
              let exact =
                Game.deviation_cost game p ~player ~targets:(Array.copy targets)
              in
              List.for_all
                (fun bound ->
                  let r = Deviation_eval.cost_below ctx targets ~bound in
                  if exact < bound then r = exact else r >= bound)
                [ exact - 1; exact; exact + 1; Random.State.int st ((2 * exact) + 2);
                  max_int ])
            candidates)
        (List.init 3 Fun.id))

(* every b = 2 candidate of [player], twice: the first pass caches all
   rows, the second is measured; [bound] is each candidate's bound *)
let minor_words_per_eval ?(bound = fun _ -> max_int) c ~n ~player =
  let comb = [| 0; 1 |] and buf = [| 0; 0 |] in
  let pass () =
    comb.(0) <- 0;
    comb.(1) <- 1;
    let evals = ref 0 and continue = ref true in
    while !continue do
      buf.(0) <- (if comb.(0) < player then comb.(0) else comb.(0) + 1);
      buf.(1) <- (if comb.(1) < player then comb.(1) else comb.(1) + 1);
      ignore (Deviation_eval.cost_below c buf ~bound:(bound !evals) : int);
      incr evals;
      continue := Bbng_graph.Combinatorics.next_combination ~n:(n - 1) comb
    done;
    !evals
  in
  ignore (pass () : int);
  let before = Gc.minor_words () in
  let evals = pass () in
  let words = Gc.minor_words () -. before in
  (evals, words)

let test_rows_eval_allocation_free () =
  (* counted, not timed: once its rows are cached, a Rows evaluation
     allocates nothing, in either layout (n = 200, b = 2), unbounded or
     against bounds that settle candidates at every tier *)
  List.iter
    (fun (name, p, layout) ->
      List.iter
        (fun version ->
          let c = rows_of version p 0 in
          check_layout name layout c;
          let current = Deviation_eval.current_cost c in
          List.iter
            (fun (what, bound) ->
              let evals, words = minor_words_per_eval ~bound c ~n:200 ~player:0 in
              check_true (name ^ ": at least 10k evaluations") (evals >= 10_000);
              check_true
                (Printf.sprintf "%s %s %s: %.0f minor words over %d evaluations"
                   name (Cost.version_name version) what words evals)
                (words = 0.))
            [
              ("cost", fun _ -> max_int);
              ("cost_below current", fun _ -> current);
              ("cost_below varied", fun i -> current - 2 + (i mod 5));
            ])
        Cost.all_versions)
    [
      ( "random b=2",
        Strategy.random (rng 11) (Budget.uniform ~n:200 ~budget:2),
        Deviation_eval.Level_bitsets );
      ("circulant b=2", circulant ~n:200 ~b:2, Deviation_eval.Int_rows);
    ]

let test_work_limit_stops_at_pinned_candidate () =
  (* a combine charges (b+1)·n work units in either layout, so a
     work-limited audit stops at the same candidate as the int-row
     combine did: these scanned counts were recorded from it, before
     level bitsets existed *)
  let module Budgeted = Bbng_obs.Budgeted in
  List.iter
    (fun (name, version, p, player, layout, expected) ->
      let game = Game.make version (Strategy.budgets p) in
      let budget = Budgeted.create ~work_limit:200_000 () in
      let a = Best_response.audit_exact ~budget game p player in
      check_true (name ^ ": priced on rows")
        (a.Best_response.engine = Deviation_eval.Rows);
      check_true (name ^ ": degraded")
        (a.Best_response.tier = Best_response.Degraded_scan);
      check_int (name ^ ": scanned") expected a.Best_response.scanned;
      check_layout name layout (rows_of version p player))
    [
      ( "binary tree depth 6, SUM, player 1", Cost.Sum,
        Bbng_constructions.Binary_tree.profile ~depth:6, 1,
        Deviation_eval.Level_bitsets, 510 );
      ( "binary tree depth 6, SUM, player 40", Cost.Sum,
        Bbng_constructions.Binary_tree.profile ~depth:6, 40,
        Deviation_eval.Level_bitsets, 485 );
      ( "random b=2 n=124, MAX, player 3", Cost.Max,
        Strategy.random (rng 7) (Budget.uniform ~n:124 ~budget:2), 3,
        Deviation_eval.Level_bitsets, 498 );
      ( "tripod k=21, MAX, player 0", Cost.Max,
        Bbng_constructions.Tripod.profile ~k:21, 0, Deviation_eval.Int_rows,
        1031 );
    ]

let suite =
  [
    case "accessors" test_accessors;
    case "current cost matches game" test_current_cost_matches_game;
    case "cost matches deviation_cost" test_cost_matches_deviation_cost;
    case "kappa counting" test_kappa_counting;
    case "partial target sets" test_partial_targets;
    case "scratch reuse" test_reuse_across_calls;
    case "validation" test_validation;
    case "engine names" test_engine_names;
    case "engine resolution" test_engine_resolution;
    case "duplicate target rejected" test_duplicate_target_rejected;
    case "rows eviction stays exact" test_rows_eviction_keeps_answers_exact;
    case "rows budget charges work" test_rows_budget_charges_work;
    prop_rows_equals_bfs;
    prop_equivalent_to_generic;
    prop_current_cost_equivalent;
    prop_cost_below_contract;
    prop_reset_equals_fresh;
    case "release then reset" test_release_then_reset;
    prop_rows_equals_bfs_multiword;
    case "shallow multi-word profiles take level bitsets"
      test_shallow_multiword_takes_levels;
    case "deep profiles take int rows" test_deep_profiles_take_int_rows;
    case "level bitsets on a disconnected G minus i" test_levels_disconnected;
    case "reset shallow -> deep -> shallow" test_reset_shallow_deep_shallow;
    case "rows evaluation allocates nothing" test_rows_eval_allocation_free;
    case "work limit stops at the pinned candidate"
      test_work_limit_stops_at_pinned_candidate;
  ]
