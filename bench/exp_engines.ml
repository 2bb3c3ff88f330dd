(* Engine ablation: overlay-BFS vs distance-row exact deviation
   pricing over every candidate of exhaustive best-response scans —
   the measurement behind the budget rule that picks an engine per
   player (rows for b >= 2, overlay otherwise).

   Each cell prices every candidate of each scanned player twice,
   through a context forced to each engine ([Deviation_eval.cost],
   unbounded), and times each side.  The rows engine replaces one BFS
   per candidate strategy with one cached BFS row per candidate
   *target* plus a per-candidate combine — on shallow graphs the level
   identity over two level-bitset rows (a prefix row OR'ing the base
   with every target but the last, and the last target's row); on deep
   ones an O(b n) min-combine over int rows — dropping the scan from
   O(C(n-1,b) (n+m)) to one BFS per row plus C(n-1,b) combines.  The
   b = 1 cell is the rule's other side: one row per candidate, no
   reuse.  The "rows layout" column names the representation the
   scanned players' rows contexts chose.

   Every cell is also an oracle check, and the run exits non-zero on
   any disagreement (bin/check.sh runs it): the two engines' prices
   must be equal candidate by candidate, and
   [Best_response.best_improvement] — budget rule, bounded pricing,
   pruning tiers — must return the move a plain scan over the overlay
   prices returns.  The binary tree's internal players have
   disconnected player-deleted graphs, so its cell covers prefixes
   that reach only part of the graph.

   The circulant profiles (i -> {i+1..i+b} mod n) keep the diameter
   well above the Lemma 2.2 threshold, so neither pruning tier fires
   and every cell really prices all C(n-1, b) candidates per player;
   at n = 200 they are the deep side (int rows).  The random b = 2
   profile at n = 200 spans four 62-bit words and is shallow (level
   bitsets), as is the random MAX profile at n = 124 (two full words).
   The large cells scan four spread players, the tree cell its 31
   internal players, the small ones all of them. *)

open Bbng_core
open Exp_common
module Table = Bbng_analysis.Table
module Deviation_eval = Bbng_core.Deviation_eval

let circulant ~n ~b =
  Strategy.make
    (Budget.uniform ~n ~budget:b)
    (Array.init n (fun i ->
         let s = Array.init b (fun k -> (i + k + 1) mod n) in
         Array.sort compare s;
         s))

let random_profile ~n ~b =
  Strategy.random (Random.State.make [| n; b |]) (Budget.uniform ~n ~budget:b)

(* Every candidate of [player], in the order the exhaustive scans
   visit them: subsets of the other vertices in lexicographic order.
   The array is reused between calls. *)
let iter_candidates profile player f =
  let n = Strategy.n profile in
  let others = Array.of_list (List.filter (( <> ) player) (List.init n Fun.id)) in
  Bbng_graph.Combinatorics.iter_combinations_of others
    ~k:(Budget.get (Strategy.budgets profile) player)
    f

(* Each scanned player's context under [engine] and the unbounded
   price of every candidate, in scan order. *)
let price_players engine version profile players =
  Array.map
    (fun player ->
      let ctx = Deviation_eval.make ~engine version profile ~player in
      let prices = ref [] in
      iter_candidates profile player (fun targets ->
          prices := Deviation_eval.cost ctx targets :: !prices);
      (ctx, Array.of_list (List.rev !prices)))
    players

(* What an exhaustive best-improvement scan returns from these prices:
   the first cheapest candidate, if it beats the current cost.  The
   pruning tiers and the floor stop of [Best_response] change no
   answer, so this is its move without them. *)
let reference_move ctx profile player prices =
  let best = ref None and i = ref 0 in
  iter_candidates profile player (fun targets ->
      let bound =
        match !best with
        | None -> Deviation_eval.current_cost ctx
        | Some m -> m.Best_response.cost
      in
      let cost = prices.(!i) in
      incr i;
      if cost < bound then
        best := Some { Best_response.targets = Array.copy targets; cost });
  !best

(* "levels" / "ints" when every scanned player's rows context chose
   the same layout, "mixed L/I" otherwise *)
let layout_cell rows_ctxs =
  let levels = ref 0 and ints = ref 0 in
  Array.iter
    (fun (c, _) ->
      match Deviation_eval.row_layout c with
      | Some Deviation_eval.Level_bitsets -> incr levels
      | Some Deviation_eval.Int_rows -> incr ints
      | None -> ())
    rows_ctxs;
  if !ints = 0 then "levels"
  else if !levels = 0 then "ints"
  else Printf.sprintf "mixed %d/%d" !levels !ints

(* the players a cell scans: all of them on small profiles, the tree's
   internal (budget-2) players, four spread players otherwise *)
let cell_players family profile =
  let n = Strategy.n profile in
  match family with
  | `Bintree _ ->
      Array.of_list
        (List.filter
           (fun p -> Budget.get (Strategy.budgets profile) p > 0)
           (List.init n Fun.id))
  | _ -> if n <= 30 then Array.init n Fun.id else Array.init 4 (fun i -> i * n / 4)

let run () =
  section "ENGINES — overlay-BFS vs distance-row exact deviation pricing";
  let t =
    Table.make
      ~headers:
        [ "profile"; "version"; "n"; "b"; "players"; "candidates/player";
          "bfs (s)"; "rows (s)"; "speedup"; "rows layout"; "agree" ]
  in
  let module Json = Bbng_obs.Json in
  let headline = ref None in
  let cells =
    List.map
      (fun (family, version, b) ->
        let profile =
          match family with
          | `Circulant n -> circulant ~n ~b
          | `Random n -> random_profile ~n ~b
          | `Bintree depth -> Bbng_constructions.Binary_tree.profile ~depth
        in
        let n = Strategy.n profile in
        let game = Game.make version (Strategy.budgets profile) in
        let players = cell_players family profile in
        let candidates = Bbng_graph.Combinatorics.binomial (n - 1) b in
        let bfs, bfs_s =
          time_it (fun () ->
              price_players Deviation_eval.Bfs_overlay version profile players)
        in
        let rows, rows_s =
          time_it (fun () ->
              price_players Deviation_eval.Rows version profile players)
        in
        let layout = layout_cell rows in
        let family =
          match family with
          | `Circulant _ -> "circulant"
          | `Random _ -> "random"
          | `Bintree _ -> "bintree"
        in
        (* both engines are exact, so every candidate's two prices
           must coincide; and the budget rule's bounded scan must return
           the overlay-priced scan's move *)
        let agree =
          Array.for_all2 (fun (_, p) (_, q) -> p = q) bfs rows
          && Array.for_all2
               (fun player (ctx, prices) ->
                 Best_response.best_improvement game profile player
                 = reference_move ctx profile player prices)
               players bfs
        in
        let speedup = if rows_s > 0. then Some (bfs_s /. rows_s) else None in
        if version = Cost.Sum && n = 30 && b = 2 then headline := speedup;
        Table.add_row t
          [ family; Cost.version_name version; string_of_int n; string_of_int b;
            string_of_int (Array.length players);
            Bbng_graph.Combinatorics.count_to_string candidates;
            Printf.sprintf "%.4f" bfs_s; Printf.sprintf "%.4f" rows_s;
            (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-");
            layout; verdict_cell agree ];
        ( agree,
          Json.Obj
          [
            ("profile", Json.Str family);
            ("version", Json.Str (Cost.version_name version));
            ("n", Json.Int n);
            ("b", Json.Int b);
            ("players", Json.Int (Array.length players));
            ( "candidates_per_player",
              Json.Str (Bbng_graph.Combinatorics.count_to_string candidates) );
            ("bfs_s", Json.Float bfs_s);
            ("rows_s", Json.Float rows_s);
            ( "speedup",
              match speedup with Some s -> Json.Float s | None -> Json.Null );
            ("row_layout", Json.Str layout);
            ("agree", Json.Bool agree);
          ] ))
      [
        (`Circulant 20, Cost.Sum, 1);
        (`Circulant 20, Cost.Sum, 2);
        (`Circulant 30, Cost.Sum, 2);
        (`Circulant 30, Cost.Max, 2);
        (`Circulant 24, Cost.Sum, 3);
        (`Random 200, Cost.Sum, 2);
        (`Random 124, Cost.Max, 2);
        (`Circulant 200, Cost.Sum, 2);
        (`Bintree 5, Cost.Sum, 2);
      ]
  in
  Table.print t;
  (match !headline with
  | Some s -> note "headline (SUM, n=30, b=2): rows engine %.1fx faster" s
  | None -> ());
  note
    "b = 1 is the rows engine's worst case (one row per candidate, no reuse across candidates beyond the base row)";
  write_bench_report ~name:"engines"
    [
      ( "headline_speedup_n30_b2",
        match !headline with Some s -> Json.Float s | None -> Json.Null );
      ("results", Json.List (List.map snd cells));
    ];
  (* the gate: both engines are exact, so any disagreement is a bug *)
  if not (List.for_all fst cells) then begin
    note "engines disagree on at least one cell";
    exit 1
  end
