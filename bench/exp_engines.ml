(* Engine head-to-head: overlay-BFS vs distance-row exact deviation
   pricing on exhaustive best-response scans.

   Both engines are exact (the qcheck oracle in test_deviation_eval
   pins rows == bfs on random profiles), so the interesting output is
   the wall-clock ratio: the rows engine replaces one BFS per candidate
   strategy with one cached BFS row per candidate *target* plus a
   per-candidate combine — on shallow graphs the level identity over
   two level-bitset rows (a prefix row OR'ing the base with every
   target but the last, and the last target's row), with candidates
   that cannot beat the scan's threshold settled from the rows' level
   sizes or the exact reach; on deep ones an O(b n) min-combine over
   int rows — dropping the scan from O(C(n-1,b) (n+m)) to one BFS per
   row plus C(n-1,b) combines.  The "rows layout" column names the
   representation the scanned players' contexts chose.

   Every cell is also an oracle check: the overlay engine ignores
   pricing bounds, so identical moves under both engines pin the
   bounded kernel, and the run exits non-zero on any disagreement
   (bin/check.sh runs it).  The binary tree's internal players have
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

let scan_players ~engine game profile players =
  Array.map
    (fun player -> Best_response.best_improvement ~engine game profile player)
    players

(* "levels" / "ints" when every scanned player's rows context chose
   the same layout, "mixed L/I" otherwise *)
let layout_cell version profile players =
  let levels = ref 0 and ints = ref 0 in
  Array.iter
    (fun player ->
      let c =
        Deviation_eval.make ~engine:(Deviation_eval.Fixed Deviation_eval.Rows)
          version profile ~player
      in
      ignore (Deviation_eval.current_cost c : int);
      match Deviation_eval.row_layout c with
      | Some Deviation_eval.Level_bitsets -> incr levels
      | Some Deviation_eval.Int_rows -> incr ints
      | None -> ())
    players;
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
        let bfs_moves, bfs_s =
          time_it (fun () ->
              scan_players
                ~engine:(Deviation_eval.Fixed Deviation_eval.Bfs_overlay)
                game profile players)
        in
        let rows_moves, rows_s =
          time_it (fun () ->
              scan_players
                ~engine:(Deviation_eval.Fixed Deviation_eval.Rows)
                game profile players)
        in
        let layout = layout_cell version profile players in
        let family =
          match family with
          | `Circulant _ -> "circulant"
          | `Random _ -> "random"
          | `Bintree _ -> "bintree"
        in
        (* both engines are exact with the same deterministic scan
           order, so the full per-player move lists must coincide *)
        let agree = bfs_moves = rows_moves in
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
