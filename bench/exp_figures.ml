(* Figures 1-3: the paper's three illustrations, regenerated and
   machine-checked. *)

open Bbng_core
open Bbng_constructions
open Exp_common
module Table = Bbng_analysis.Table
module Bounds = Bbng_analysis.Bounds
module Digraph = Bbng_graph.Digraph

(* Figure 1: the Case-2 existence construction at n=22, z=16, t=19. *)
let figure1 () =
  subsection "Figure 1 — Theorem 2.3 Case 2 construction (n=22, z=16, t=19)";
  let p = Existence.figure1_profile () in
  let built = Existence.construct_sorted Existence.figure1_budgets in
  note "construct_sorted reproduces the figure's arcs exactly: %s"
    (verdict_cell (Strategy.equal p built));
  note "t parameter: %d (paper: 19)" (Existence.case2_t Existence.figure1_budgets);
  note "diameter: %d (paper: at most 4)" (diameter p);
  note "MAX certification: %s" (certify_scaled Cost.Max p);
  note "SUM certification: %s" (certify_scaled Cost.Sum p);
  (* role breakdown as drawn in the figure *)
  let g = Strategy.realize p in
  let t = Table.make ~headers:[ "vertex (paper)"; "role"; "budget"; "out-arcs to" ] in
  List.iter
    (fun v ->
      let role =
        if v < 16 then "A (zero budget)"
        else if v <= 18 then "B"
        else if v <= 20 then "C"
        else "v_n"
      in
      let outs =
        String.concat ","
          (List.map (fun x -> string_of_int (x + 1))
             (Array.to_list (Digraph.out_neighbors g v)))
      in
      Table.add_row t
        [ Printf.sprintf "v%d" (v + 1); role;
          string_of_int (Digraph.out_degree g v);
          (if outs = "" then "-" else outs) ])
    [ 0; 15; 16; 17; 18; 19; 20; 21 ];
  Table.print t;
  (* sweep: the same construction across a family of (n, z) choices *)
  let t = Table.make ~headers:[ "n"; "z"; "case"; "diameter"; "MAX"; "SUM" ] in
  List.iter
    (fun (n, z, big) ->
      (* z zeros, then a spread of positive budgets topped by [big] *)
      let rest = n - z in
      let budgets =
        Array.init n (fun i ->
            if i < z then 0
            else if i = n - 1 then big
            else 3 + ((i - z) mod 3))
      in
      (* clamp into validity and connectability *)
      let b = Budget.of_array budgets in
      ignore rest;
      let p = Existence.construct b in
      Table.add_row t
        [ string_of_int n; string_of_int z;
          Existence.case_name (Existence.case_of b);
          string_of_int (diameter p);
          certify_scaled Cost.Max p; certify_scaled Cost.Sum p ])
    [ (10, 6, 3); (14, 9, 4); (18, 12, 5); (22, 16, 5); (26, 19, 6) ];
  Table.print t

(* Figure 2: the tripod with its per-vertex best-response certificates. *)
let figure2 () =
  subsection "Figure 2 — Theorem 3.2 tripod (MAX tree equilibrium, diameter Theta(n))";
  let k = 3 in
  let p = Tripod.profile ~k in
  let game = Game.make Cost.Max (Strategy.budgets p) in
  note "k=%d: n=%d, diameter %d = 2k" k (Tripod.n_of_k k) (diameter p);
  let t =
    Table.make ~headers:[ "vertex"; "role"; "budget"; "local diameter"; "best response?" ]
  in
  let role v =
    if v = Tripod.hub ~k then "w (hub)"
    else
      let leg = [| "x"; "y"; "z" |].(v / k) in
      Printf.sprintf "%s_%d" leg ((v mod k) + 1)
  in
  for v = 0 to Tripod.n_of_k k - 1 do
    let cost = Game.player_cost game p v in
    let is_best = Best_response.exact_refutation game p v = None in
    Table.add_row t
      [ string_of_int v; role v;
        string_of_int (Budget.get (Strategy.budgets p) v);
        string_of_int cost; verdict_cell is_best ]
  done;
  Table.print t;
  note "every vertex is playing a best response: the tree is a MAX Nash equilibrium"

(* Figure 3: the longest-path decomposition behind Theorem 3.3. *)
let figure3 () =
  subsection "Figure 3 — Theorem 3.3 proof decomposition on SUM tree equilibria";
  List.iter
    (fun depth ->
      let p = Binary_tree.profile ~depth in
      let r = Bounds.figure3_decomposition p in
      note "binary tree depth %d: longest path %d vertices, diameter %d" depth
        (List.length r.Bounds.path) r.Bounds.diameter;
      note "  attachment sizes a(i): [%s]"
        (String.concat "; " (List.map string_of_int (Array.to_list r.Bounds.attachment)));
      note "  forward arcs at path indices: [%s]"
        (String.concat "; " (List.map string_of_int r.Bounds.forward_arcs));
      note "  inequality (1) a(i_j+1) >= sum_(k>i_j+1) a(k): %s"
        (verdict_cell r.Bounds.inequality_holds))
    [ 2; 3; 4; 5 ];
  (* contrast: the tripod (not a SUM equilibrium) breaks inequality (1) *)
  let r = Bounds.figure3_decomposition (Tripod.profile ~k:4) in
  note "tripod k=4 (MAX-only equilibrium): inequality (1) %s — SUM forces short trees"
    (if r.Bounds.inequality_holds then "holds (unexpected!)" else "fails, as the theory predicts")

let run () =
  section "FIGURES 1-3";
  figure1 ();
  figure2 ();
  figure3 ()
