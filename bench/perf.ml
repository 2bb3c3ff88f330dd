(* Bechamel micro-benchmarks for the substrate hot paths. *)

open Bechamel
open Toolkit
open Bbng_core
module Generators = Bbng_graph.Generators

let rng = Random.State.make [| 0xBE5C |]

let gnp200 = Generators.random_connected_gnp rng ~n:200 ~p:0.05
let grid = Generators.grid_graph ~rows:8 ~cols:8
let sun30 = Bbng_constructions.Unit_budget.concentrated_sun ~n:30
let sun_game = Game.make Cost.Sum (Strategy.budgets sun30)
let tripod8 = Bbng_constructions.Tripod.profile ~k:8
let tripod_game = Game.make Cost.Max (Strategy.budgets tripod8)

(* Exhaustive best response on a circulant profile (i -> {i+1, i+2}
   mod n) sized so neither the cost floor nor Lemma 2.2 prunes — the
   scan really prices all C(n-1, b) candidate strategies on the
   distance-row engine (the `engines` experiment sets it against the
   overlay BFS). *)
let circ30 =
  let n = 30 in
  Strategy.make
    (Budget.uniform ~n ~budget:2)
    (Array.init n (fun i ->
         let s = [| (i + 1) mod n; (i + 2) mod n |] in
         Array.sort compare s;
         s))

let circ_game = Game.make Cost.Sum (Strategy.budgets circ30)

(* Census pipeline: the end-to-end scan of a full unit-budget space,
   and the merge step in isolation (pre-scanned shard results), so the
   recorded trend separates "certifying got slower" from "the sharded
   pipeline's aggregation overhead grew". *)
module Census = Bbng_analysis.Census

let census_game = Game.make Cost.Sum (Budget.unit_budgets 4)
let census_plan = Census.make_plan ~shard_size:9 census_game

let census_shard_results =
  List.filter_map (Census.scan_shard census_game) (Census.shards census_plan)

(* Named thunks shared by the Bechamel tests, the warm-up pass and the
   allocation count: the first executions of a workload pay for lazy
   caches, branch predictors and the allocator reaching steady state,
   which is what made deviation-incremental-sun30's OLS fit collapse
   (r^2 ~ 0.53 in recorded smoke runs) — running each thunk a few times
   before Bechamel samples restores the fit. *)
let deviation_ctx = Deviation_eval.make Cost.Sum sun30 ~player:5

(* Preallocated scratch for the raw CSR kernel bench: with dist/queue
   reused across runs the workload is the zero-allocation sweep alone,
   so its minor-words column pins the "0 words per BFS" claim. *)
let csr200 = Bbng_graph.Csr.snapshot gnp200
let csr_dist = Array.make 200 (-1)
let csr_queue = Array.make 200 0

let workloads =
  [
    ("bfs-gnp200", fun () -> ignore (Bbng_graph.Bfs.distances gnp200 0));
    ( "bfs-csr-gnp200",
      fun () ->
        ignore
          (Bbng_graph.Csr.bfs_into csr200 ~src:0 ~dist:csr_dist ~queue:csr_queue)
    );
    (* diameter ablation: the full n-sweep eccentricity fold this name
       always measured vs the pruned iFUB engine that [diameter] now
       dispatches to — like the rows/bfs pair, history carries the
       old-engine line and the new name gates the new one *)
    ( "diameter-gnp200",
      fun () ->
        ignore
          (Bbng_graph.Distances.fold_eccentricities gnp200
             (fun a _ e -> max a e)
             0) );
    ( "diameter-ifub-gnp200",
      fun () -> ignore (Bbng_graph.Distances.diameter gnp200) );
    ("sum-cost-gnp200", fun () -> ignore (Cost.vertex_cost Cost.Sum gnp200 0));
    ( "connectivity-grid8x8",
      fun () -> ignore (Bbng_graph.Connectivity.vertex_connectivity grid) );
    ("swap-br-sun30", fun () -> ignore (Best_response.swap_best_refutation sun_game sun30 5));
    ( "certify-tripod-k8",
      fun () -> ignore (Equilibrium.is_nash tripod_game tripod8) );
    ("realize-sun30", fun () -> ignore (Strategy.underlying sun30));
    (* deviation-evaluation ablation: generic rebuild vs incremental *)
    ( "deviation-generic-sun30",
      fun () ->
        ignore (Game.deviation_cost sun_game sun30 ~player:5 ~targets:[| 7 |]) );
    ( "deviation-incremental-sun30",
      fun () -> ignore (Deviation_eval.cost deviation_ctx [| 7 |]) );
    (* a full C(29,2) = 406 scan; b = 2 prices it on rows *)
    ( "br-exact-rows-n30b2",
      fun () -> ignore (Best_response.best_improvement circ_game circ30 0) );
    ("census-scan-unit4", fun () -> ignore (Census.run census_game));
    ( "census-merge-unit4",
      fun () ->
        ignore (Census.merge census_game census_plan census_shard_results) );
  ]

let tests =
  Test.make_grouped ~name:"bbng" ~fmt:"%s/%s"
    (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) workloads)

let warm_up () = List.iter (fun (_, f) -> for _ = 1 to 10 do f () done) workloads

type result = {
  test : string;
  ns : float option;
  minor : float;  (* minor words / run, counted exactly *)
  r2 : float option;
}

(* Runs per allocation batch.  The first batch absorbs what is paid
   once (lazy caches, amortized table growth); the second, counted
   batch then reads the same Gc.minor_words delta in every run and
   process, so words/run is an exact figure rather than a fit. *)
let words_batch = 200

let minor_words_per_run f =
  let batch () =
    let before = Gc.minor_words () in
    for _ = 1 to words_batch do
      f ()
    done;
    Gc.minor_words () -. before
  in
  ignore (batch ());
  batch () /. float_of_int words_batch

(* Bechamel sampling rounds per benchmark.  A load spike from another
   process lands in one round, and the median round's fit shrugs it
   off where a single OLS fit over every sample would not. *)
let ns_rounds = 3

let measure ~quota =
  (* quota floor: below ~50ms per bench the cheap workloads get too few
     distinct iteration counts for a stable OLS fit *)
  let quota = Float.max 0.05 quota in
  warm_up ();
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let rounds =
    List.init ns_rounds (fun _ ->
        Analyze.all ols Instance.monotonic_clock
          (Benchmark.all cfg Instance.[ monotonic_clock ] tests))
  in
  (* the (ns, r²) of the median round *)
  let timing name =
    let fits =
      List.filter_map
        (fun times ->
          match Hashtbl.find_opt times ("bbng/" ^ name) with
          | Some fit -> (
              match Analyze.OLS.estimates fit with
              | Some (est :: _) -> Some (est, Analyze.OLS.r_square fit)
              | Some [] | None -> None)
          | None -> None)
        rounds
    in
    match List.sort compare fits with
    | [] -> (None, None)
    | sorted ->
        let ns, r2 = List.nth sorted (List.length sorted / 2) in
        (Some ns, r2)
  in
  List.sort compare
    (List.map
       (fun (name, f) ->
         let ns, r2 = timing name in
         { test = "bbng/" ^ name; ns; minor = minor_words_per_run f; r2 })
       workloads)

let words_cell w =
  if Float.is_integer w then Printf.sprintf "%.0f" w else Printf.sprintf "%.3f" w

let print_table results =
  let cell = function Some v -> Printf.sprintf "%.0f" v | None -> "?" in
  let r2_cell = function Some v -> Printf.sprintf "%.4f" v | None -> "?" in
  let table =
    Bbng_analysis.Table.make
      ~headers:[ "benchmark"; "ns/run"; "minor words/run"; "r2(time)" ]
  in
  List.iter
    (fun r ->
      Bbng_analysis.Table.add_row table
        [ r.test; cell r.ns; words_cell r.minor; r2_cell r.r2 ])
    results;
  Bbng_analysis.Table.print table

let report ~name results =
  let module Json = Bbng_obs.Json in
  (* the history line is the trajectory `bench --trend` gates against *)
  History.append ~report:name
    (List.map
       (fun r ->
         { History.name = r.test; ns = r.ns; minor = Some r.minor; r2 = r.r2 })
       results);
  (* the run's ledger row carries the headline figures too, so
     `bbng_cli runs diff` can gate two bench runs without re-opening
     the history (speedup-style ratios are excluded: diff treats "up"
     as bad, which only holds for costs) *)
  List.iter
    (fun r ->
      Option.iter
        (fun ns ->
          Bbng_obs.Ledger.add_metric
            ("bench." ^ r.test ^ ".ns_per_run")
            (Json.Float ns))
        r.ns;
      Bbng_obs.Ledger.add_metric
        ("bench." ^ r.test ^ ".minor_words_per_run")
        (Json.Float r.minor))
    results

let run_with ~report_name ~quota () =
  Exp_common.section
    "PERF — Bechamel micro-benchmarks (monotonic clock) + exact minor words";
  let results = measure ~quota in
  print_table results;
  report ~name:report_name results

let run () = run_with ~report_name:"micro" ~quota:0.25 ()

(* a few-second sanity pass: same tests, tiny quota, its own report
   flavor in the history — bin/check.sh gates it with `--trend` *)
let smoke () = run_with ~report_name:"smoke" ~quota:0.02 ()
