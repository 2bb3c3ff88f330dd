(* The traced run.  For each workload it first executes the workload
   once exactly as the timed run does (the untraced baseline of this
   invocation, with the program's own counters read before and after),
   then re-drives the same work through each layer's public entry
   points inside [Trace] spans.  Counts come from the untraced
   execution, times from the re-drive; the re-drive's answer is checked
   against the workload's, so the decomposition cannot drift from what
   the workload computes. *)

open Bbng_core
module Obs = Bbng_obs
module Csr = Bbng_graph.Csr
module Distances = Bbng_graph.Distances
module Census = Bbng_analysis.Census
module Iso_acc = Bbng_analysis.Structure.Iso_acc
module Schedule = Bbng_dynamics.Schedule
module W = Workloads

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

(* --- the untraced baseline --- *)

type baseline = {
  wall : float;
  cpu : float;
  g0 : Gc.stat;
  g1 : Gc.stat;
  c0 : (string * int) list;
  c1 : (string * int) list;
}

let counter b name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get b.c1 - get b.c0

(* [f] runs between the readings; the counters are the program's own
   (always on: one atomic add per event, spans off). *)
let measure f =
  Gc.full_major ();
  let c0 = Obs.Counter.snapshot () in
  let g0 = Gc.quick_stat () in
  let cpu0 = Measure.cpu_s () in
  let t0 = Measure.now_ns () in
  let r = f () in
  let wall = Measure.seconds_since t0 in
  let cpu = Measure.cpu_s () -. cpu0 in
  let g1 = Gc.quick_stat () in
  let c1 = Obs.Counter.snapshot () in
  (r, { wall; cpu; g0; g1; c0; c1 })

let untraced (w : W.t) ctx =
  let rep = w.W.setup ctx in
  let (), b = measure rep.W.timed in
  (match rep.W.check ~first:true with
  | Ok () -> ()
  | Error e -> mismatch "untraced %s: %s" w.W.name e);
  (b, rep.W.units ())

(* Per-layer counts every workload reports from its untraced
   execution: metric name, then the program's counter. *)
let counted =
  [
    ("csr.snapshots_built", "csr.snapshots_built");
    ("deviation_eval.rows_built", "deveval.rows_built");
    ("deviation_eval.row_hits", "deveval.row_hits");
    ("bfs.runs", "bfs.runs");
    ("bfs.vertices_popped", "bfs.vertices_popped");
    ("distances.ifub_bfs", "distances.ifub_bfs");
    ("best_response.candidates", "br.candidates");
  ]

let common b =
  let gc f = f b.g1 - f b.g0 in
  [
    ("gc.minor_collections", float_of_int (gc (fun g -> g.Gc.minor_collections)));
    ("gc.major_collections", float_of_int (gc (fun g -> g.Gc.major_collections)));
    ("gc.promoted_words", b.g1.Gc.promoted_words -. b.g0.Gc.promoted_words);
  ]
  @ List.map (fun (m, c) -> (m, float_of_int (counter b c))) counted

(* traced wall over untraced wall, and how much of the traced root the
   layer spans directly under it cover *)
let trace_cost ~root ~untraced_wall =
  let wall, coverage = Trace.root_and_coverage root in
  [ ("trace.overhead_ratio", wall /. untraced_wall); ("trace.span_coverage", coverage) ]

let q = Measure.quantile

(* --- census: shards re-driven profile by profile --- *)

let bump tbl d = Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))

let redrive_shard game shard =
  let budgets = Game.budgets game in
  let t_realize = Trace.tally "strategy.realize"
  and t_snapshot = Trace.tally "csr.snapshot"
  and t_nash = Trace.tally "equilibrium.is_nash"
  and t_iso = Trace.tally "structure.iso_add"
  and t_diam = Trace.tally "distances.diameter" in
  let acc = ref Iso_acc.empty and diams = Hashtbl.create 4 and found = ref 0 in
  let in_calls = ref 0 in
  let t0 = Measure.now_ns () in
  Equilibrium.iter_profiles_range budgets ~lo:shard.Census.lo ~hi:shard.Census.hi
    (fun p ->
      let c0 = Measure.now_ns () in
      let g = Trace.count t_realize (fun () -> Strategy.underlying p) in
      ignore (Trace.count t_snapshot (fun () -> Csr.snapshot g) : Csr.t);
      if Trace.count t_nash (fun () -> Equilibrium.is_nash game p) then begin
        incr found;
        acc := Trace.count t_iso (fun () -> Iso_acc.add !acc p);
        bump diams (Trace.count t_diam (fun () -> Game.social_cost game p))
      end;
      in_calls := !in_calls + (Measure.now_ns () - c0));
  (* enumeration is what the range iteration costs besides its calls *)
  Trace.add "equilibrium.enumerate" (Measure.now_ns () - t0 - !in_calls);
  {
    Census.shard;
    found = !found;
    classes = Iso_acc.classes !acc;
    diameters = List.sort compare (Hashtbl.fold (fun d c l -> (d, c) :: l) diams []);
  }

let census_run ?domains ?checkpoint game =
  match Census.run_sharded ?domains ?checkpoint game with
  | Census.Complete c -> c
  | Census.Partial _ -> mismatch "census ended partial"

let census ctx =
  let b, _ = untraced W.census ctx in
  let domains = W.census.W.domains in
  let game = Game.make Cost.Sum (W.census_budgets ()) in
  (* checkpoint cost: the same scan without ~checkpoint *)
  let _, plain = measure (fun () -> census_run game) in
  let artifact = W.in_scratch ctx "census.jsonl" in
  W.remove artifact;
  let _, ckpt = measure (fun () -> census_run ~checkpoint:artifact game) in
  let checkpoint_bytes = Measure.file_bytes artifact in
  (* is worker-domain allocation in Gc.quick_stat?  the same census on
     another domain count must allocate the same words *)
  let other = if domains = 1 then 2 else 1 in
  let _, alt = measure (fun () -> census_run ~domains:other game) in
  let words x = x.g1.Gc.minor_words -. x.g0.Gc.minor_words in
  Trace.reset ();
  let plan = Census.make_plan game in
  let opt_snapshots = ref 0 in
  Trace.span "census.redrive" (fun () ->
      let results =
        List.map
          (fun s -> Trace.span "census.shard" (fun () -> redrive_shard game s))
          (Census.shards plan)
      in
      let c = Trace.span "census.merge" (fun () -> Census.merge game plan results) in
      if c.Census.equilibria <> 210 || List.length c.Census.iso_classes <> 1 then
        mismatch "re-driven census found %d equilibria in %d classes"
          c.Census.equilibria (List.length c.Census.iso_classes);
      let s0 = Obs.Counter.find "csr.snapshots_built" in
      let opt =
        Trace.span "poa.opt" (fun () -> Poa.opt_diameter_exact (Game.budgets game))
      in
      opt_snapshots := Obs.Counter.find "csr.snapshots_built" - s0;
      if opt <> Some 2 then mismatch "re-driven OPT diameter is not 2");
  let shards = Trace.durations "census.shard" in
  let f = float_of_int in
  common b
  @ trace_cost ~root:"census.redrive" ~untraced_wall:b.wall
  @ [
      ("equilibrium.enumerate_s", Trace.tally_s "equilibrium.enumerate");
      ("strategy.realize_s", Trace.tally_s "strategy.realize");
      ("strategy.realize_words", Trace.tally_words "strategy.realize");
      ("csr.snapshot_s", Trace.tally_s "csr.snapshot");
      ("equilibrium.is_nash_s", Trace.tally_s "equilibrium.is_nash");
      ("structure.iso_add_s", Trace.tally_s "structure.iso_add");
      ("census.merge_s", Trace.total_s "census.merge");
      ("poa.opt_s", Trace.total_s "poa.opt");
      ("poa.opt_profiles", f !opt_snapshots);
      ("census.checkpoint_s", ckpt.wall -. plain.wall);
      ("census.checkpoint_bytes", f checkpoint_bytes);
      ("census.shard_s_p50", q 0.5 shards);
      ("census.shard_s_max", Measure.maximum shards);
      ("parallel.busy_frac", ckpt.cpu /. (ckpt.wall *. f domains));
      ("gc.worker_alloc_ratio", words alt /. words plain);
    ]

(* --- dynamics: the round-robin loop re-driven search by search --- *)

let dynamics ctx =
  let b, steps_untraced = untraced W.dynamics ctx in
  let game, start = W.dynamics_setup ctx in
  let version = Game.version game in
  Trace.reset ();
  let t_make = Trace.tally "deviation_eval.make"
  and t_cost = Trace.tally "game.player_cost"
  and t_realize = Trace.tally "strategy.realize"
  and t_snapshot = Trace.tally "csr.snapshot"
  and t_diam = Trace.tally "distances.diameter"
  and t_seen = Trace.tally "dynamics.cycle_check" in
  let searches = ref 0 in
  let seen = Hashtbl.create 256 in
  let final, steps =
    Trace.span "dynamics.redrive" (fun () ->
        let rec loop sched profile step =
          let cache = Hashtbl.create 8 in
          let move_of p =
            match Hashtbl.find_opt cache p with
            | Some m -> m
            | None ->
                ignore
                  (Trace.count t_make (fun () ->
                       Deviation_eval.make version profile ~player:p)
                    : Deviation_eval.t);
                let m =
                  Trace.span "best_response.search" (fun () ->
                      Best_response.best_improvement game profile p)
                in
                incr searches;
                Hashtbl.add cache p m;
                m
          in
          let improving p =
            Option.map
              (fun m ->
                Trace.count t_cost (fun () -> Game.player_cost game profile p)
                - m.Best_response.cost)
              (move_of p)
          in
          match Schedule.next_player sched ~improving with
          | None -> (profile, step)
          | Some (player, sched) ->
              let m = Option.get (move_of player) in
              ignore (Trace.count t_cost (fun () -> Game.player_cost game profile player));
              let profile =
                Strategy.with_strategy profile ~player ~targets:m.Best_response.targets
              in
              (* Game.social_cost, one layer at a time *)
              let g = Trace.count t_realize (fun () -> Strategy.underlying profile) in
              ignore (Trace.count t_snapshot (fun () -> Csr.snapshot g) : Csr.t);
              ignore (Trace.count t_diam (fun () -> Distances.diameter g) : int option);
              Trace.count t_seen (fun () ->
                  Hashtbl.replace seen (Strategy.to_string profile) step);
              loop sched profile (step + 1)
        in
        loop (Schedule.start Schedule.Round_robin ~n:(Game.n game)) start 0)
  in
  if steps <> steps_untraced then
    mismatch "re-driven dynamics took %d steps, the run %d" steps steps_untraced;
  if !W.dynamics_reference <> Some (steps, Strategy.to_string final) then
    mismatch "re-driven dynamics ended on another profile";
  let search = Trace.durations "best_response.search" in
  let f = float_of_int in
  common b
  @ trace_cost ~root:"dynamics.redrive" ~untraced_wall:b.wall
  @ [
      ("dynamics.steps", f steps);
      ("dynamics.searches", f !searches);
      ("dynamics.improving_frac", f steps /. f !searches);
      ("best_response.search_s_p50", q 0.5 search);
      ("best_response.search_s_p90", q 0.9 search);
      ("deviation_eval.make_s", Trace.tally_s "deviation_eval.make");
      ("strategy.realize_s", Trace.tally_s "strategy.realize");
      ("csr.snapshot_s", Trace.tally_s "csr.snapshot");
      ("distances.diameter_s", Trace.tally_s "distances.diameter");
    ]

(* --- certification: one audited best-response check per player --- *)

let certify ctx =
  let b, players = untraced W.certify ctx in
  let game, profile = W.certify_setup () in
  Trace.reset ();
  let t_make = Trace.tally "deviation_eval.make" in
  let scanned = ref 0 in
  Trace.span "equilibrium.certify" (fun () ->
      for p = 0 to Game.n game - 1 do
        ignore
          (Trace.count t_make (fun () ->
               Deviation_eval.make (Game.version game) profile ~player:p)
            : Deviation_eval.t);
        let a =
          Trace.span "equilibrium.certify_player" (fun () ->
              Best_response.audit_exact game profile p)
        in
        if a.Best_response.improving <> None then mismatch "player %d can improve" p;
        scanned := !scanned + a.Best_response.scanned
      done);
  let candidates = counter b "br.candidates" in
  if !scanned <> candidates then
    mismatch "re-drive scanned %d candidates, the run %d" !scanned candidates;
  let per_player = Trace.durations "equilibrium.certify_player" in
  let f = float_of_int in
  common b
  @ trace_cost ~root:"equilibrium.certify" ~untraced_wall:b.wall
  @ [
      ("equilibrium.certify_player_s_p50", q 0.5 per_player);
      ("equilibrium.certify_player_s_p90", q 0.9 per_player);
      ("equilibrium.certify_player_s_max", Measure.maximum per_player);
      ( "best_response.candidates_per_s",
        f candidates /. Trace.total_s "equilibrium.certify_player" );
      ( "best_response.pruned_frac",
        f (counter b "br.pruned_floor" + counter b "br.pruned_lemma22") /. f players );
      ("deviation_eval.make_s", Trace.tally_s "deviation_eval.make");
    ]

(* --- the observed census: the obs layer around the same scan --- *)

let observed ctx =
  let census_b, _ = untraced W.census ctx in
  let b, _ = untraced W.observed ctx in
  let game, artifact = W.census_setup ctx in
  Trace.reset ();
  let o = Trace.span "obs.redrive" (fun () ->
      let o = Trace.span "obs.setup" (fun () -> W.observe_on ctx) in
      let answer =
        Trace.span "census.run_sharded" (fun () -> census_run ~checkpoint:artifact game)
      in
      ignore
        (Trace.span "poa.price_of_anarchy" (fun () -> Census.price_of_anarchy answer)
          : Poa.ratio option);
      Trace.span "obs.finalize" (fun () -> W.finalize o);
      o)
  in
  let span_events =
    List.fold_left (fun acc (_, s) -> acc + s.Obs.Span.count) 0 (Obs.Span.snapshot ())
  in
  let paths = List.length (Obs.Profile.snapshot ()) in
  W.observe_off o;
  let lines =
    match W.check_report o.W.report with
    | Ok lines -> lines
    | Error e -> mismatch "traced report: %s" e
  in
  let f = float_of_int in
  common b
  @ trace_cost ~root:"obs.redrive" ~untraced_wall:b.wall
  @ [
      ("sink.events", f lines);
      ("sink.bytes", f (Measure.file_bytes o.W.report));
      ("span.events", f span_events);
      ("profile.paths", f paths);
      ("obs.overhead_ratio", b.wall /. census_b.wall);
    ]

let run (w : W.t) ctx =
  match w.W.name with
  | "census-unit7-sum" -> census ctx
  | "dynamics-exact-b2-n200" -> dynamics ctx
  | "certify-bintree7-sum" -> certify ctx
  | "census-unit7-sum-observed" -> observed ctx
  | other -> mismatch "no traced run for %s" other
