(* The four workloads, as a user runs them: set-up, the timed region
   that produces the answer, and the output check run after it.  The
   timed region calls only public bbng entry points, each through
   [Inject.call] so the self-test can slow one layer from here. *)

open Bbng_core
module Obs = Bbng_obs
module Census = Bbng_analysis.Census
module Dynamics = Bbng_dynamics.Dynamics
module Schedule = Bbng_dynamics.Schedule
module Binary_tree = Bbng_constructions.Binary_tree

type ctx = { seed : int; scratch : string }

(* One prepared repetition.  [timed] is the measured region; [check]
   runs after it ([~first] on the run's first repetition, which may do
   the costlier independent re-checks) and also undoes process-wide
   state the repetition installed; [discard] undoes a set-up that is
   timed but never run. *)
type rep = {
  timed : unit -> unit;
  check : first:bool -> (unit, string) result;
  units : unit -> int;
  output_bytes : unit -> int;
  discard : unit -> unit;
}

type t = {
  name : string;
  unit_name : string;
  domains : int;  (** domains the timed region runs on *)
  setup : ctx -> rep;
}

(* Delay injection for the comparator's self-test: [--inject-delay
   LAYER:MS] sleeps before every timed call into LAYER.  Never set in a
   measured run. *)
module Inject = struct
  let delays : (string, float) Hashtbl.t = Hashtbl.create 4
  let set layer ms = Hashtbl.replace delays layer (ms /. 1000.)

  let call layer f =
    (match Hashtbl.find_opt delays layer with
    | Some s -> Unix.sleepf s
    | None -> ());
    f ()
end

let ( let* ) = Result.bind
let remove path = try Sys.remove path with Sys_error _ -> ()
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let in_scratch ctx file = Filename.concat ctx.scratch file

(* --- census: n=7 all-unit SUM, checkpointed, then the exact PoA --- *)

let census_budgets () = Budget.unit_budgets 7
let census_golden = "test/golden/CENSUS_unit7_sum.jsonl"
let golden_bytes = lazy (Measure.read_file census_golden)

type census_answer = { outcome : Census.outcome; poa : Poa.ratio option }

let run_census ~artifact game =
  let outcome =
    Inject.call "census" (fun () -> Census.run_sharded ~checkpoint:artifact game)
  in
  let poa =
    match outcome with
    | Census.Complete c -> Inject.call "poa" (fun () -> Census.price_of_anarchy c)
    | Census.Partial _ -> None
  in
  { outcome; poa }

let check_census ~artifact answer =
  match answer with
  | None -> Error "census did not run"
  | Some { outcome = Census.Partial _; _ } -> Error "census ended partial"
  | Some { outcome = Census.Complete c; poa } ->
      let classes = List.length c.Census.iso_classes in
      if c.Census.equilibria <> 210 then
        fail "census found %d equilibria, expected 210" c.Census.equilibria
      else if classes <> 1 then fail "census found %d classes, expected 1" classes
      else if poa <> Some { Poa.num = 2; den = 2 } then
        Error "census PoA is not 2/2"
      else if
        (not (Sys.file_exists artifact))
        || Measure.read_file artifact <> Lazy.force golden_bytes
      then fail "%s is not byte-identical to %s" artifact census_golden
      else Ok ()

let census_setup ctx =
  let game = Game.make Cost.Sum (census_budgets ()) in
  ignore (Census.make_plan game : Census.plan);
  let artifact = in_scratch ctx "census.jsonl" in
  remove artifact;
  remove (Obs.Atomic_io.partial_path artifact);
  (game, artifact)

let census =
  {
    name = "census-unit7-sum";
    unit_name = "profile";
    domains = Parallel.recommended_domains ();
    setup =
      (fun ctx ->
        let game, artifact = census_setup ctx in
        let answer = ref None in
        {
          timed = (fun () -> answer := Some (run_census ~artifact game));
          check = (fun ~first:_ -> check_census ~artifact !answer);
          units = (fun () -> (Census.make_plan game).Census.total);
          output_bytes = (fun () -> Measure.file_bytes artifact);
          discard = ignore;
        });
  }

(* --- the same census observed, as --stats --report set it up --- *)

(* The report must be one JSON object per line and end with the
   run.summary event. *)
let check_report path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go lines last =
            match input_line ic with
            | exception End_of_file -> Ok (lines, last)
            | line -> (
                match Obs.Json.of_string line with
                | exception Obs.Json.Parse_error msg ->
                    fail "report line %d does not parse: %s" (lines + 1) msg
                | j -> go (lines + 1) (Some j))
          in
          let* lines, last = go 0 None in
          match Option.bind last (Obs.Json.member "event") with
          | Some (Obs.Json.Str "run.summary") -> Ok lines
          | _ -> fail "report %s does not end in run.summary" path)

(* Observation switched on exactly as the CLI's --stats --report do it:
   spans and call-path profiling enabled, a JSONL sink streaming to
   REPORT.partial; [finalize] is what the CLI's exit hooks then do. *)
type observation = {
  report : string;
  stats : string;
  oc : out_channel;
  stats_oc : out_channel;
}

let observe_on ctx =
  let report = in_scratch ctx "census-report.jsonl" in
  let stats = in_scratch ctx "census-stats.txt" in
  remove report;
  (* a fresh table, as a fresh --stats --report process starts *)
  Obs.Span.reset_all ();
  Obs.Profile.reset_all ();
  Obs.Span.set_enabled true;
  Obs.Profile.set_enabled true;
  let oc = Obs.Atomic_io.open_stream report in
  Obs.Sink.add (Obs.Sink.Jsonl oc);
  { report; stats; oc; stats_oc = open_out stats }

let finalize o =
  Inject.call "obs" (fun () ->
      Obs.Progress.finalize ();
      Obs.Sink.emit "run.summary" (Obs.Stats.summary_fields ());
      Obs.Sink.flush_all ();
      close_out o.oc;
      Obs.Atomic_io.commit_stream o.report;
      Obs.Stats.print o.stats_oc;
      close_out o.stats_oc)

let observe_off o =
  Obs.Sink.set Obs.Sink.Null;
  Obs.Span.set_enabled false;
  Obs.Profile.set_enabled false;
  close_out_noerr o.oc;
  close_out_noerr o.stats_oc

let observed =
  {
    name = "census-unit7-sum-observed";
    unit_name = "profile";
    domains = Parallel.recommended_domains ();
    setup =
      (fun ctx ->
        let game, artifact = census_setup ctx in
        let o = observe_on ctx in
        let answer = ref None in
        {
          timed =
            (fun () ->
              answer := Some (run_census ~artifact game);
              finalize o);
          check =
            (fun ~first:_ ->
              observe_off o;
              let* () = check_census ~artifact !answer in
              let* _lines = check_report o.report in
              Ok ());
          units = (fun () -> (Census.make_plan game).Census.total);
          output_bytes =
            (fun () ->
              Measure.file_bytes artifact + Measure.file_bytes o.report
              + Measure.file_bytes o.stats);
          discard =
            (fun () ->
              observe_off o;
              Obs.Atomic_io.discard_stream o.report);
        });
  }

(* --- exact-best round-robin dynamics, b=2, n=200, seeded start --- *)

let dyn_n = 200

let dynamics_setup ctx =
  let budgets = Budget.uniform ~n:dyn_n ~budget:2 in
  let game = Game.make Cost.Sum budgets in
  let start = Strategy.random (Random.State.make [| ctx.seed |]) budgets in
  (game, start)

let run_dynamics game start =
  Inject.call "dynamics" (fun () ->
      Dynamics.run game ~schedule:Schedule.Round_robin ~rule:Dynamics.Exact_best
        start)

(* the first repetition's answer: later ones must repeat it exactly *)
let dynamics_reference : (int * string) option ref = ref None

let dynamics =
  {
    name = "dynamics-exact-b2-n200";
    unit_name = "step";
    domains = 1;
    setup =
      (fun ctx ->
        let game, start = dynamics_setup ctx in
        let record = in_scratch ctx "dynamics-outcome.txt" in
        remove record;
        let outcome = ref None in
        {
          timed =
            (fun () ->
              let o = run_dynamics game start in
              outcome := Some o;
              (* the answer a user keeps: outcome, steps and the final
                 profile, one fixed-width line per player so the record's
                 size does not depend on the seed *)
              Obs.Atomic_io.write_file record (fun oc ->
                  Printf.fprintf oc "%-10s %6d\n" (Dynamics.outcome_name o)
                    (Dynamics.steps o);
                  let final = Dynamics.final_profile o in
                  for p = 0 to Strategy.n final - 1 do
                    Printf.fprintf oc "%6d:" p;
                    Array.iter (Printf.fprintf oc " %6d") (Strategy.strategy final p);
                    output_char oc '\n'
                  done));
          check =
            (fun ~first ->
              match !outcome with
              | Some (Dynamics.Converged { profile; steps }) ->
                  let key = (steps, Strategy.to_string profile) in
                  if first then begin
                    dynamics_reference := Some key;
                    if Equilibrium.is_nash game profile then Ok ()
                    else Error "dynamics converged to a non-equilibrium"
                  end
                  else if !dynamics_reference = Some key then Ok ()
                  else Error "dynamics did not repeat the first repetition"
              | Some o -> fail "dynamics ended %s" (Dynamics.outcome_name o)
              | None -> Error "dynamics did not run");
          units =
            (fun () ->
              match !outcome with Some o -> Dynamics.steps o | None -> 0);
          output_bytes = (fun () -> Measure.file_bytes record);
          discard = ignore;
        });
  }

(* --- certifying the Theorem 3.4 binary tree, depth 7, under SUM --- *)

(* The instance is the paper's labelled construction, so this workload,
   like the census, does not depend on the seed. *)
let certify_setup () =
  let profile = Binary_tree.profile ~depth:7 in
  (Game.make Cost.Sum (Strategy.budgets profile), profile)

let c_candidates = Obs.Counter.make "br.candidates"
let certify_reference : int option ref = ref None

let scanned cert =
  List.fold_left
    (fun acc (_, a) -> acc + a.Best_response.scanned)
    0 cert.Equilibrium.cert_evidence

let certify =
  {
    name = "certify-bintree7-sum";
    unit_name = "player";
    domains = 1;
    setup =
      (fun ctx ->
        let game, profile = certify_setup () in
        let path = in_scratch ctx "bintree7.cert.json" in
        remove path;
        let result = ref None in
        let c0 = ref 0 in
        {
          timed =
            (fun () ->
              c0 := Obs.Counter.get c_candidates;
              let cert =
                Inject.call "equilibrium" (fun () ->
                    Equilibrium.certify_cert game profile)
              in
              Equilibrium.write_certificate path cert;
              result := Some (cert, Obs.Counter.get c_candidates - !c0));
          check =
            (fun ~first ->
              match !result with
              | None -> Error "certification did not run"
              | Some (cert, candidates) -> (
                  match Equilibrium.certificate_verdict cert with
                  | Equilibrium.Equilibrium ->
                      let* () =
                        if scanned cert = candidates then Ok ()
                        else
                          fail "evidence scanned %d, br.candidates moved %d"
                            (scanned cert) candidates
                      in
                      if first then begin
                        certify_reference := Some candidates;
                        match Equilibrium.read_certificate path with
                        | Error e -> Error e
                        | Ok back -> Equilibrium.verify_certificate back
                      end
                      else if !certify_reference = Some candidates then Ok ()
                      else Error "br.candidates did not repeat"
                  | _ -> Error "binary tree did not certify as an equilibrium"));
          units =
            (fun () ->
              match !result with
              | Some (cert, _) -> List.length cert.Equilibrium.cert_evidence
              | None -> 0);
          output_bytes = (fun () -> Measure.file_bytes path);
          discard = ignore;
        });
  }

let all = [ census; dynamics; certify; observed ]
let find name = List.find_opt (fun w -> w.name = name) all
