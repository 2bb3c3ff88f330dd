(* perfbench: the end-to-end benchmark of the bbng laboratory.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--inject-delay LAYER:MS]...

   With --trace 0 it repeats the workload for S seconds (at least once)
   and reports the end-to-end metrics as medians over the repetitions;
   with --trace 1 it runs the traced re-drive and reports the per-layer
   metrics.  The last stdout line is the result object; the line before
   it carries provenance and sample counts.  Scratch files go to
   .perfbench/ in the working directory.  Run it through run.py, which
   builds it first. *)

module Json = Bbng_obs.Json
module W = Workloads

(* name, unit: the end_to_end metrics of BENCHMARK.json *)
let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("cpu_s", "s");
    ("alloc_words_per_unit", "words/unit");
    ("peak_rss_mb", "MB");
    ("output_mb", "MB");
    ("ok_frac", "frac");
  ]

(* name, unit: the per_layer metrics of BENCHMARK.json.  A workload
   reports 0 for a layer it never enters. *)
let per_layer =
  [
    ("equilibrium.enumerate_s", "s");
    ("strategy.realize_s", "s");
    ("strategy.realize_words", "words");
    ("csr.snapshot_s", "s");
    ("csr.snapshots_built", "count");
    ("equilibrium.is_nash_s", "s");
    ("structure.iso_add_s", "s");
    ("census.merge_s", "s");
    ("poa.opt_s", "s");
    ("poa.opt_profiles", "count");
    ("census.checkpoint_s", "s");
    ("census.checkpoint_bytes", "bytes");
    ("census.shard_s_p50", "s");
    ("census.shard_s_max", "s");
    ("parallel.busy_frac", "frac");
    ("dynamics.steps", "count");
    ("dynamics.searches", "count");
    ("dynamics.improving_frac", "frac");
    ("best_response.search_s_p50", "s");
    ("best_response.search_s_p90", "s");
    ("deviation_eval.rows_built", "count");
    ("deviation_eval.row_hits", "count");
    ("deviation_eval.make_s", "s");
    ("distances.diameter_s", "s");
    ("distances.ifub_bfs", "count");
    ("bfs.runs", "count");
    ("bfs.vertices_popped", "count");
    ("equilibrium.certify_player_s_p50", "s");
    ("equilibrium.certify_player_s_p90", "s");
    ("equilibrium.certify_player_s_max", "s");
    ("best_response.candidates", "count");
    ("best_response.candidates_per_s", "1/s");
    ("best_response.pruned_frac", "frac");
    ("sink.events", "count");
    ("sink.bytes", "bytes");
    ("span.events", "count");
    ("profile.paths", "count");
    ("obs.overhead_ratio", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words", "words");
    ("gc.worker_alloc_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("trace.span_coverage", "frac");
  ]

(* Set-up takes microseconds, far below one repetition: it is timed
   in batches of at least a millisecond each, a few batches before every
   repetition (so the samples span the whole run, not one quiet or busy
   moment of the host), topped up to at least [min_setup_batches];
   setup_s is the median batch mean. *)
let setup_batches_per_rep = 4
let min_setup_batches = 21

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* --- provenance --- *)

let cpus_allowed () =
  (* "0-1,4" -> 3 *)
  match Measure.proc_field "/proc/self/status" "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
      List.fold_left
        (fun acc r ->
          match String.split_on_char '-' (String.trim r) with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
          | _ -> acc)
        0 (String.split_on_char ',' l)

let cpu_model () =
  Option.value ~default:"unknown" (Measure.proc_field "/proc/cpuinfo" "model name")

let host_fields () =
  [
    ("nproc", Json.Int (cpus_allowed ()));
    ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ("word_size", Json.Int Sys.word_size);
    ("cpu_model", Json.Str (cpu_model ()));
  ]

(* Results carrying different host keys are never compared. *)
let host_key () =
  String.sub (Digest.to_hex (Digest.string (Json.to_string (Json.Obj (host_fields ()))))) 0 12

let git_commit () =
  match Measure.read_lines ".git/HEAD" with
  | [ line ] when String.starts_with ~prefix:"ref: " line -> (
      let r = String.sub line 5 (String.length line - 5) in
      match Measure.read_lines (Filename.concat ".git" r) with
      | [ sha ] -> Some sha
      | _ -> None)
  | [ sha ] -> Some sha
  | _ -> None

(* A checkout without .git still identifies its code: a digest of the
   program sources the benchmark links. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if
                 List.exists (Filename.check_suffix e) [ ".ml"; ".mli" ] || e = "dune"
               then [ p ]
               else [])
  in
  let parts = List.map (fun p -> p ^ "\000" ^ Measure.read_file p) (files "lib") in
  String.sub (Digest.to_hex (Digest.string (String.concat "\000" parts))) 0 12

let provenance (w : W.t) ~seed ~trace =
  Json.Obj
    [
      ("workload", Json.Str w.W.name);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
      ("domains", Json.Int w.W.domains);
      ("host_key", Json.Str (host_key ()));
      ("host", Json.Obj (host_fields ()));
      ( "git_commit",
        match git_commit () with Some c -> Json.Str c | None -> Json.Null );
      ("source_digest", Json.Str (source_digest ()));
    ]

(* --- the timed run --- *)

type sample = {
  wall : float;
  cpu : float;
  words_per_unit : float;
  rss_mb : float;
  out_mb : float;
}

(* Returns [sample], which times [n] more batches, and the batch means
   so far.  Each batch starts from a freshly compacted heap: a
   microsecond set-up costs more or less depending on where the heap
   lies, and sampling many layouts keeps the median steady from run to
   run. *)
let setup_sampler (w : W.t) ctx =
  let once () =
    let t0 = Measure.now_ns () in
    let rep = w.W.setup ctx in
    let dt = Measure.now_ns () - t0 in
    rep.W.discard ();
    dt
  in
  let k = lazy (max 1 (min 10_000 (1_000_000 / max 1 (once ())))) in
  let means = ref [] in
  let sample n =
    let k = Lazy.force k in
    for _ = 1 to n do
      Gc.compact ();
      let total = ref 0 in
      for _ = 1 to k do
        total := !total + once ()
      done;
      means := (Measure.seconds_of_ns !total /. float_of_int k) :: !means
    done
  in
  (sample, fun () -> !means)

let run_timed (w : W.t) ctx ~seconds =
  let samples = ref [] and errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let failure e =
    incr failed;
    errors := e :: !errors;
    log "%s: check failed: %s" w.W.name e
  in
  let sample_setup, setup_means = setup_sampler w ctx in
  let start = Measure.now_ns () in
  while !attempted = 0 || Measure.seconds_since start < seconds do
    sample_setup setup_batches_per_rep;
    let rep = w.W.setup ctx in
    (* every repetition starts from a collected heap, as a fresh
       process would *)
    Gc.full_major ();
    Measure.reset_peak_rss ();
    let g0 = Gc.quick_stat () in
    let cpu0 = Measure.cpu_s () in
    let t0 = Measure.now_ns () in
    let raised = match rep.W.timed () with () -> None | exception e -> Some e in
    let wall = Measure.seconds_since t0 in
    let cpu = Measure.cpu_s () -. cpu0 in
    let g1 = Gc.quick_stat () in
    let rss_mb = Measure.peak_rss_mb () in
    incr attempted;
    match raised with
    | Some e -> failure (Printexc.to_string e)
    | None -> (
        (match rep.W.check ~first:(!attempted = 1) with
        | Ok () -> ()
        | Error e -> failure e);
        let units = max 1 (rep.W.units ()) in
        samples :=
          {
            wall;
            cpu;
            words_per_unit =
              (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int units;
            rss_mb;
            out_mb = float_of_int (rep.W.output_bytes ()) /. 1e6;
          }
          :: !samples;
        log "%s rep %d: %.3f s wall, %d %ss" w.W.name !attempted wall units
          w.W.unit_name)
  done;
  sample_setup (max 0 (min_setup_batches - List.length (setup_means ())));
  let med f = Measure.median (List.map f !samples) in
  let metrics =
    [
      ("wall_s", med (fun s -> s.wall));
      ("setup_s", Measure.median (setup_means ()));
      ("cpu_s", med (fun s -> s.cpu));
      ("alloc_words_per_unit", med (fun s -> s.words_per_unit));
      ("peak_rss_mb", med (fun s -> s.rss_mb));
      ("output_mb", med (fun s -> s.out_mb));
      ( "ok_frac",
        float_of_int (!attempted - !failed) /. float_of_int !attempted );
    ]
  in
  let detail =
    [
      ("samples", Json.Int (List.length !samples));
      ("setup_s_all", Json.List (List.rev_map (fun s -> Json.Float s) (setup_means ())));
      ("unit", Json.Str w.W.unit_name);
      ("wall_s_all", Json.List (List.rev_map (fun s -> Json.Float s.wall) !samples));
      ("errors", Json.List (List.rev_map (fun e -> Json.Str e) !errors));
    ]
  in
  (!attempted, !failed, metrics, detail)

(* --- the traced run --- *)

let run_traced (w : W.t) ctx =
  match Redrive.run w ctx with
  | metrics ->
      let path = W.in_scratch ctx (Printf.sprintf "trace-%s.jsonl" w.W.name) in
      Trace.write path;
      (1, 0, metrics, [ ("trace_file", Json.Str path) ])
  | exception (Redrive.Mismatch e | Failure e | Invalid_argument e | Sys_error e) ->
      log "%s: traced run failed: %s" w.W.name e;
      (1, 1, [], [ ("errors", Json.List [ Json.Str e ]) ])

(* --- main --- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--inject-delay LAYER:MS]...";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := W.find v;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--inject-delay" :: v :: rest -> (
        match String.split_on_char ':' v with
        | [ layer; ms ] when float_of_string_opt ms <> None ->
            W.Inject.set layer (float_of_string ms);
            parse rest
        | _ -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace ->
      if not (Sys.file_exists W.census_golden) then begin
        log "run from the root of a bbng checkout (%s not found)" W.census_golden;
        exit 2
      end;
      let scratch = ".perfbench" in
      (try Unix.mkdir scratch 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let ctx = { W.seed; scratch } in
      let attempted, failed, metrics, detail =
        if trace then run_traced w ctx else run_timed w ctx ~seconds
      in
      let names = if trace then per_layer else end_to_end in
      let value name = Option.value ~default:0. (List.assoc_opt name metrics) in
      let result =
        Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float (value name)); ("unit", Json.Str unit) ]
                     ))
                   names) );
          ]
      in
      print_endline
        (Json.to_string
           (Json.Obj (("provenance", provenance w ~seed ~trace) :: detail)));
      print_endline (Json.to_string result)
  | _ -> usage ()
