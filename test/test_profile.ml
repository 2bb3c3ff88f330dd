(* Call-path attribution (Bbng_obs.Profile) and the Span stats rolled
   up from its sharded path table.

   The load-bearing properties: folded per-name totals equal the flat
   Span totals exactly (integer telescoping, not approximation);
   out-of-order and double closes never corrupt a domain's path stack;
   the span.rollup events drained into a recording fold back to the
   live profile exactly (and prefixes and concatenations fold as sums
   must); multi-domain span totals equal single-domain totals across
   the table's shards; and torn .partial recordings still flame. *)

open Helpers
open Bbng_core
module Span = Bbng_obs.Span
module Profile = Bbng_obs.Profile
module Sink = Bbng_obs.Sink
module Json = Bbng_obs.Json
module Histogram = Bbng_obs.Histogram
module Trace_export = Bbng_obs.Trace_export
module Live_view = Bbng_obs.Live_view

(* Every test drives the process-global span/profile state: snapshot
   the enabled flags, start from empty tables, and restore on the way
   out so the rest of the suite is unaffected. *)
let scoped f =
  let span_was = Span.enabled () and prof_was = Profile.enabled () in
  Span.set_enabled true;
  Profile.set_enabled true;
  Span.reset_all ();
  Profile.reset_all ();
  Fun.protect
    ~finally:(fun () ->
      Span.reset_all ();
      Profile.reset_all ();
      Span.set_enabled span_was;
      Profile.set_enabled prof_was)
    f

(* busy-wait long enough that consecutive span starts land on distinct
   microsecond ticks — what the offline start/duration containment
   reconstruction needs to tell siblings from children *)
let tick () =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 50e-6 do
    ignore (Sys.opaque_identity (Array.make 16 0))
  done

(* --- exact folded == flat equality --- *)

let span_totals () = Span.snapshot ()

let check_name_totals_match_flat ~eps_minor () =
  let flat = span_totals () in
  let rolled = Profile.name_totals (Profile.snapshot ()) in
  check_int "one rollup entry per span family" (List.length flat)
    (List.length rolled);
  List.iter
    (fun (name, (s : Span.stat)) ->
      match List.assoc_opt name rolled with
      | None -> Alcotest.failf "span %S missing from the path rollup" name
      | Some (p : Profile.stat) ->
          check_int (name ^ ": counts agree") s.Span.count p.Profile.count;
          check_int (name ^ ": self-ns telescopes to the flat total")
            s.Span.total_ns p.Profile.self_ns;
          if
            Float.abs (s.Span.minor_words -. p.Profile.self_minor_words)
            > eps_minor *. (1. +. Float.abs s.Span.minor_words)
          then
            Alcotest.failf "%s: minor words diverge: flat %f vs rolled %f" name
              s.Span.minor_words p.Profile.self_minor_words)
    flat

let test_nested_attribution () =
  scoped (fun () ->
      Span.with_ "pa" (fun () ->
          tick ();
          Span.with_ "pb" (fun () -> tick ());
          Span.with_ "pb" (fun () ->
              tick ();
              Span.with_ "pc" (fun () -> tick ())));
      Span.with_ "pc" (fun () -> tick ());
      let snap = Profile.snapshot () in
      let paths = List.map fst snap in
      List.iter
        (fun expected ->
          check_true ("path recorded: " ^ expected)
            (List.mem expected paths))
        [ "pa"; "pa;pb"; "pa;pb;pc"; "pc" ];
      check_int "no other paths" 4 (List.length snap);
      let stat path = List.assoc path snap in
      check_int "pb closed twice at its path" 2 (stat "pa;pb").Profile.count;
      check_name_totals_match_flat ~eps_minor:1e-9 ())

(* random well-nested trees, with recursion in the name alphabet so the
   per-name rollup's multiplicity weighting is exercised (a path like
   ta;tb;ta counts its self values once per occurrence of ta) *)
type tree = T of string * tree list

let tree_gen =
  let open QCheck.Gen in
  let name = map (fun i -> [| "ta"; "tb"; "tc" |].(i)) (int_range 0 2) in
  sized_size (int_range 1 12)
  @@ fix (fun self n ->
         if n <= 1 then map (fun nm -> T (nm, [])) name
         else
           map2 (fun nm kids -> T (nm, kids)) name
             (list_size (int_range 0 3) (self (n / 4))))

let rec run_tree (T (name, kids)) =
  Span.with_ name (fun () ->
      ignore (Sys.opaque_identity (Array.make 32 0));
      List.iter run_tree kids)

let test_random_trees_exact =
  qcheck ~count:60 "folded per-name totals == flat Span totals"
    (QCheck.make tree_gen)
    (fun tree ->
      scoped (fun () ->
          run_tree tree;
          check_name_totals_match_flat ~eps_minor:1e-6 ();
          true))

(* --- out-of-order / double-close robustness --- *)

(* Random interleavings straight on the Span API: enter a few spans,
   close them (and re-close some) in arbitrary order.  Nothing may
   raise, the stack must drain to depth 0 once every handle is closed,
   and a subsequent span must open at a clean depth-0 path. *)
let test_out_of_order =
  qcheck ~count:100 "random close orders never corrupt the stack"
    QCheck.(pair (int_range 1 8) (int_range 0 1_000_000))
    (fun (n, seed) ->
      scoped (fun () ->
          let st = Random.State.make [| 0xF01D; seed |] in
          let handles =
            Array.init n (fun i -> Span.enter (Printf.sprintf "oo%d" i))
          in
          (* close in a random permutation, with some double closes *)
          let order = Array.init n (fun i -> i) in
          for i = n - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- t
          done;
          Array.iter
            (fun i ->
              Span.exit handles.(i);
              if Random.State.bool st then Span.exit handles.(i))
            order;
          check_int "stack drained" 0 (Profile.stack_depth ());
          Span.with_ "oo_fresh" (fun () -> ());
          let snap = Profile.snapshot () in
          check_true "fresh span gets a clean depth-0 path"
            (List.mem_assoc "oo_fresh" snap);
          (* every span recorded exactly once despite double closes *)
          let flat = span_totals () in
          List.for_all
            (fun (_, (s : Span.stat)) -> s.Span.count = 1)
            flat))

let test_double_close_records_once () =
  scoped (fun () ->
      let h = Span.enter "dc" in
      Span.exit h;
      Span.exit h;
      Span.exit h;
      check_int "one close, one count" 1
        (List.assoc "dc" (span_totals ())).Span.count;
      check_int "one profile record" 1
        (List.assoc "dc" (Profile.snapshot ())).Profile.count)

(* --- offline reconstruction (bbng_cli flame) from span.rollup --- *)

(* The recording's complete lines, as a JSONL sink scoped around [f]
   wrote them (the scope's exit drains the last window). *)
let record_lines f =
  let file = Filename.temp_file "bbng_profile" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Sink.scoped (Sink.Jsonl oc) f);
      In_channel.with_open_bin file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))

let events_of lines = List.filter_map Trace_export.event_of_line lines

let test_offline_matches_live () =
  scoped (fun () ->
      let lines =
        record_lines (fun () ->
            Span.with_ "fa" (fun () ->
                Span.with_ "fb" (fun () -> tick ());
                Sink.emit "progress.heartbeat" [];
                Span.with_ "fb" (fun () -> tick ()));
            Sink.emit "progress.heartbeat" [];
            Span.with_ "fc" (fun () -> tick ()))
      in
      let events = events_of lines in
      check_int "every line is an event" (List.length lines) (List.length events);
      let names = List.map Trace_export.event_name events in
      check_false "no per-close span events" (List.mem "span" names);
      (* fa;fb drains twice (one close per window), fa and fc once *)
      check_int "one rollup per changed path per drain" 4
        (List.length (List.filter (( = ) "span.rollup") names));
      let live = Profile.snapshot () in
      let offline = Profile.of_events events in
      check_true "the rollups fold to the live profile exactly" (live = offline);
      Alcotest.(check (list string))
        "folded lines identical"
        (Profile.folded_lines Profile.Wall_ns live)
        (Profile.folded_lines Profile.Wall_ns offline);
      Alcotest.(check (list string))
        "allocation flavor identical"
        (Profile.folded_lines Profile.Minor_words live)
        (Profile.folded_lines Profile.Minor_words offline))

let test_torn_partial_skips () =
  scoped (fun () ->
      let lines =
        record_lines (fun () ->
            Span.with_ "torn_a" (fun () ->
                tick ();
                Span.with_ "torn_b" (fun () -> tick ())))
      in
      (* re-serialize, then truncate a last rollup line mid-byte the way
         a SIGKILL mid-write would *)
      let file = Filename.temp_file "bbng_torn" ".jsonl.partial" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          let oc = open_out file in
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            lines;
          output_string oc "{\"event\":\"span.rollup\",\"path\":\"torn_c\",\"cou";
          close_out oc;
          let ic = open_in file in
          let read, skipped =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> Trace_export.read_events ic)
          in
          check_int "torn line skipped" 1 skipped;
          let offline = Profile.of_events read in
          check_true "complete paths survive"
            (List.mem_assoc "torn_a" offline
            && List.mem_assoc "torn_a;torn_b" offline);
          check_false "torn path does not appear"
            (List.mem_assoc "torn_c" offline)))

(* --- the rollup oracle --- *)

(* One domain's program: open a span, close a random handle opened so
   far (out of order, or for a second time), or emit a milestone.
   Every handle still open at the end is closed in opening order, so
   nested leftovers close outside-in. *)
let oracle_names = [| "ra"; "rb"; "rc" |]

let run_program ops =
  let handles = ref [] in
  List.iter
    (fun (kind, arg) ->
      match kind with
      | 0 | 1 -> handles := !handles @ [ Span.enter oracle_names.(arg mod 3) ]
      | 2 | 3 -> (
          match !handles with
          | [] -> ()
          | hs -> Span.exit (List.nth hs (arg mod List.length hs)))
      | _ -> Sink.emit "progress.heartbeat" [])
    ops;
  List.iter Span.exit !handles

let program_gen =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (list_size (int_range 0 30) (pair (int_range 0 4) (int_range 0 99))))

let scaled k (s : Profile.stat) =
  {
    Profile.count = k * s.Profile.count;
    self_ns = k * s.Profile.self_ns;
    self_minor_words = float_of_int k *. s.Profile.self_minor_words;
  }

let test_rollup_oracle =
  qcheck ~count:60 "span.rollup recording folds to the live table"
    (QCheck.make
       ~print:(fun ps ->
         String.concat " | "
           (List.map
              (fun ops ->
                String.concat " "
                  (List.map (fun (k, a) -> Printf.sprintf "%d:%d" k a) ops))
              ps))
       program_gen)
    (fun programs ->
      scoped (fun () ->
          let lines =
            record_lines (fun () ->
                List.map
                  (fun ops ->
                    Domain.spawn (fun () ->
                        Profile.with_root "oracle" (fun () -> run_program ops)))
                  programs
                |> List.iter Domain.join)
          in
          let live = Profile.snapshot () in
          let events = events_of lines in
          check_true "recording folds to the live snapshot"
            (Profile.of_events events = live);
          (* a .partial is a line prefix: it never over-counts *)
          let _ =
            List.fold_left
              (fun prefix line ->
                let prefix = prefix @ [ line ] in
                List.iter
                  (fun (path, (s : Profile.stat)) ->
                    let l =
                      match List.assoc_opt path live with
                      | Some l -> l.Profile.count
                      | None -> 0
                    in
                    if s.Profile.count > l then
                      Alcotest.failf "prefix over-counts %s: %d > %d" path
                        s.Profile.count l)
                  (Profile.of_events (events_of prefix));
                prefix)
              [] lines
          in
          check_true "a recording concatenated with itself folds to twice live"
            (Profile.of_events (events @ events)
            = List.map (fun (p, s) -> (p, scaled 2 s)) live);
          let view = Live_view.create_state () in
          List.iter (Live_view.feed_line view) lines;
          let tailed = Live_view.spans view in
          let flat = Span.snapshot () in
          check_int "top sees every span name" (List.length flat)
            (List.length tailed);
          List.iter
            (fun (name, (s : Span.stat)) ->
              match List.assoc_opt name tailed with
              | None -> Alcotest.failf "top lost span %s" name
              | Some h ->
                  check_int (name ^ ": count") s.Span.count (Histogram.count h);
                  check_true (name ^ ": p50")
                    (Histogram.quantile h 0.5 = s.Span.p50_ns);
                  check_true (name ^ ": p99")
                    (Histogram.quantile h 0.99 = s.Span.p99_ns))
            flat;
          true))

(* --- sharding and parallel root propagation --- *)

let par_work ~domains n =
  Span.with_ "par_outer" (fun () ->
      ignore
        (Parallel.map ~domains ~n (fun i ->
             Span.with_ "par_inner" (fun () -> i * i))))

let test_multi_domain_totals =
  qcheck ~count:15 "multi-domain span totals == single-domain totals"
    QCheck.(int_range 8 200)
    (fun n ->
      let counts domains =
        scoped (fun () ->
            par_work ~domains n;
            ( List.map
                (fun (k, (s : Span.stat)) -> (k, s.Span.count))
                (span_totals ()),
              List.map
                (fun (k, (p : Profile.stat)) -> (k, p.Profile.count))
                (Profile.name_totals (Profile.snapshot ())) ))
      in
      let flat1, rolled1 = counts 1 in
      let flat4, rolled4 = counts 4 in
      flat1 = flat4 && rolled1 = rolled4
      && List.assoc "par_inner" flat1 = n)

let test_worker_paths_rooted () =
  scoped (fun () ->
      par_work ~domains:4 64;
      let snap = Profile.snapshot () in
      check_true "inner spans fold under the caller's path"
        (List.mem_assoc "par_outer;par_inner" snap);
      check_int "no orphaned inner path" 0
        (List.length (List.filter (fun (p, _) -> p = "par_inner") snap));
      check_int "every worker's closes attributed" 64
        (List.assoc "par_outer;par_inner" snap).Profile.count)

let test_concurrent_recording () =
  scoped (fun () ->
      let per_domain = 500 in
      check_true "all workers ran"
        (Parallel.for_all ~domains:4 ~n:(4 * per_domain) (fun _ ->
             Span.with_ "conc" (fun () -> ());
             true));
      check_int "sharded table lost nothing" (4 * per_domain)
        (List.assoc "conc" (span_totals ())).Span.count)

(* the shard-merge path: a sample split across several histograms
   merges into exactly the histogram of all of it *)
let test_merge_of_split_sample =
  qcheck ~count:50 "merge of a split sample equals the histogram of all of it"
    QCheck.(list_of_size Gen.(int_range 0 200) (pair (int_range 0 3) (int_range 0 1_000_000_000)))
    (fun sample ->
      let whole = Histogram.create () in
      let parts = Array.init 4 (fun _ -> Histogram.create ()) in
      List.iter
        (fun (part, v) ->
          Histogram.record whole v;
          Histogram.record parts.(part) v)
        sample;
      let merged = Histogram.merge (Array.to_list parts) in
      Histogram.bucket_counts merged = Histogram.bucket_counts whole
      && Histogram.count merged = Histogram.count whole
      && Histogram.total merged = Histogram.total whole
      && Histogram.max_value merged = Histogram.max_value whole
      && List.for_all
           (fun q -> Histogram.quantile merged q = Histogram.quantile whole q)
           [ 0.; 0.5; 0.9; 0.99; 1. ])

let suite =
  [
    case "nested attribution records full paths" test_nested_attribution;
    test_random_trees_exact;
    test_out_of_order;
    case "double close records once" test_double_close_records_once;
    case "offline reconstruction matches live profile" test_offline_matches_live;
    case "torn .partial still flames" test_torn_partial_skips;
    test_rollup_oracle;
    test_multi_domain_totals;
    case "parallel workers root under caller path" test_worker_paths_rooted;
    case "concurrent recording is lossless" test_concurrent_recording;
    test_merge_of_split_sample;
  ]
