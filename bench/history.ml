(* Append-only bench trajectory: every perf run adds one JSON line to
   BENCH_history.jsonl — provenance, a host key, per-bench ns/words/r²,
   and a digest of the engine counters — so `bench --trend` has a
   recorded history to gate against.  It is the only perf store.

   The file is append-only on purpose: runs from different machines or
   branches coexist, Trend gates only against rows of the newest row's
   host, and the robust median/MAD absorbs the odd outlier line.
   Reading tolerates torn or alien lines (a crash mid-append loses at
   most its own line). *)

module Json = Bbng_obs.Json

let file = "BENCH_history.jsonl"

type bench = {
  name : string;
  ns : float option;
  minor : float option;
  r2 : float option;
}

type entry = {
  ts : string;
  report : string;
  host : string option;  (* None on rows recorded before host keys *)
  benches : bench list;
  counters_digest : string;
}

let utc_timestamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

(* one digest line instead of the full counter snapshot: enough to tell
   "same work executed" apart from "the engines took different paths",
   without bloating every history line *)
let counters_digest () =
  Digest.to_hex
    (Digest.string (Json.to_string (Bbng_obs.Stats.counters_json ())))

(* What this process can observe of the machine it times on: the CPU
   model (the hostname when /proc/cpuinfo is unreadable), the domain
   count and the compiler.  ns figures only compare within one key.  It
   lives in the history row alone, never in Stats.provenance_fields:
   certificates fold those in and their bytes must not depend on the
   host. *)
let host_key () =
  let cpu_model () =
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
              match String.index_opt line ':' with
              | Some i when String.trim (String.sub line 0 i) = "model name" ->
                  Some
                    (String.trim
                       (String.sub line (i + 1) (String.length line - i - 1)))
              | _ -> scan ())
        in
        scan ())
  in
  let machine =
    match cpu_model () with
    | Some m -> m
    | None | (exception Sys_error _) -> Unix.gethostname ()
  in
  Printf.sprintf "%s; %d domains; OCaml %s" machine
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let num = function Some v -> Json.Float v | None -> Json.Null

let entry_json ~report benches =
  Json.Obj
    ([
       ("ts", Json.Str (utc_timestamp ()));
       ("report", Json.Str report);
       ("host", Json.Str (host_key ()));
       ( "results",
         Json.List
           (List.map
              (fun b ->
                Json.Obj
                  [
                    ("name", Json.Str b.name);
                    ("ns_per_run", num b.ns);
                    ("minor_words_per_run", num b.minor);
                    ("r_square_time", num b.r2);
                  ])
              benches) );
       ("counters_digest", Json.Str (counters_digest ()));
     ]
    @ Bbng_obs.Stats.provenance_fields ())

let append ?(file = file) ~report benches =
  let line = Json.to_string (entry_json ~report benches) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n')

(* --- reading --- *)

let entry_of_json j =
  match (Json.str_field "report" j, Json.member "results" j) with
  | Some report, Some (Json.List results) ->
      let benches =
        List.filter_map
          (fun r ->
            match Json.str_field "name" r with
            | Some name ->
                Some
                  {
                    name;
                    ns = Json.num_field "ns_per_run" r;
                    minor = Json.num_field "minor_words_per_run" r;
                    r2 = Json.num_field "r_square_time" r;
                  }
            | None -> None)
          results
      in
      Some
        {
          ts = Option.value ~default:"?" (Json.str_field "ts" j);
          report;
          host = Json.str_field "host" j;
          benches;
          counters_digest =
            Option.value ~default:"" (Json.str_field "counters_digest" j);
        }
  | _ -> None

(* skipped lines are counted, not fatal: a torn tail (crash mid-append)
   or a hand-edited line must never wedge the trend gate *)
let load ?(file = file) () =
  match open_in file with
  | exception Sys_error _ -> ([], 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let entries = ref [] and skipped = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if String.trim line <> "" then
                 match Json.of_string line with
                 | j -> (
                     match entry_of_json j with
                     | Some e -> entries := e :: !entries
                     | None -> incr skipped)
                 | exception Json.Parse_error _ -> incr skipped
             done
           with End_of_file -> ());
          (List.rev !entries, !skipped))
