(* `bench --trend`: gate the latest recorded run of BENCH_history.jsonl
   against the robust median/MAD of the runs before it.  Direction
   arrows per bench, non-zero exit on a significant regression.

   The latest row is checked first: every benchmark needs a positive
   ns_per_run and an integer minor_words_per_run (the counts are exact,
   so a fraction means the count itself broke); a noisy time fit
   (r² < 0.8) is a warning.

   Only earlier rows of the same report flavor *and* the same host key
   gate: ns figures from another machine are listed, never compared.
   Robustness over the whole history (Bbng_analysis.Robust): the
   median baseline shrugs off a one-off slow run in the record, and
   the MAD-derived gate adapts to each bench's own noise; Robust's
   percentage threshold and its ns floor bound it from below.

   Gating is depth-aware: a regression only fails the run (exit 1)
   once the benchmark has at least [hard_gate_depth] recorded points
   (history + the latest) — below that the MAD is too poorly
   estimated to hard-fail CI on, so shallow-history regressions are
   printed as warnings and the exit stays 0. *)

module Robust = Bbng_analysis.Robust

(* minimum recorded points (earlier runs + latest) before a regression
   hard-fails; 5 points = 4-sample MAD, the smallest spread estimate
   worth trusting *)
let hard_gate_depth = 5

let arrow = function
  | Some Robust.Regressed -> "↑ REGRESSED"
  | Some Robust.Improved -> "↓ improved"
  | Some Robust.Steady -> "→ steady"
  | None -> "?"

let cell = function Some v -> Printf.sprintf "%.0f" v | None -> "?"

let pct m latest =
  match (m, latest) with
  | Some m, Some l when m > 0. -> Printf.sprintf "%+.1f%%" ((l -. m) /. m *. 100.)
  | _ -> "?"

let z_cell ~history latest =
  match latest with
  | None -> "?"
  | Some l -> (
      match Robust.sigma_score ~history l with
      | Some z -> Printf.sprintf "%+.1f" z
      | None -> "-")

let plural n = if n = 1 then "" else "s"

(* the checks a history row must pass before it may gate or be gated *)
let validate ~file (latest : History.entry) =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "bench --trend: %s: latest run INVALID — %s\n" file msg;
        exit 1)
      fmt
  in
  if latest.History.benches = [] then fail "no results";
  List.iter
    (fun (b : History.bench) ->
      (match b.History.ns with
      | Some ns when ns > 0. -> ()
      | _ -> fail "no positive ns_per_run for %S" b.History.name);
      (match b.History.minor with
      | Some w when Float.is_integer w && w >= 0. -> ()
      | _ -> fail "no integer minor_words_per_run for %S" b.History.name);
      match b.History.r2 with
      | Some r2 when r2 < 0.8 ->
          Printf.printf "warning: %s r_square_time %.3f < 0.8 (noisy fit)\n"
            b.History.name r2
      | _ -> ())
    latest.History.benches

let host_label = function
  | Some h -> Printf.sprintf "host %S" h
  | None -> "no host key (legacy)"

(* earlier rows of this flavor from other hosts: listed, never gated *)
let list_other_hosts ~latest others =
  let hosts = List.sort_uniq compare (List.map (fun e -> e.History.host) others) in
  List.iter
    (fun host ->
      let n = List.length (List.filter (fun e -> e.History.host = host) others) in
      Printf.printf "  not gating against %d %S run%s from %s\n" n
        latest.History.report (plural n) (host_label host))
    hosts

let run ?file () =
  let file = Option.value ~default:History.file file in
  let entries, skipped = History.load ~file () in
  if skipped > 0 then
    Printf.printf "bench --trend: skipped %d unparseable line%s in %s\n" skipped
      (plural skipped) file;
  match List.rev entries with
  | [] ->
      Printf.printf
        "bench --trend: no history in %s (run `bench perf` or `bench --smoke` \
         to record one)\n"
        file;
      exit 0
  | latest :: earlier_rev -> (
      validate ~file latest;
      (* baseline = every earlier run of the same report flavor on the
         same host, so a smoke run never gates against micro-quota
         figures nor against another machine's clock *)
      let same_flavor =
        List.rev
          (List.filter (fun e -> e.History.report = latest.History.report)
             earlier_rev)
      in
      let history_entries, others =
        List.partition
          (fun e ->
            latest.History.host <> None && e.History.host = latest.History.host)
          same_flavor
      in
      Printf.printf "bench trend: latest %S run (%s, %s)\n"
        latest.History.report latest.History.ts
        (host_label latest.History.host);
      list_other_hosts ~latest others;
      match history_entries with
      | [] ->
          Printf.printf
            "bench --trend: no earlier %S run from this host in %s — nothing \
             to gate against yet\n"
            latest.History.report file;
          exit 0
      | _ ->
          let depth_earlier = List.length history_entries in
          Printf.printf "  gating against %d earlier run%s (threshold %.0f%%)\n"
            depth_earlier (plural depth_earlier) Robust.threshold_pct;
          let table =
            Bbng_analysis.Table.make
              ~headers:
                [
                  "benchmark"; "ns med"; "ns new"; "ns d%"; "ns z";
                  "mw med"; "mw new"; "trend";
                ]
          in
          let hard = ref 0 and soft = ref 0 in
          List.iter
            (fun (b : History.bench) ->
              let series select =
                List.filter_map
                  (fun e ->
                    List.find_map
                      (fun (h : History.bench) ->
                        if h.History.name = b.History.name then
                          select h
                        else None)
                      e.History.benches)
                  history_entries
              in
              let ns_hist = series (fun h -> h.History.ns) in
              let mw_hist = series (fun h -> h.History.minor) in
              let classify ~metric history latest =
                match (history, latest) with
                | [], _ | _, None -> None
                | _, Some l -> Robust.classify ~metric ~history l
              in
              let ns_trend = classify ~metric:"ns_per_run" ns_hist b.History.ns in
              let mw_trend =
                classify ~metric:"minor_words_per_run" mw_hist b.History.minor
              in
              let worst =
                match (ns_trend, mw_trend) with
                | Some Robust.Regressed, _ | _, Some Robust.Regressed ->
                    let depth = 1 + List.length ns_hist in
                    if depth >= hard_gate_depth then incr hard
                    else begin
                      incr soft;
                      Printf.printf
                        "warning: %s regressed with only %d recorded \
                         point%s (< %d) — not gating yet\n"
                        b.History.name depth (plural depth) hard_gate_depth
                    end;
                    Some Robust.Regressed
                | Some Robust.Improved, _ | _, Some Robust.Improved ->
                    Some Robust.Improved
                | Some Robust.Steady, _ -> Some Robust.Steady
                | None, t -> t
              in
              Bbng_analysis.Table.add_row table
                [
                  b.History.name;
                  cell (Robust.median ns_hist);
                  cell b.History.ns;
                  pct (Robust.median ns_hist) b.History.ns;
                  z_cell ~history:ns_hist b.History.ns;
                  cell (Robust.median mw_hist);
                  cell b.History.minor;
                  arrow worst;
                ])
            latest.History.benches;
          Bbng_analysis.Table.print table;
          if !hard > 0 then begin
            Printf.printf
              "%d bench%s regressed past the robust gate (median + max(3*MAD \
               sigma, %.0f%%, ns floor))\n"
              !hard
              (if !hard = 1 then "" else "es")
              Robust.threshold_pct;
            exit 1
          end
          else if !soft > 0 then
            Printf.printf
              "trend: %d shallow-history regression%s (warning only below %d \
               recorded points)\n"
              !soft (plural !soft) hard_gate_depth
          else Printf.printf "trend: no significant regressions\n")
