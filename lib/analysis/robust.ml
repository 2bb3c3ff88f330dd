(* Robust location/scale statistics for noisy benchmark trajectories:
   the median ignores outlier runs entirely, and the MAD-derived sigma
   (1.4826 * MAD, consistent for a normal distribution) gives a spread
   estimate that one slow CI machine cannot inflate. *)

let median values =
  match values with
  | [] -> None
  | _ ->
      let a = Array.of_list values in
      Array.sort compare a;
      let n = Array.length a in
      Some
        (if n mod 2 = 1 then a.(n / 2)
         else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

let mad values =
  match median values with
  | None -> None
  | Some m -> median (List.map (fun v -> Float.abs (v -. m)) values)

type trend = Regressed | Improved | Steady

let threshold_pct = 25.

(* Timings below 100 ns swing by more than any percentage gate on a
   shared machine; allocation counts are exact, so they get no floor. *)
let floor ~metric =
  if String.ends_with ~suffix:"ns_per_run" metric then 100. else 0.

(* Significance gate: latest vs history median, flagged only past
   max(3 * 1.4826 * MAD, threshold_pct% of the median, floor).  The
   MAD term adapts to each bench's own run-to-run noise; the
   percentage term takes over when the history happens to be eerily
   stable (MAD 0 on identical entries), and the absolute floor keeps
   sub-100ns benches from flapping. *)
let classify ?(threshold_pct = threshold_pct) ~metric ~history latest =
  match (median history, mad history) with
  | Some m, Some d ->
      let sigma = 1.4826 *. d in
      let gate =
        Float.max (3. *. sigma)
          (Float.max (threshold_pct *. Float.abs m /. 100.) (floor ~metric))
      in
      let delta = latest -. m in
      if delta > gate then Some Regressed
      else if -.delta > gate then Some Improved
      else Some Steady
  | _ -> None

let sigma_score ~history latest =
  match (median history, mad history) with
  | Some m, Some d when d > 0. -> Some ((latest -. m) /. (1.4826 *. d))
  | _ -> None
