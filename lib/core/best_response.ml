module Combinatorics = Bbng_graph.Combinatorics

type move = { targets : int array; cost : int }

let c_candidates = Bbng_obs.Counter.make "br.candidates"
let c_improving = Bbng_obs.Counter.make "br.improving_moves"
let c_pruned_floor = Bbng_obs.Counter.make "br.pruned_floor"
let c_pruned_lemma = Bbng_obs.Counter.make "br.pruned_lemma22"
let c_degraded = Bbng_obs.Counter.make "br.degraded_scans"

(* candidates evaluated per improvement/swap search — a pruned search
   records 0, so the distribution shows how often the floor and Lemma
   2.2 cuts fire, not just how much the surviving scans cost *)
let h_candidates = Bbng_obs.Metrics.histogram "br.candidates_per_search"

(* All evaluators share one incremental evaluation context: the static
   part of the graph is materialized once and each candidate strategy
   costs a single overlay BFS (see Deviation_eval).  The candidate walk
   leaves its tally in the two mutable fields. *)
type context = {
  profile : Strategy.t;
  player : int;
  eval_ctx : Deviation_eval.t;
  budget : int;
  floor : int;              (* Lemma 2.2 cost floor *)
  current_cost : int;
  mutable scanned : int;    (* candidates the walk priced *)
  mutable kept : move option;  (* cheapest candidate the walk kept *)
}

(* One parked evaluation context per domain, like [Csr.snapshot]'s
   one-slot memo: a census asks for n contexts per profile over
   hundreds of thousands of profiles, and re-seating one context
   ([Deviation_eval.reset]) reuses all of its arrays where [make]
   would allocate them afresh.  A search takes the context out of the
   slot for its whole duration, so a nested search on the same domain
   (or another thread's) finds the slot empty and falls back to a
   fresh context; the exchange is atomic, so no two searches ever
   share one.  Parking releases the context first, so it keeps no
   rows and no profile alive between searches. *)
let parked : Deviation_eval.t option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

(* a borrowed context goes back in its own option box; a fresh one
   (the fallback of a nested search) takes the slot over *)
let park slot borrowed eval_ctx =
  Deviation_eval.release eval_ctx;
  match borrowed with
  | Some _ -> Atomic.set slot borrowed
  | None -> Atomic.set slot (Some eval_ctx)

(* Context warm-up runs unlimited even when the caller hands us an
   already-expired token: the current cost and the floor are what the
   cheap fallback tiers (cost-floor, Lemma 2.2) compare against, and
   those must stay available under any deadline.  The caller's token is
   armed only after warm-up, so only the candidate scan can trip.

   The player's budget picks the pricing engine (Deviation_eval.make).
   Contexts are per-domain state, so parallel certification naturally
   gets one context — and one private row cache — per domain. *)
let with_context ?(scan_budget = Bbng_obs.Budgeted.unlimited) game profile
    player f =
  let n = Game.n game in
  let budget = Budget.get (Game.budgets game) player in
  let version = Game.version game in
  let slot = Domain.DLS.get parked in
  let borrowed = Atomic.exchange slot None in
  let eval_ctx =
    match borrowed with
    | Some c -> (
        match Deviation_eval.reset c version profile ~player with
        | () -> c
        | exception e ->
            Atomic.set slot borrowed;
            raise e)
    | None -> Deviation_eval.make version profile ~player
  in
  let in_degree = ref 0 in
  for i = 0 to n - 1 do
    if i <> player then begin
      let s = Strategy.strategy profile i in
      for k = 0 to Array.length s - 1 do
        if s.(k) = player then incr in_degree
      done
    end
  done;
  let floor = Cost.cost_floor version ~n ~budget ~in_degree:!in_degree in
  match
    let current_cost = Deviation_eval.current_cost eval_ctx in
    Deviation_eval.set_budget eval_ctx scan_budget;
    f
      {
        profile;
        player;
        eval_ctx;
        budget;
        floor;
        current_cost;
        scanned = 0;
        kept = None;
      }
  with
  | r ->
      park slot borrowed eval_ctx;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      park slot borrowed eval_ctx;
      Printexc.raise_with_backtrace e bt

(* Every scan prices a candidate against the threshold it must beat
   (Deviation_eval.cost_below): the result is exact when below
   [bound], and otherwise only known to be >= [bound], so a scan keeps
   a candidate only when its cost is below the bound it passed.  A
   candidate counts once it is priced: one the token refuses raises
   before the bump. *)
let eval ctx ~bound targets =
  let cost = Deviation_eval.cost_below ctx.eval_ctx targets ~bound in
  Bbng_obs.Counter.bump c_candidates;
  cost

(* Subsets of {0..n-1} \ {player} are enumerated as subsets of
   {0..n-2} and shifted past the player.  Pricing C(n-1, b) candidates
   makes a per-candidate allocation measurable against the pricing
   kernel, so the shifted candidate lives in one reusable buffer
   ([Deviation_eval.cost_below] only reads it) and escapes by copy
   only when a candidate is actually kept. *)
let unshift_into buf player c =
  for i = 0 to Array.length c - 1 do
    let x = c.(i) in
    buf.(i) <- (if x < player then x else x + 1)
  done

(* Lemma 2.2 needs only the player's eccentricity clipped at 2 and its
   brace membership, both readable straight off the profile in
   O(n + m) — realizing the digraph and its undirected projection here
   would put two graph constructions on the certifier's per-player hot
   path.  [mark]: 1 = adjacent to the player, 2 = within distance 2. *)
let satisfies_lemma_2_2 profile player =
  let n = Strategy.n profile in
  let own = Strategy.strategy profile player in
  (* plain loops, no closures: the certifier runs this for every player
     the cost floor does not settle *)
  let targets i w =
    let s = Strategy.strategy profile i in
    let found = ref false in
    for k = 0 to Array.length s - 1 do
      if s.(k) = w then found := true
    done;
    !found
  in
  let mark = Array.make n 0 in
  mark.(player) <- 2;
  let braced = ref false in
  for k = 0 to Array.length own - 1 do
    mark.(own.(k)) <- 1
  done;
  for i = 0 to n - 1 do
    if i <> player && targets i player then begin
      if mark.(i) = 1 then braced := true;
      mark.(i) <- 1
    end
  done;
  let neighbors = ref 0 in
  for v = 0 to n - 1 do
    if mark.(v) = 1 then incr neighbors
  done;
  if !neighbors = n - 1 then true (* c_MAX(u) = 1 *)
  else if !braced then false (* braced, c_MAX > 1 *)
  else begin
    (* distance-2 reach: an undirected edge into the level-1 set comes
       from an arc in either direction; level-1 marks never change in
       this pass, so one sweep settles every vertex *)
    for i = 0 to n - 1 do
      let s = Strategy.strategy profile i in
      if mark.(i) = 1 then
        for k = 0 to Array.length s - 1 do
          if mark.(s.(k)) = 0 then mark.(s.(k)) <- 2
        done
      else if mark.(i) = 0 then
        for k = 0 to Array.length s - 1 do
          if mark.(s.(k)) = 1 then mark.(i) <- 2
        done
    done;
    let all = ref true in
    for v = 0 to n - 1 do
      if mark.(v) = 0 then all := false
    done;
    !all
  end

type tier =
  | Cost_floor
  | Lemma_2_2_tier
  | Exhaustive
  | Swap_exhaustive
  | Degraded_scan

let tier_name = function
  | Cost_floor -> "cost-floor"
  | Lemma_2_2_tier -> "lemma-2.2"
  | Exhaustive -> "exact"
  | Swap_exhaustive -> "swap"
  | Degraded_scan -> "degraded"

let tier_of_name = function
  | "cost-floor" -> Some Cost_floor
  | "lemma-2.2" -> Some Lemma_2_2_tier
  | "exact" -> Some Exhaustive
  | "swap" -> Some Swap_exhaustive
  | "degraded" -> Some Degraded_scan
  | _ -> None

(* --- the candidate walk --- *)

(* The two candidate spaces.  Subsets are the C(n-1, b) strategies in
   lexicographic order; swaps drop each owned arc in turn and try every
   replacement target neither owned nor the player, increasing.  A swap
   candidate holds the kept arcs first and the replacement last, so
   consecutive candidates share everything but their last target (the
   pricing kernel's prefix). *)
type space = Subsets | Swaps

let space_size ctx space =
  let n = Strategy.n ctx.profile and b = ctx.budget in
  match space with
  | Subsets -> Combinatorics.binomial (n - 1) b
  | Swaps -> Combinatorics.Exact (b * (n - 1 - b))

(* [cur] is the walk's cursor: a combination of {0..m-1} for subsets,
   [| dropped arc; replacement |] for swaps, where [m = n - 1] is the
   number of possible targets.  [advance] steps [cur] to the next
   candidate and writes that candidate into [buf], false once the space
   is exhausted. *)
let advance ctx space ~m cur buf =
  match space with
  | Subsets ->
      Combinatorics.next_combination ~n:m cur
      && (unshift_into buf ctx.player cur;
          true)
  | Swaps ->
      let owned = Strategy.strategy ctx.profile ctx.player in
      let v = ref (cur.(1) + 1) and found = ref false in
      while (not !found) && cur.(0) < Array.length owned do
        if !v > m then begin
          cur.(0) <- cur.(0) + 1;
          v := 0
        end
        else if !v = ctx.player || Array.mem !v owned then incr v
        else found := true
      done;
      cur.(1) <- !v;
      if !found then begin
        let b = Array.length owned and drop = cur.(0) in
        Array.blit owned 0 buf 0 drop;
        Array.blit owned (drop + 1) buf drop (b - 1 - drop);
        buf.(b - 1) <- !v
      end;
      !found

(* The one candidate walk behind every search but [greedy].  Each
   candidate is priced against [min cap (cheapest kept so far)] and
   kept when it is below that, so ties keep the earlier candidate; the
   walk ends once a kept cost is below [stop].  A kept candidate
   cheaper than the current cost is an improving move.  Nothing is
   allocated per candidate: the candidate lives in one reused buffer,
   and the kept one in a second buffer made at the first keep.  The
   tally lands in [ctx.scanned] and [ctx.kept] (a swap is kept
   sorted).  With [~degrade] an expired token ends the walk as a
   [Degraded_scan] (the refused candidate was never priced nor
   counted); otherwise [Budgeted.Expired] propagates. *)
let walk ctx space ~cap ~stop ~degrade =
  let k = ctx.budget and m = Strategy.n ctx.profile - 1 in
  let buf = Array.make k 0 in
  let cur, first =
    match space with
    | Subsets ->
        let cur = Array.init k Fun.id in
        if k <= m then unshift_into buf ctx.player cur;
        (cur, k <= m)
    | Swaps ->
        let cur = [| 0; -1 |] in
        (cur, advance ctx space ~m cur buf)
  in
  let best = ref [||] and best_cost = ref cap and scanned = ref 0 in
  let more = ref first in
  let tier =
    match
      while !more do
        let cost = eval ctx ~bound:!best_cost buf in
        incr scanned;
        if cost < !best_cost then begin
          if cost < ctx.current_cost then Bbng_obs.Counter.bump c_improving;
          best_cost := cost;
          (* the first keep makes the buffer (an empty candidate needs
             none) *)
          if Array.length !best = 0 then best := Array.copy buf
          else Array.blit buf 0 !best 0 k
        end;
        more := !best_cost >= stop && advance ctx space ~m cur buf
      done
    with
    | () -> ( match space with Subsets -> Exhaustive | Swaps -> Swap_exhaustive)
    | exception Bbng_obs.Budgeted.Expired when degrade ->
        Bbng_obs.Counter.bump c_degraded;
        Degraded_scan
  in
  ctx.scanned <- !scanned;
  if !best_cost < cap then begin
    (match space with Subsets -> () | Swaps -> Array.sort Int.compare !best);
    ctx.kept <- Some { targets = !best; cost = !best_cost }
  end;
  tier

let record_search_size evals =
  if Bbng_obs.Span.enabled () then Bbng_obs.Metrics.observe h_candidates evals

(* The pruning ladder every search but [exact] climbs: the cost floor,
   then Lemma 2.2 (exact best responses only), then the walk. *)
let ladder ctx space ~cap ~stop ~degrade =
  let tier =
    if ctx.current_cost <= ctx.floor then begin
      Bbng_obs.Counter.bump c_pruned_floor;
      Cost_floor
    end
    else if
      space = Subsets && satisfies_lemma_2_2 ctx.profile ctx.player
    then begin
      Bbng_obs.Counter.bump c_pruned_lemma;
      Lemma_2_2_tier
    end
    else walk ctx space ~cap ~stop ~degrade
  in
  record_search_size ctx.scanned;
  tier

let exact ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  ignore (walk ctx Subsets ~cap:max_int ~stop:(ctx.floor + 1) ~degrade:false : tier);
  Option.get ctx.kept

(* A refutation is an improving move paired with the current cost the
   context already priced, so a certifier reporting "improves c -> c'"
   never re-prices the profile through the generic route.  Each search
   below hands [with_context] a closure with no free variables, so no
   search allocates one. *)
let refute ctx space ~stop =
  ignore (ladder ctx space ~cap:ctx.current_cost ~stop ~degrade:false : tier);
  match ctx.kept with Some m -> Some (m, ctx.current_cost) | None -> None

let exact_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  refute ctx Subsets ~stop:ctx.current_cost

let best_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  refute ctx Subsets ~stop:(ctx.floor + 1)

let best_improvement ?budget game profile player =
  Option.map fst (best_refutation ?budget game profile player)

let swap_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  refute ctx Swaps ~stop:ctx.current_cost

let swap_best_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  refute ctx Swaps ~stop:min_int

(* --- audited checks: the same ladder, with evidence --- *)

type audit = {
  tier : tier;
  engine : Deviation_eval.engine;
  scanned : int;
  candidates : Combinatorics.count;
  current : int;
  best : move option;
  improving : move option;
}

(* An audit keeps the cheapest candidate of all (not just improving
   ones) and stops at the first improvement, so a no-improvement audit
   is a complete scan whose [best] witnesses "nothing beats the current
   strategy", while a refutation audit stops as early as the plain
   certifier would.  [candidates] is the size of the space the tier set
   out to scan — it stays on the audit even when the scan degrades, so
   a verifier can compare it against its own re-count. *)
let audit ctx space =
  let tier = ladder ctx space ~cap:max_int ~stop:ctx.current_cost ~degrade:true in
  {
    tier;
    engine = Deviation_eval.engine ctx.eval_ctx;
    scanned = ctx.scanned;
    candidates =
      (match tier with
      | Cost_floor | Lemma_2_2_tier -> Combinatorics.Exact 0
      | Exhaustive | Swap_exhaustive | Degraded_scan -> space_size ctx space);
    current = ctx.current_cost;
    best = ctx.kept;
    (* the walk stops at the first improving keep, so a degraded audit
       has none *)
    improving =
      (match ctx.kept with
      | Some m when m.cost < ctx.current_cost -> ctx.kept
      | Some _ | None -> None);
  }

let audit_exact ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  audit ctx Subsets

let audit_swap ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  audit ctx Swaps

let greedy ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  let n = Game.n game in
  let chosen = ref [] in
  let is_chosen v = List.mem v !chosen in
  for _step = 1 to ctx.budget do
    let best_v = ref (-1) and best_cost = ref max_int in
    for v = 0 to n - 1 do
      if v <> player && not (is_chosen v) then begin
        (* Partial target sets are legal digraph-wise even though they
           violate the budget; cost is still well defined. *)
        let targets = Array.of_list (v :: !chosen) in
        Array.sort compare targets;
        let cost = eval ctx ~bound:!best_cost targets in
        if cost < !best_cost then begin
          best_cost := cost;
          best_v := v
        end
      end
    done;
    chosen := !best_v :: !chosen
  done;
  let targets = Array.of_list !chosen in
  Array.sort compare targets;
  { targets; cost = eval ctx ~bound:max_int targets }
