module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected
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
   costs a single overlay BFS (see Deviation_eval). *)
type context = {
  game : Game.t;
  profile : Strategy.t;
  player : int;
  eval_ctx : Deviation_eval.t;
  budget : int;
  in_degree : int;
  floor : int;              (* Lemma 2.2 cost floor *)
  current_cost : int;
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
        game;
        profile;
        player;
        eval_ctx;
        budget;
        in_degree = !in_degree;
        floor;
        current_cost;
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

(* A kept move escapes the scan's reused buffer as a sorted copy. *)
let sorted_copy targets =
  let a = Array.copy targets in
  Array.sort Int.compare a;
  a

let exact ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  let m = Game.n game - 1 and k = ctx.budget in
  assert (k <= m);
  (* each candidate is priced against the cheapest so far, so a tie
     keeps the earlier, lexicographically smaller set; the scan stops
     once the best reaches the floor *)
  let c = Array.init k Fun.id and buf = Array.make k 0 in
  let best = Array.make k 0 and best_cost = ref max_int in
  let continue = ref true in
  while !continue do
    unshift_into buf player c;
    let cost = eval ctx ~bound:!best_cost buf in
    if cost < !best_cost then begin
      best_cost := cost;
      Array.blit buf 0 best 0 k
    end;
    continue := !best_cost > ctx.floor && Combinatorics.next_combination ~n:m c
  done;
  { targets = best; cost = !best_cost }

let record_search_size evals =
  if Bbng_obs.Span.enabled () then Bbng_obs.Metrics.observe h_candidates evals

let scan_for_improvement ctx ~stop_at_first =
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    record_search_size 0;
    None
  end
  else if satisfies_lemma_2_2 ctx.profile ctx.player then begin
    Bbng_obs.Counter.bump c_pruned_lemma;
    record_search_size 0;
    None
  end
  else begin
    (* a plain odometer loop rather than [iter_combinations] and an
       exception: no closure, and the refs stay unboxed *)
    let m = Game.n ctx.game - 1 and k = ctx.budget in
    let best = ref None in
    let evals = ref 0 in
    if k <= m then begin
      let c = Array.init k Fun.id in
      let buf = Array.make k 0 in
      let continue = ref true in
      while !continue do
        unshift_into buf ctx.player c;
        incr evals;
        (* only a candidate cheaper than the current strategy and than
           the best improvement so far can change the answer *)
        let bound =
          match !best with None -> ctx.current_cost | Some b -> b.cost
        in
        let cost = eval ctx ~bound buf in
        if cost < bound then begin
          Bbng_obs.Counter.bump c_improving;
          best := Some { targets = Array.copy buf; cost };
          if stop_at_first || cost <= ctx.floor then continue := false
        end;
        if !continue then continue := Combinatorics.next_combination ~n:m c
      done
    end;
    record_search_size !evals;
    !best
  end

(* The refutation variants hand back the current cost the context
   already priced, so a certifier reporting "improves c -> c'" never
   re-prices the profile through the generic route. *)
let with_current ctx = function
  | Some m -> Some (m, ctx.current_cost)
  | None -> None

let exact_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  with_current ctx (scan_for_improvement ctx ~stop_at_first:true)

let exact_improvement ?budget game profile player =
  Option.map fst (exact_refutation ?budget game profile player)

let best_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  with_current ctx (scan_for_improvement ctx ~stop_at_first:false)

let best_improvement ?budget game profile player =
  Option.map fst (best_refutation ?budget game profile player)

(* Every single-arc swap: drop each owned arc in turn and try every
   replacement target neither owned nor the player, in increasing
   order.  [f] gets one reused buffer holding the kept arcs first and
   the replacement last, so consecutive candidates share everything
   but their last target (the pricing kernel's prefix). *)
let iter_swaps ctx f =
  let owned = Strategy.strategy ctx.profile ctx.player in
  let n = Game.n ctx.game and b = Array.length owned in
  let buf = Array.make b 0 in
  for drop = 0 to b - 1 do
    Array.blit owned 0 buf 0 drop;
    Array.blit owned (drop + 1) buf drop (b - 1 - drop);
    for v = 0 to n - 1 do
      if v <> ctx.player && not (Array.mem v owned) then begin
        buf.(b - 1) <- v;
        f buf
      end
    done
  done

let swap_scan ctx ~stop_at_first =
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    record_search_size 0;
    None
  end
  else begin
    let best = ref None in
    let evals = ref 0 in
    (try
       iter_swaps ctx (fun targets ->
           incr evals;
           let bound =
             match !best with None -> ctx.current_cost | Some m -> m.cost
           in
           let cost = eval ctx ~bound targets in
           if cost < bound then begin
             Bbng_obs.Counter.bump c_improving;
             best := Some { targets = sorted_copy targets; cost };
             if stop_at_first then raise Exit
           end)
     with Exit -> ());
    record_search_size !evals;
    !best
  end

let swap_best_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  with_current ctx (swap_scan ctx ~stop_at_first:false)

let swap_best ?budget game profile player =
  Option.map fst (swap_best_refutation ?budget game profile player)

let swap_refutation ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  with_current ctx (swap_scan ctx ~stop_at_first:true)

let first_improving_swap ?budget game profile player =
  Option.map fst (swap_refutation ?budget game profile player)

(* --- audited checks: the same ladder, with evidence --- *)

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

type audit = {
  tier : tier;
  engine : Deviation_eval.engine;
  scanned : int;
  candidates : Combinatorics.count;
  current : int;
  best : move option;
  improving : move option;
}

(* Shared audited scan: walk candidates tracking the global cheapest
   one (not just improving ones), stopping at the first strict
   improvement — so a no-improvement audit is a complete scan whose
   [best] witnesses "nothing beats the current strategy" (the current
   strategy itself is among the exact-tier candidates, hence
   [best.cost = current] at an equilibrium), while a refutation audit
   stops as early as the plain certifier would.  [~candidates] is the
   size of the space the tier set out to scan — it stays on the audit
   even when the scan degrades, so a verifier can compare it against
   its own re-count.  Each candidate is priced against the cheapest so
   far, so [best] stays exact (ties keep the earlier candidate), and
   an improving candidate is always below that bound: every earlier
   one cost at least the current cost, or the scan would have
   stopped.  [iter_targets] may hand out one reused buffer; a kept
   move is a sorted copy. *)
let audit_candidates ctx ~tier ~candidates iter_targets =
  let best = ref None in
  let improving = ref None in
  let scanned = ref 0 in
  let interrupted = ref false in
  (try
     iter_targets (fun targets ->
         let bound = match !best with None -> max_int | Some m -> m.cost in
         let cost = eval ctx ~bound targets in
         incr scanned;
         if cost < bound then begin
           let m = { targets = sorted_copy targets; cost } in
           best := Some m;
           if cost < ctx.current_cost then begin
             Bbng_obs.Counter.bump c_improving;
             improving := Some m;
             raise Exit
           end
         end)
   with
  | Exit -> ()
  | Bbng_obs.Budgeted.Expired ->
      (* the raising candidate was never priced nor counted; [best] is
         the cheapest of what was *)
      interrupted := true;
      Bbng_obs.Counter.bump c_degraded);
  record_search_size !scanned;
  {
    tier = (if !interrupted then Degraded_scan else tier);
    engine = Deviation_eval.engine ctx.eval_ctx;
    scanned = !scanned;
    candidates;
    current = ctx.current_cost;
    best = !best;
    (* a found improvement always escapes via Exit before any further
       eval, so an interrupted scan has [improving = None] by
       construction *)
    improving = !improving;
  }

let pruned_audit ctx tier =
  record_search_size 0;
  {
    tier;
    engine = Deviation_eval.engine ctx.eval_ctx;
    scanned = 0;
    candidates = Combinatorics.Exact 0;
    current = ctx.current_cost;
    best = None;
    improving = None;
  }

let audit_exact ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    pruned_audit ctx Cost_floor
  end
  else if satisfies_lemma_2_2 ctx.profile ctx.player then begin
    Bbng_obs.Counter.bump c_pruned_lemma;
    pruned_audit ctx Lemma_2_2_tier
  end
  else
    let n = Game.n ctx.game in
    audit_candidates ctx ~tier:Exhaustive
      ~candidates:(Combinatorics.binomial (n - 1) ctx.budget)
      (fun f ->
        let buf = Array.make ctx.budget 0 in
        Combinatorics.iter_combinations ~n:(n - 1) ~k:ctx.budget (fun c ->
            unshift_into buf ctx.player c;
            f buf))

let audit_swap ?budget game profile player =
  with_context ?scan_budget:budget game profile player @@ fun ctx ->
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    pruned_audit ctx Cost_floor
  end
  else
    let n = Game.n ctx.game in
    audit_candidates ctx ~tier:Swap_exhaustive
      ~candidates:(Combinatorics.Exact (ctx.budget * (n - 1 - ctx.budget)))
      (iter_swaps ctx)

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
