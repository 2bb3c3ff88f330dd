module Bfs = Bbng_graph.Bfs

let c_contexts = Bbng_obs.Counter.make "deveval.contexts"
let c_evals = Bbng_obs.Counter.make "deveval.incremental_evals"
let c_rows_built = Bbng_obs.Counter.make "deveval.rows_built"
let c_rows_evicted = Bbng_obs.Counter.make "deveval.rows_evicted"
let c_row_hits = Bbng_obs.Counter.make "deveval.row_hits"

type engine = Bfs_overlay | Rows

let engine_name = function Bfs_overlay -> "bfs" | Rows -> "rows"

let engine_of_name = function
  | "bfs" -> Some Bfs_overlay
  | "rows" -> Some Rows
  | _ -> None

type choice = Fixed of engine | Auto

let choice_name = function Fixed e -> engine_name e | Auto -> "auto"

let choice_of_name = function
  | "auto" -> Some Auto
  | s -> Option.map (fun e -> Fixed e) (engine_of_name s)

(* Process-wide default, set once by the CLI/bench --eval-engine flag
   before any context exists; contexts resolve it at [make] time, so
   domains spawned later inherit it without signature churn. *)
let default = Atomic.make Auto
let set_default_choice c = Atomic.set default c
let default_choice () = Atomic.get default

(* Distance rows of the player-deleted static graph, built lazily one
   BFS at a time.  [rows.(v)] caches dist_{G∖player}(v, ·); [base] is
   the single multi-source row min over staticN(player).  FIFO eviction
   under [cap] keeps the worst case at O(cap · n) ints.  [rows] may be
   longer than the context's [n] (a reused context keeps its largest
   table); only indices below [n] are ever touched. *)
type rows_state = {
  mutable cap : int;
  mutable rows : int array option array;
  order : int Queue.t;          (* build order of live cached rows *)
  mutable live : int;
  mutable base : int array option;
  mutable hits : int;           (* cache hits not yet added to the counter *)
}

(* Every field that depends on the captured (profile, player) is
   mutable so {!reset} can re-seat a context without reallocating it:
   the arrays are capacity-sized (length >= [n], grown on demand) and
   only their first [n] (or [static_offs.(n)]) cells are meaningful. *)
type t = {
  mutable version : Cost.version;
  mutable player : int;
  mutable n : int;
  mutable engine : engine;
  (* all arcs except the player's owned ones, in flat CSR shape: row u
     is static_targets.[static_offs.(u) .. static_offs.(u+1)).  The
     BFS and min-combine hot loops below are straight int-array scans
     over these two vectors — no per-vertex array chase, no closure. *)
  mutable static_offs : int array;       (* n + 1 *)
  mutable static_targets : int array;
  mutable own : int array;
      (* the player's strategy in the profile: the profile's own
         immutable array, shared rather than copied *)
  mutable rows_state : rows_state option;  (* Some iff engine = Rows *)
  (* reusable scratch: [seen.(v) = stamp] marks validity of [dist.(v)] *)
  mutable stamp : int;
  mutable seen : int array;
  mutable dist : int array;
  mutable queue : int array;
  mutable comp_seen : int array;         (* second stamp space for kappa *)
  (* cooperative cancellation: each evaluation checkpoints the token on
     entry and charges its work after, so a deadline or work limit
     stops a candidate scan between evaluations (a single eval is
     bounded).  Mutable so a context can be warmed up unlimited and
     budgeted afterwards. *)
  mutable budget : Bbng_obs.Budgeted.t;
}

(* Rows beat the overlay BFS once a candidate scan re-visits targets,
   which C(n-1, b) enumeration does heavily for b >= 2; at b <= 1 every
   row is used once and the overlay's single BFS is already optimal. *)
let resolve_choice choice ~budget_size =
  match choice with
  | Fixed e -> e
  | Auto -> if budget_size >= 2 then Rows else Bfs_overlay

let create () =
  {
    version = Cost.Sum;
    player = 0;
    n = 0;
    engine = Bfs_overlay;
    static_offs = [| 0 |];
    static_targets = [| 0 |];
    own = [||];
    rows_state = None;
    stamp = 0;
    seen = [||];
    dist = [||];
    queue = [| 0 |];
    comp_seen = [||];
    budget = Bbng_obs.Budgeted.unlimited;
  }

(* Forget every cached row (the table itself stays for the next
   profile).  Only live rows can be non-[None], and [order] lists
   exactly those, so clearing costs O(live), not O(n). *)
let clear_rows rs =
  Queue.iter (fun v -> rs.rows.(v) <- None) rs.order;
  Queue.clear rs.order;
  rs.live <- 0;
  rs.base <- None;
  (* hits an interrupted evaluation never flushed *)
  if rs.hits > 0 then begin
    Bbng_obs.Counter.add c_row_hits rs.hits;
    rs.hits <- 0
  end

let release t =
  (match t.rows_state with Some rs -> clear_rows rs | None -> ());
  t.own <- [||];
  t.budget <- Bbng_obs.Budgeted.unlimited

let reset ?(budget = Bbng_obs.Budgeted.unlimited) ?engine ?row_cache_cap t
    version profile ~player =
  Bbng_obs.Counter.bump c_contexts;
  let n = Strategy.n profile in
  if player < 0 || player >= n then invalid_arg "Deviation_eval.make: bad player";
  (* vertex-indexed scratch: grown (never shrunk) to the new n; the
     stamp keeps counting, so stale marks in reused cells stay stale *)
  if Array.length t.seen < n then begin
    t.seen <- Array.make n 0;
    t.dist <- Array.make n 0;
    t.queue <- Array.make n 0;
    t.comp_seen <- Array.make n 0;
    t.static_offs <- Array.make (n + 1) 0
  end;
  (* static CSR: count degrees into [static_offs.(u + 1)], prefix-sum,
     then fill through a cursor kept in [dist] (free scratch between
     evaluations: no cell of it is read before an evaluation writes it) *)
  let offs = t.static_offs in
  Array.fill offs 0 (n + 1) 0;
  for i = 0 to n - 1 do
    if i <> player then begin
      let s = Strategy.strategy profile i in
      offs.(i + 1) <- offs.(i + 1) + Array.length s;
      for k = 0 to Array.length s - 1 do
        offs.(s.(k) + 1) <- offs.(s.(k) + 1) + 1
      done
    end
  done;
  for i = 0 to n - 1 do
    offs.(i + 1) <- offs.(i) + offs.(i + 1)
  done;
  if Array.length t.static_targets < offs.(n) then
    t.static_targets <- Array.make offs.(n) 0;
  let adj = t.static_targets and fill = t.dist in
  Array.blit offs 0 fill 0 n;
  for i = 0 to n - 1 do
    if i <> player then begin
      let s = Strategy.strategy profile i in
      for k = 0 to Array.length s - 1 do
        let j = s.(k) in
        adj.(fill.(i)) <- j;
        fill.(i) <- fill.(i) + 1;
        adj.(fill.(j)) <- i;
        fill.(j) <- fill.(j) + 1
      done
    end
  done;
  let own = Strategy.strategy profile player in
  let choice =
    match engine with Some c -> c | None -> Atomic.get default
  in
  let engine = resolve_choice choice ~budget_size:(Array.length own) in
  (match engine with
  | Bfs_overlay -> t.rows_state <- None
  | Rows ->
      (* default cap: whole-row cache up to ~8M ints (64 MB), never
         below 16 rows — at paper scales this never evicts *)
      let cap =
        match row_cache_cap with
        | Some c -> max 1 c
        | None -> max 16 (8_388_608 / max n 1)
      in
      t.rows_state <-
        (match t.rows_state with
        | Some rs when Array.length rs.rows >= n ->
            clear_rows rs;
            rs.cap <- cap;
            Some rs
        | _ ->
            Some
              {
                cap;
                rows = Array.make n None;
                order = Queue.create ();
                live = 0;
                base = None;
                hits = 0;
              }));
  t.version <- version;
  t.player <- player;
  t.n <- n;
  t.engine <- engine;
  t.own <- own;
  t.budget <- budget

let make ?budget ?engine ?row_cache_cap version profile ~player =
  let t = create () in
  reset ?budget ?engine ?row_cache_cap t version profile ~player;
  t

let player t = t.player
let version t = t.version
let engine t = t.engine
let budget t = t.budget
let set_budget t budget = t.budget <- budget

(* Count connected components among vertices not reached by the last
   evaluation, walking only static adjacency (correct: no static edge
   joins a reached and an unreached vertex — see the interface
   comment).  Both engines mark their reach set into [seen] under the
   current [stamp] before calling this. *)
let unreached_components t =
  let comps = ref 0 in
  let stamp = t.stamp in
  let seen = t.seen and comp_seen = t.comp_seen and queue = t.queue in
  let offs = t.static_offs and adj = t.static_targets in
  for start = 0 to t.n - 1 do
    if seen.(start) <> stamp && comp_seen.(start) <> stamp then begin
      incr comps;
      (* small DFS with the shared queue as a stack *)
      let top = ref 1 in
      queue.(0) <- start;
      comp_seen.(start) <- stamp;
      while !top > 0 do
        decr top;
        let u = queue.(!top) in
        for k = offs.(u) to offs.(u + 1) - 1 do
          let v = adj.(k) in
          if seen.(v) <> stamp && comp_seen.(v) <> stamp then begin
            comp_seen.(v) <- stamp;
            queue.(!top) <- v;
            incr top
          end
        done
      done
    end
  done;
  !comps

let validate_targets t targets =
  let b = Array.length targets in
  for i = 0 to b - 1 do
    let v = targets.(i) in
    if v < 0 || v >= t.n then invalid_arg "Deviation_eval.cost: target out of range";
    if v = t.player then invalid_arg "Deviation_eval.cost: self target";
    (* a duplicate under-spends the budget while pricing as if legal;
       b is tiny, so the quadratic check is cheaper than sorting *)
    for j = i + 1 to b - 1 do
      if targets.(j) = v then invalid_arg "Deviation_eval.cost: duplicate target"
    done
  done

(* --- overlay engine: one fresh BFS per candidate --- *)

let overlay_cost t targets =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let offs = t.static_offs and adj = t.static_targets in
  let seen = t.seen and dist = t.dist and queue = t.queue in
  (* closure-free: this runs once per candidate, so the seeding below
     is spelled out instead of going through a local [visit] *)
  let tail = ref 0 in
  seen.(t.player) <- stamp;
  dist.(t.player) <- 0;
  queue.(0) <- t.player;
  tail := 1;
  (* the player's tentative arcs only matter as first steps *)
  for k = 0 to Array.length targets - 1 do
    let v = targets.(k) in
    if seen.(v) <> stamp then begin
      seen.(v) <- stamp;
      dist.(v) <- 1;
      queue.(!tail) <- v;
      incr tail
    end
  done;
  for k = offs.(t.player) to offs.(t.player + 1) - 1 do
    let v = adj.(k) in
    if seen.(v) <> stamp then begin
      seen.(v) <- stamp;
      dist.(v) <- 1;
      queue.(!tail) <- v;
      incr tail
    end
  done;
  (* skip the player itself in the queue: position 0 *)
  let head = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = dist.(u) + 1 in
    for k = offs.(u) to offs.(u + 1) - 1 do
      let v = adj.(k) in
      if seen.(v) <> stamp then begin
        seen.(v) <- stamp;
        dist.(v) <- du1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  let reached = !tail in
  Bbng_obs.Budgeted.spend t.budget reached;
  let inf = t.n * t.n in
  match t.version with
  | Cost.Sum ->
      let acc = ref 0 in
      for i = 0 to reached - 1 do
        acc := !acc + dist.(queue.(i))
      done;
      !acc + ((t.n - reached) * inf)
  | Cost.Max ->
      if reached = t.n then begin
        let acc = ref 0 in
        for i = 0 to reached - 1 do
          if dist.(queue.(i)) > !acc then acc := dist.(queue.(i))
        done;
        !acc
      end
      else begin
        (* kappa = 1 (player's component) + components among unreached *)
        let kappa = 1 + unreached_components t in
        inf + ((kappa - 1) * inf)
      end

(* --- rows engine: per-target distance rows, O(b·n) combine --- *)

(* One BFS of the player-deleted static graph from the seeds already
   placed in [t.queue]; the row maps every vertex to its distance from
   the nearest seed (the sentinel n² elsewhere, including at the
   player).  The cache is only updated after the BFS completes, so an
   exception (budget expiry, an injected fault) or a SIGKILL mid-build
   never leaves a torn row. *)
let finish_row t row tail0 =
  let inf = t.n * t.n in
  (* the context's fields are mutable (see [reset]): read them once *)
  let offs = t.static_offs and adj = t.static_targets in
  let queue = t.queue and player = t.player in
  let head = ref 0 and tail = ref tail0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = row.(u) + 1 in
    for k = offs.(u) to offs.(u + 1) - 1 do
      let v = adj.(k) in
      if v <> player && row.(v) = inf then begin
        row.(v) <- du1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  Bbng_obs.Budgeted.spend t.budget !tail;
  row

let build_row_single t target =
  Bbng_obs.Fault.hit "deveval.row_build";
  Bbng_obs.Counter.bump c_rows_built;
  let row = Array.make t.n (t.n * t.n) in
  row.(target) <- 0;
  t.queue.(0) <- target;
  finish_row t row 1

(* seeded by the player's static neighbourhood (duplicates merged —
   a brace contributes the same endpoint twice) *)
let build_base_row t =
  Bbng_obs.Fault.hit "deveval.row_build";
  Bbng_obs.Counter.bump c_rows_built;
  let inf = t.n * t.n in
  let row = Array.make t.n inf in
  let tail = ref 0 in
  for k = t.static_offs.(t.player) to t.static_offs.(t.player + 1) - 1 do
    let s = t.static_targets.(k) in
    if row.(s) = inf then begin
      row.(s) <- 0;
      t.queue.(!tail) <- s;
      incr tail
    end
  done;
  finish_row t row !tail

let base_row t rs =
  match rs.base with
  | Some row -> row
  | None ->
      let row = build_base_row t in
      rs.base <- Some row;
      row

let miss_row t rs target =
  let row = build_row_single t target in
  if rs.live >= rs.cap then begin
    match Queue.take_opt rs.order with
    | Some victim ->
        rs.rows.(victim) <- None;
        rs.live <- rs.live - 1;
        Bbng_obs.Counter.bump c_rows_evicted
    | None -> ()
  end;
  rs.rows.(target) <- Some row;
  Queue.push target rs.order;
  rs.live <- rs.live + 1;
  row

let cached_row t rs target =
  match rs.rows.(target) with
  | Some r ->
      rs.hits <- rs.hits + 1;
      r
  | None -> miss_row t rs target

(* The (b+1)-way min-combine is the per-candidate hot path — a full
   exhaustive scan runs it C(n-1, b) times — so the ubiquitous b <= 2
   cases are unrolled: no trows allocation and no inner k-loop.  Two
   more hot-path economies: every row holds the sentinel at the player
   (build_row never relaxes it), so the combine needs no per-vertex
   player test — the player falls out of the [m < inf] branch and is
   pre-counted in [reached]; and cache-hit accounting is batched into
   one atomic [Counter.add] per evaluation instead of one bump per
   target, through a tally in the row state rather than a local ref
   and closure, so an evaluation allocates nothing.  The reach set is not marked here either: only the MAX
   disconnection walk needs the mark, and that rare path re-derives it
   from the cache-hot rows.  Rows are held by reference throughout: a
   cache eviction while gathering the next row cannot invalidate one
   already in hand. *)
let rows_cost t rs targets =
  let inf = t.n * t.n in
  let base = base_row t rs in
  let n = t.n in
  let b = Array.length targets in
  let reached = ref 1 in
  let sum = ref 0 and mx = ref 0 in
  (match b with
  | 0 ->
      for v = 0 to n - 1 do
        let m = base.(v) in
        if m < inf then begin
          let d = m + 1 in
          incr reached;
          sum := !sum + d;
          if d > !mx then mx := d
        end
      done
  | 1 ->
      let r0 = cached_row t rs targets.(0) in
      for v = 0 to n - 1 do
        let m = base.(v) in
        let d0 = r0.(v) in
        let m = if d0 < m then d0 else m in
        if m < inf then begin
          let d = m + 1 in
          incr reached;
          sum := !sum + d;
          if d > !mx then mx := d
        end
      done
  | 2 ->
      let r0 = cached_row t rs targets.(0) in
      let r1 = cached_row t rs targets.(1) in
      for v = 0 to n - 1 do
        let m = base.(v) in
        let d0 = r0.(v) in
        let m = if d0 < m then d0 else m in
        let d1 = r1.(v) in
        let m = if d1 < m then d1 else m in
        if m < inf then begin
          let d = m + 1 in
          incr reached;
          sum := !sum + d;
          if d > !mx then mx := d
        end
      done
  | _ ->
      let trows = Array.map (cached_row t rs) targets in
      for v = 0 to n - 1 do
        let m = ref base.(v) in
        for k = 0 to b - 1 do
          let d = trows.(k).(v) in
          if d < !m then m := d
        done;
        if !m < inf then begin
          let d = !m + 1 in
          incr reached;
          sum := !sum + d;
          if d > !mx then mx := d
        end
      done);
  Bbng_obs.Budgeted.spend t.budget ((b + 1) * n);
  let result =
    match t.version with
    | Cost.Sum -> !sum + ((n - !reached) * inf)
    | Cost.Max ->
        if !reached = n then !mx
        else begin
          (* disconnected under MAX: mark the reach set for the
             component walk.  Re-gathering the rows is a cache hit
             (they were just combined; a rebuild after an eviction is
             deterministic, so the mark equals the combine's reach set
             either way). *)
          let trows = Array.map (cached_row t rs) targets in
          t.stamp <- t.stamp + 1;
          let stamp = t.stamp in
          t.seen.(t.player) <- stamp;
          for v = 0 to n - 1 do
            let m = ref base.(v) in
            for k = 0 to b - 1 do
              let d = trows.(k).(v) in
              if d < !m then m := d
            done;
            if !m < inf then t.seen.(v) <- stamp
          done;
          let kappa = 1 + unreached_components t in
          inf + ((kappa - 1) * inf)
        end
  in
  if rs.hits > 0 then begin
    Bbng_obs.Counter.add c_row_hits rs.hits;
    rs.hits <- 0
  end;
  result

let cost t targets =
  Bbng_obs.Budgeted.checkpoint t.budget;
  Bbng_obs.Counter.bump c_evals;
  validate_targets t targets;
  match t.rows_state with
  | None -> overlay_cost t targets
  | Some rs -> rows_cost t rs targets

let current_cost t = cost t t.own
