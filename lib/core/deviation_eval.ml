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

(* Distance rows of the player-deleted static graph, built lazily one
   BFS at a time.  [rows.(v)] caches dist_{G∖player}(v, ·); [base] is
   the single multi-source row min over staticN(player).  FIFO eviction
   under [cap] keeps the worst case at O(cap · n) ints.  [rows] may be
   longer than the context's [n] (a reused context keeps its largest
   table); only indices below [n] are ever touched.

   A row is stored in one of two representations, chosen once per
   context when the base row is built (see [prefer_levels]) and shared
   by every row of that context:
   - an int row: [row.(v)] is the distance, n² where unreachable;
   - level bitsets: [row.(0)] is the top level [top], and level
     [d <= top] occupies the [words] cells from [1 + d·words]; it is
     the set {v : dist(v) <= d}, bit [v mod 62] of word [v / 62].
     Levels above [top] equal level [top].

   Level-bitset contexts also keep each row's level populations |L^d|
   for d < [stride], outside the row: [pops.(v·stride + d)] for the
   row of target v, and the player's slot (never a target) for the
   base row.  [stride] is one more than the context's depth bound,
   which no row's top exceeds.  A candidate is priced as the union of
   two rows: the last target's, and the [prefix] row, the base OR'd
   with every other target's row.  The prefix is built once per
   distinct [prefix_key] (the candidate's targets but the last) into a
   reused buffer laid out like a row with [stride] levels, followed by
   its own populations |P^d| at [1 + stride·words + d]. *)
type rows_state = {
  mutable cap : int;
  mutable rows : int array option array;
  order : int Queue.t;          (* build order of live cached rows *)
  mutable live : int;
  mutable base : int array option;
  mutable hits : int;           (* cache hits not yet added to the counter *)
  mutable levels : bool;        (* level bitsets, else int rows *)
  mutable words : int;          (* ⌈n/62⌉: cells per level *)
  mutable base_depth : int;     (* the base row's largest finite entry *)
  mutable stride : int;         (* depth bound + 1: levels per population *)
  mutable pops : int array;     (* |L^d| per row, [stride] per vertex *)
  mutable prefix : int array;
  mutable prefix_key : int array;
  mutable prefix_len : int;     (* targets under [prefix]; -1: none *)
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
  rs.prefix_len <- -1;
  (* hits an interrupted evaluation never flushed *)
  if rs.hits > 0 then begin
    Bbng_obs.Counter.add c_row_hits rs.hits;
    rs.hits <- 0
  end

let release t =
  (match t.rows_state with Some rs -> clear_rows rs | None -> ());
  t.own <- [||];
  t.budget <- Bbng_obs.Budgeted.unlimited

let check_player fn profile player =
  if player < 0 || player >= Strategy.n profile then
    invalid_arg (fn ^ ": bad player")

(* [reset] without the player check; [Some] engine overrides the
   budget rule (only [make] exposes it) *)
let reseat ?(budget = Bbng_obs.Budgeted.unlimited) ?row_cache_cap ~engine t
    version profile ~player =
  Bbng_obs.Counter.bump c_contexts;
  let n = Strategy.n profile in
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
  (* the budget rule: rows beat the overlay BFS once a candidate scan
     re-visits targets, which C(n-1, b) enumeration does heavily for
     b >= 2; at b <= 1 every row is used once and the overlay's single
     BFS is already optimal *)
  let engine =
    match engine with
    | Some e -> e
    | None -> if Array.length own >= 2 then Rows else Bfs_overlay
  in
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
                levels = false;
                words = 0;
                base_depth = 0;
                stride = 1;
                pops = [||];
                prefix = [||];
                prefix_key = [||];
                prefix_len = -1;
              }));
  t.version <- version;
  t.player <- player;
  t.n <- n;
  t.engine <- engine;
  t.own <- own;
  t.budget <- budget

let reset ?budget ?row_cache_cap t version profile ~player =
  check_player "Deviation_eval.reset" profile player;
  reseat ?budget ?row_cache_cap ~engine:None t version profile ~player

let make ?budget ?engine ?row_cache_cap version profile ~player =
  check_player "Deviation_eval.make" profile player;
  let t = create () in
  reseat ?budget ?row_cache_cap ~engine t version profile ~player;
  t

let player t = t.player
let version t = t.version
let engine t = t.engine

type row_layout = Int_rows | Level_bitsets

let row_layout t =
  match t.rows_state with
  | Some { base = Some _; levels; _ } ->
      Some (if levels then Level_bitsets else Int_rows)
  | _ -> None

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

(* --- rows engine: per-target distance rows --- *)

(* One BFS of the player-deleted static graph from the seeds already
   placed in [t.queue.(0 .. tail0 - 1)] (each holding 0 in [row], every
   other cell the sentinel n²); the row ends up mapping every vertex to
   its distance from the nearest seed (the sentinel elsewhere,
   including at the player).  Returns the reached count; the reached
   vertices are left in [t.queue] in BFS order, hence by distance.  The
   cache is only updated after the BFS completes, so an exception
   (budget expiry, an injected fault) or a SIGKILL mid-build never
   leaves a torn row. *)
let bfs_row t row tail0 =
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
  !tail

(* Bits per level word: 62 keeps every word non-negative (bit 62 is an
   OCaml int's sign bit), so [popcount] needs no sign handling. *)
let word_bits = 62

(* SWAR population count of a word below 2^62.  The multiply sums the
   eight byte counts into the top byte (bits 56..62); the total is at
   most 62, so it never overflows those seven bits. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* The representation rule.  Level bitsets price a candidate in at
   most D + 2 levels of ⌈n/62⌉ word ORs and popcounts, where the
   coverage depth D is at most [depth]: the base row's depth inside the
   base's reach (see [build_row]), and beyond it the largest diameter
   among the components the base misses ([unreached_depth]).  Int rows
   take n min-steps.  So bitsets win on shallow graphs, and deep ones
   (paths, tripods, circulants) keep int rows.  Full scans of b = 2 circulants (i -> {i+1, i+s}) put the break-even
   near (depth+1)·words = n at n = 200 and 500; the factor 2 keeps the
   bitsets clear of it. *)
let prefer_levels ~n ~words ~depth = 2 * (depth + 1) * words <= n

(* Whether [v] is in level [d] of the level-bitset row [r]. *)
let level_mem r words d v =
  (r.(1 + (d * words) + (v / word_bits)) lsr (v mod word_bits)) land 1 = 1

(* Pack the BFS just run into [t.dist] ([reached] vertices in
   [t.queue], by distance) as level bitsets, truncated at [limit], and
   write the levels' populations into [slot]'s stride of [rs.pops]. *)
let pack_levels t rs reached ~limit ~slot =
  let dist = t.dist and queue = t.queue and w = rs.words in
  let depth = if reached = 0 then 0 else dist.(queue.(reached - 1)) in
  let top = if depth < limit then depth else limit in
  assert (top < rs.stride);
  let row = Array.make (1 + ((top + 1) * w)) 0 in
  row.(0) <- top;
  let pops = rs.pops and o = slot * rs.stride in
  Array.fill pops o rs.stride 0;
  (* each vertex into the shell of its own distance, then prefix-OR
     the shells into cumulative levels and prefix-sum the shell sizes
     into level populations (constant above [top]) *)
  let i = ref 0 in
  while !i < reached && dist.(queue.(!i)) <= top do
    let v = queue.(!i) in
    let k = 1 + (dist.(v) * w) + (v / word_bits) in
    row.(k) <- row.(k) lor (1 lsl (v mod word_bits));
    pops.(o + dist.(v)) <- pops.(o + dist.(v)) + 1;
    incr i
  done;
  for k = 1 + w to (top + 1) * w do
    row.(k) <- row.(k) lor row.(k - w)
  done;
  for d = 1 to rs.stride - 1 do
    pops.(o + d) <- pops.(o + d) + pops.(o + d - 1)
  done;
  row

(* BFS scratch for a level-bitset row: the int row only lives in
   [t.dist] until it is packed. *)
let scratch_row t =
  Array.fill t.dist 0 t.n (t.n * t.n);
  t.dist

(* An upper bound on the diameters of the components of G∖player that
   the base row just built in [dist] misses ([reached] vertices in
   [t.queue], which stay untouched): twice the eccentricity of one
   vertex per component, by a layered BFS through [comp_seen] in the
   queue's free tail. *)
let unreached_depth t dist reached =
  let n = t.n in
  let inf = n * n in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let comp_seen = t.comp_seen and queue = t.queue in
  let offs = t.static_offs and adj = t.static_targets in
  let bound = ref 0 in
  for s = 0 to n - 1 do
    if s <> t.player && dist.(s) = inf && comp_seen.(s) <> stamp then begin
      comp_seen.(s) <- stamp;
      queue.(reached) <- s;
      let head = ref reached and tail = ref (reached + 1) in
      let ecc = ref 0 and level_end = ref (reached + 1) in
      while !head < !tail do
        if !head = !level_end then begin
          incr ecc;
          level_end := !tail
        end;
        let u = queue.(!head) in
        incr head;
        for k = offs.(u) to offs.(u + 1) - 1 do
          let v = adj.(k) in
          if v <> t.player && comp_seen.(v) <> stamp then begin
            comp_seen.(v) <- stamp;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      if 2 * !ecc > !bound then bound := 2 * !ecc
    end
  done;
  !bound

(* Seeded by the player's static neighbourhood (duplicates merged — a
   brace contributes the same endpoint twice).  Its depth fixes the
   context's representation for every later row. *)
let build_base_row t rs =
  Bbng_obs.Fault.hit "deveval.row_build";
  Bbng_obs.Counter.bump c_rows_built;
  let n = t.n in
  let inf = n * n in
  let dist = scratch_row t in
  let tail = ref 0 in
  for k = t.static_offs.(t.player) to t.static_offs.(t.player + 1) - 1 do
    let s = t.static_targets.(k) in
    if dist.(s) = inf then begin
      dist.(s) <- 0;
      t.queue.(!tail) <- s;
      incr tail
    end
  done;
  let reached = bfs_row t dist !tail in
  let depth = if reached = 0 then 0 else dist.(t.queue.(reached - 1)) in
  let words = (n + word_bits - 1) / word_bits in
  let bound =
    if reached = n - 1 then depth else max depth (unreached_depth t dist reached)
  in
  rs.words <- words;
  rs.base_depth <- depth;
  rs.levels <- prefer_levels ~n ~words ~depth:bound;
  if rs.levels then begin
    rs.stride <- bound + 1;
    if Array.length rs.pops < n * rs.stride then
      rs.pops <- Array.make (n * rs.stride) 0;
    pack_levels t rs reached ~limit:depth ~slot:t.player
  end
  else Array.sub dist 0 n

(* A target row.  As level bitsets it stops at the base row's depth
   when the base reaches the target: the target's component is then
   inside the base's reach, which the base's top level already holds,
   so deeper target levels add nothing to any union.  Otherwise its
   depth is the target's eccentricity in a component the base misses,
   within the depth bound [unreached_depth] gave. *)
let build_row t rs target =
  Bbng_obs.Fault.hit "deveval.row_build";
  Bbng_obs.Counter.bump c_rows_built;
  if rs.levels then begin
    let dist = scratch_row t in
    dist.(target) <- 0;
    t.queue.(0) <- target;
    let reached = bfs_row t dist 1 in
    let limit =
      match rs.base with
      | Some base when level_mem base rs.words base.(0) target -> rs.base_depth
      | _ -> max_int
    in
    pack_levels t rs reached ~limit ~slot:target
  end
  else begin
    let row = Array.make t.n (t.n * t.n) in
    row.(target) <- 0;
    t.queue.(0) <- target;
    ignore (bfs_row t row 1 : int);
    row
  end

let base_row t rs =
  match rs.base with
  | Some row -> row
  | None ->
      let row = build_base_row t rs in
      rs.base <- Some row;
      row

let miss_row t rs target =
  let row = build_row t rs target in
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

(* Int rows: the (b+1)-way min-combine, O(b·n) per candidate.  A full
   exhaustive scan runs it C(n-1, b) times, so the ubiquitous b <= 2
   cases are unrolled: no trows allocation and no inner k-loop.  Every
   row holds the sentinel at the player (the BFS never relaxes it), so
   the combine needs no per-vertex player test — the player falls out
   of the [m < inf] branch and is pre-counted in [reached].  The reach
   set is not marked here either: only the MAX disconnection walk
   needs the mark, and that rare path re-derives it from the cache-hot
   rows.  Rows are held by reference throughout: a cache eviction
   while gathering the next row cannot invalidate one already in
   hand. *)
let int_rows_cost t rs base targets =
  let inf = t.n * t.n in
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
  match t.version with
  | Cost.Sum -> !sum + ((n - !reached) * inf)
  | Cost.Max ->
      if !reached = n then !mx
      else begin
        (* disconnected under MAX: mark the reach set for the
           component walk.  Re-gathering the rows is a cache hit (they
           were just combined; a rebuild after an eviction is
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

(* First cell of level [d] of the level-bitset row [r]. *)
let[@inline] level_at r words d =
  let top = r.(0) in
  1 + ((if d < top then d else top) * words)

(* |P ∪ L| for the levels starting at cells [po] of [p] and [lo] of
   [l]: one OR and one popcount per word. *)
let[@inline] union_count p po l lo words =
  let c = ref 0 in
  for k = 0 to words - 1 do
    c := !c + popcount (p.(po + k) lor l.(lo + k))
  done;
  !c

(* Whether [rs.prefix] holds the union of the base and the rows of
   [targets.(0 .. len - 1)]. *)
let prefix_matches rs targets len =
  rs.prefix_len = len
  &&
  let key = rs.prefix_key and same = ref true and i = ref 0 in
  while !same && !i < len do
    same := key.(!i) = targets.(!i);
    incr i
  done;
  !same

(* Build the prefix row of [targets.(0 .. len - 1)]: the base OR'd
   with each target's row, level by level up to the depth bound, then
   its populations.  Rows are fetched one at a time, so an eviction
   under a small cache cap cannot pull a row out from under the OR.
   The key is only recorded once the buffer is complete, so a build
   cut short (an injected fault) leaves no prefix, never a torn one. *)
let build_prefix t rs base targets len =
  rs.prefix_len <- -1;
  let w = rs.words and stride = rs.stride in
  let pops_at = 1 + (stride * w) in
  if Array.length rs.prefix < pops_at + stride then
    rs.prefix <- Array.make (pops_at + stride) 0;
  let p = rs.prefix in
  for d = 0 to stride - 1 do
    Array.blit base (level_at base w d) p (1 + (d * w)) w
  done;
  let top = ref base.(0) in
  for i = 0 to len - 1 do
    let r = cached_row t rs targets.(i) in
    if r.(0) > !top then top := r.(0);
    for d = 0 to stride - 1 do
      let po = 1 + (d * w) and ro = level_at r w d in
      for k = 0 to w - 1 do
        p.(po + k) <- p.(po + k) lor r.(ro + k)
      done
    done
  done;
  p.(0) <- !top;
  for d = 0 to stride - 1 do
    let po = 1 + (d * w) in
    p.(pops_at + d) <- union_count p po p po w
  done;
  if Array.length rs.prefix_key < len then rs.prefix_key <- Array.make len 0;
  Array.blit targets 0 rs.prefix_key 0 len;
  rs.prefix_len <- len

(* Mark U^∞ = P^∞ ∪ L^∞ into [seen] for the MAX component walk. *)
let mark_level_reach t rs p l =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  t.seen.(t.player) <- stamp;
  let w = rs.words in
  let po = 1 + (p.(0) * w) and lo = 1 + (l.(0) * w) in
  for k = 0 to w - 1 do
    let u = p.(po + k) lor l.(lo + k) in
    for bit = 0 to word_bits - 1 do
      if (u lsr bit) land 1 = 1 then t.seen.((k * word_bits) + bit) <- stamp
    done
  done

(* Level bitsets: the candidate's distances are those of a multi-source
   BFS from its seeds (the targets and staticN(player)), so the levels
   U^0 ⊆ U^1 ⊆ ... of the union grow strictly until they stop, at the
   coverage level D, with R = |U^D| vertices reached.  Hence

     SUM = R + Σ_{d<D} (R − |U^d|) + (n−1−R)·n²
     MAX = D + 1 when R = n − 1

   and a disconnected MAX falls back to the component walk from U^∞.
   U^d = P^d ∪ L^d, the prefix row [p] and the last target's row [l]
   (populations at [lpops] in [rs.pops]).  Three exact tiers settle a
   candidate against [bound], each returning [bound] when the cost is
   provably at least that:
   1. populations: |U^d| <= |P^d| + |L^d|, so with T the depth bound
        SUM >= (n−1) + Σ_{d<=T} max(0, n−1−|P^d|−|L^d|)
        MAX >= 1 + the first d with |P^d| + |L^d| >= n−1 (n² if none);
   2. the exact reach R = |P^T ∪ L^T|: a disconnected candidate
      (R < n−1) has SUM >= R + (n−1−R)·n² and MAX >= n²;
   3. the level walk, stopping once its partial SUM, or D + 1 under
      MAX, reaches [bound]. *)
let level_price t rs p l lpops ~bound =
  let n = t.n and w = rs.words and stride = rs.stride in
  let full = n - 1 and inf = n * n in
  let pops = rs.pops and ppops = 1 + (stride * w) in
  match t.version with
  | Cost.Sum ->
      let lb = ref full in
      for d = 0 to stride - 1 do
        let gap = full - p.(ppops + d) - pops.(lpops + d) in
        if gap > 0 then lb := !lb + gap
      done;
      if !lb >= bound then bound
      else begin
        let r = union_count p (1 + (p.(0) * w)) l (1 + (l.(0) * w)) w in
        let acc = ref (r + ((full - r) * inf)) in
        let d = ref 0 and walking = ref (!acc < bound) in
        while !walking do
          let c = union_count p (1 + (!d * w)) l (level_at l w !d) w in
          if c = r then walking := false
          else begin
            acc := !acc + (r - c);
            incr d;
            walking := !acc < bound
          end
        done;
        if !acc < bound then !acc else bound
      end
  | Cost.Max ->
      let d0 = ref 0 in
      while !d0 < stride && p.(ppops + !d0) + pops.(lpops + !d0) < full do
        incr d0
      done;
      if (if !d0 < stride then !d0 + 1 else inf) >= bound then bound
      else begin
        let r = union_count p (1 + (p.(0) * w)) l (1 + (l.(0) * w)) w in
        if r < full then
          if inf >= bound then bound
          else begin
            mark_level_reach t rs p l;
            let kappa = 1 + unreached_components t in
            inf + ((kappa - 1) * inf)
          end
        else begin
          (* connected: D >= d0, and the walk ends at D *)
          let d = ref !d0 and result = ref (-1) in
          while !result < 0 do
            if !d + 1 >= bound then result := bound
            else if union_count p (1 + (!d * w)) l (level_at l w !d) w = full
            then result := !d + 1
            else incr d
          done;
          !result
        end
      end

(* The combine charges (b+1)·n work units like the int combine,
   whichever tier settles the candidate, so a work limit stops a scan
   at the same candidate under either representation.  A candidate
   without targets prices the base against itself. *)
let level_rows_cost t rs base targets ~bound =
  let b = Array.length targets in
  let len = if b = 0 then 0 else b - 1 in
  (* a reused prefix serves its targets' rows from the cache: count
     them as hits, as the lookups it saves would have been *)
  if prefix_matches rs targets len then rs.hits <- rs.hits + len
  else build_prefix t rs base targets len;
  let slot = if b = 0 then t.player else targets.(b - 1) in
  let l = if b = 0 then base else cached_row t rs slot in
  let result = level_price t rs rs.prefix l (slot * rs.stride) ~bound in
  Bbng_obs.Budgeted.spend t.budget ((b + 1) * t.n);
  result

(* Cache-hit accounting is batched into one atomic [Counter.add] per
   evaluation instead of one bump per target, through a tally in the
   row state rather than a local ref and closure, so an evaluation
   allocates nothing. *)
let rows_cost t rs targets ~bound =
  let base = base_row t rs in
  let result =
    if rs.levels then level_rows_cost t rs base targets ~bound
    else int_rows_cost t rs base targets
  in
  if rs.hits > 0 then begin
    Bbng_obs.Counter.add c_row_hits rs.hits;
    rs.hits <- 0
  end;
  result

let cost_below t targets ~bound =
  Bbng_obs.Budgeted.checkpoint t.budget;
  Bbng_obs.Counter.bump c_evals;
  validate_targets t targets;
  match t.rows_state with
  | None -> overlay_cost t targets
  | Some rs -> rows_cost t rs targets ~bound

let cost t targets = cost_below t targets ~bound:max_int
let current_cost t = cost t t.own
