let unreachable = -1

let c_runs = Bbng_obs.Counter.make "bfs.runs"
let c_popped = Bbng_obs.Counter.make "bfs.vertices_popped"
let h_popped = Bbng_obs.Metrics.histogram "bfs.popped_per_run"

(* batched: two atomic adds per traversal, none per vertex; the
   per-run distribution only when observability is on (one extra
   atomic load otherwise) *)
let observe popped =
  Bbng_obs.Counter.bump c_runs;
  Bbng_obs.Counter.add c_popped popped;
  if Bbng_obs.Span.enabled () then Bbng_obs.Metrics.observe h_popped popped

(* --- legacy engine: walks the per-vertex adjacency arrays ---

   Kept as the qcheck oracle for the CSR fast path below (and as the
   parent-recording walker, which is off the hot path).  The queue is a
   preallocated ring over at most n vertices, so each run allocates
   exactly two arrays.

   Budget accounting is per-traversal: one checkpoint before the work
   (an expired token stops a search between BFS runs, never mid-run —
   a single run is O(n + m) and bounded) and one spend of the popped
   count after, so work units line up with vertex visits across every
   evaluator. *)
let legacy_core ?(budget = Bbng_obs.Budgeted.unlimited) g sources ~record_parent =
  Bbng_obs.Budgeted.checkpoint budget;
  let n = Undirected.n g in
  let dist = Array.make n unreachable in
  let parent = if record_parent then Array.make n (-1) else [||] in
  let queue = Array.make (max n 1) 0 in
  let head = ref 0 and tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) = unreachable then begin
        dist.(s) <- 0;
        if record_parent then parent.(s) <- s;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    Array.iter
      (fun v ->
        if dist.(v) = unreachable then begin
          dist.(v) <- du + 1;
          if record_parent then parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end)
      (Undirected.neighbors g u)
  done;
  Bbng_obs.Budgeted.spend budget !head;
  observe !head;
  (dist, parent)

let legacy_distances ?budget g src =
  fst (legacy_core ?budget g [ src ] ~record_parent:false)

(* --- CSR fast path ---

   The snapshot lookup is a per-domain one-slot memo (see Csr), and the
   frontier queue is per-domain scratch grown to the largest n seen, so
   a steady-state [distances] call allocates exactly its result row. *)

let queue_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let queue_for n =
  let cell = Domain.DLS.get queue_key in
  if Array.length !cell < n then cell := Array.make (max n 16) 0;
  !cell

let distances ?budget g src =
  let csr = Csr.snapshot g in
  let n = Undirected.n g in
  let dist = Array.make (max n 1) unreachable in
  let popped = Csr.bfs_into ?budget csr ~src ~dist ~queue:(queue_for n) in
  observe popped;
  dist

let distances_from_set ?budget g sources =
  if sources = [] then invalid_arg "Bfs.distances_from_set: empty source set";
  let csr = Csr.snapshot g in
  let n = Undirected.n g in
  let dist = Array.make (max n 1) unreachable in
  let popped = Csr.bfs_set_into ?budget csr ~sources ~dist ~queue:(queue_for n) in
  observe popped;
  dist

let distance ?budget g u v =
  (* validate before the u = v fast path: [distance g 99 99] on a
     3-vertex graph must raise like every other entry point, not
     silently answer [Some 0] *)
  let n = Undirected.n g in
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Bfs.distance: vertex %d out of range [0,%d)" u n);
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Bfs.distance: vertex %d out of range [0,%d)" v n);
  if u = v then Some 0
  else
    let dist = distances ?budget g u in
    if dist.(v) = unreachable then None else Some dist.(v)

let parents ?budget g src = snd (legacy_core ?budget g [ src ] ~record_parent:true)

let shortest_path ?budget g u v =
  let parent = parents ?budget g u in
  if parent.(v) = -1 then None
  else begin
    let rec walk acc x = if x = u then u :: acc else walk (x :: acc) parent.(x) in
    Some (walk [] v)
  end

let level_sets ?budget g src =
  let dist = distances ?budget g src in
  let ecc = Array.fold_left max 0 dist in
  let levels = Array.make (ecc + 1) [] in
  for v = Undirected.n g - 1 downto 0 do
    if dist.(v) <> unreachable then levels.(dist.(v)) <- v :: levels.(dist.(v))
  done;
  levels
