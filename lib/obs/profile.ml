(* Call-path profiling on top of Span: each domain keeps its stack of
   open spans, and closing a span attributes SELF time (wall minus the
   wall of its direct children) and SELF allocation (minor words minus
   the children's minor words) to the full call path "a;b;c".

   Attribution telescopes exactly: a parent accumulates each child's
   recorded integer wall/minor into [child_ns]/[child_minor], so the
   sum of self values over a well-nested subtree equals the root's
   recorded wall to the nanosecond.  That is what lets tests pin
   "folded per-name totals == flat Span totals" as an equality, not an
   approximation.

   The path table is the one span table: each cell also keeps the
   close's inclusive wall (with its max), minor and major words, and a
   latency histogram, and Span's per-name stats are a rollup of it.
   Each cell also remembers what it last reported, so Sink can drain
   the difference as span.rollup events at its milestones.
   It is sharded per domain (same Domain.self pattern as Metrics) so
   Parallel workers record without contending; the open-span stacks
   live in domain-local storage and never need a lock at all. *)

type stat = { count : int; self_ns : int; self_minor_words : float }

(* --- per-domain open-span stacks --- *)

type frame = {
  f_path : string;
  f_dom : int;
  mutable child_ns : int;
  mutable child_minor : int;
  (* cleared when the frame leaves its stack — a later (out-of-order or
     cross-domain) close then only records, never touches a stack *)
  mutable on_stack : bool;
}

type token = frame

type dstate = {
  mutable stack : frame list;
  (* path prefix for frames opened at depth 0: Parallel workers set it
     to the spawning domain's current path, so a fan-out's spans stay
     attributed under the caller's call path *)
  mutable base : string;
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stack = []; base = "" })

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- sharded path table --- *)

(* What the last drain reported for a cell: the next drain reports the
   difference.  Replaced wholesale at each drain, never mutated. *)
type reported = {
  r_count : int;
  r_self_ns : int;
  r_self_minor : int;
  r_wall_ns : int;
  r_minor : int;
  r_major : int;
  r_buckets : int array;
}

let nothing_reported =
  {
    r_count = 0;
    r_self_ns = 0;
    r_self_minor = 0;
    r_wall_ns = 0;
    r_minor = 0;
    r_major = 0;
    r_buckets = [||];
  }

type cell = {
  mutable c_count : int;
  mutable c_self_ns : int;
  mutable c_self_minor : int;
  mutable c_wall_ns : int;
  (* the largest close since the last drain (c_hist keeps the
     all-time max) *)
  mutable c_win_max : int;
  mutable c_minor : int;
  mutable c_major : int;
  c_hist : Histogram.t;
  mutable c_reported : reported;
}

let shards = 8
let shard_index () = (Domain.self () :> int) land (shards - 1)

type shard = { tbl : (string, cell) Hashtbl.t; mu : Mutex.t }

let table = Array.init shards (fun _ -> { tbl = Hashtbl.create 32; mu = Mutex.create () })

(* the hot path: no allocation once the path's cell exists, and nothing
   between lock and unlock can raise *)
let record path ~self_ns ~self_minor ~wall_ns ~minor_words ~major_words =
  let sh = table.(shard_index ()) in
  Mutex.lock sh.mu;
  let c =
    match Hashtbl.find sh.tbl path with
    | c -> c
    | exception Not_found ->
        let c =
          {
            c_count = 0;
            c_self_ns = 0;
            c_self_minor = 0;
            c_wall_ns = 0;
            c_win_max = 0;
            c_minor = 0;
            c_major = 0;
            c_hist = Histogram.create ();
            c_reported = nothing_reported;
          }
        in
        Hashtbl.add sh.tbl path c;
        c
  in
  c.c_count <- c.c_count + 1;
  c.c_self_ns <- c.c_self_ns + self_ns;
  c.c_self_minor <- c.c_self_minor + self_minor;
  c.c_wall_ns <- c.c_wall_ns + wall_ns;
  if wall_ns > c.c_win_max then c.c_win_max <- wall_ns;
  c.c_minor <- c.c_minor + minor_words;
  c.c_major <- c.c_major + major_words;
  Histogram.record c.c_hist wall_ns;
  Mutex.unlock sh.mu

(* --- enter / close (driven by Span) --- *)

let enter name =
  let st = Domain.DLS.get dls in
  let parent = match st.stack with f :: _ -> f.f_path | [] -> st.base in
  let path = if parent = "" then name else parent ^ ";" ^ name in
  let f =
    {
      f_path = path;
      f_dom = (Domain.self () :> int);
      child_ns = 0;
      child_minor = 0;
      on_stack = true;
    }
  in
  st.stack <- f :: st.stack;
  f

let close f ~wall_ns ~minor_words ~major_words =
  record f.f_path ~self_ns:(wall_ns - f.child_ns)
    ~self_minor:(minor_words - f.child_minor)
    ~wall_ns ~minor_words ~major_words;
  if f.on_stack && f.f_dom = (Domain.self () :> int) then begin
    let st = Domain.DLS.get dls in
    if List.memq f st.stack then begin
      (* pop down to [f]; anything above it was opened later but is
         being closed out of order — detach those frames so their own
         close records to their (already fixed) path without touching
         the stack.  The stack itself stays consistent. *)
      let rec pop = function
        | g :: rest ->
            g.on_stack <- false;
            if g == f then rest else pop rest
        | [] -> []
      in
      st.stack <- pop st.stack;
      match st.stack with
      | p :: _ ->
          p.child_ns <- p.child_ns + wall_ns;
          p.child_minor <- p.child_minor + minor_words
      | [] -> ()
    end
    else f.on_stack <- false
  end

let current_path () =
  let st = Domain.DLS.get dls in
  match st.stack with f :: _ -> f.f_path | [] -> st.base

let stack_depth () = List.length (Domain.DLS.get dls).stack

let with_root base f =
  let st = Domain.DLS.get dls in
  let saved_stack = st.stack and saved_base = st.base in
  st.stack <- [];
  st.base <- base;
  Fun.protect
    ~finally:(fun () ->
      (* frames the scope leaked stay attributable but leave the stack *)
      List.iter (fun g -> g.on_stack <- false) st.stack;
      st.stack <- saved_stack;
      st.base <- saved_base)
    f

(* --- snapshots --- *)

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* every shard's cells grouped under [key path], as copies taken under
   each shard's lock (a copy shares its histogram, which reads
   atomically) *)
let grouped key =
  let acc : (string, cell list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.iter
            (fun path c ->
              let k = key path in
              let others = Option.value ~default:[] (Hashtbl.find_opt acc k) in
              Hashtbl.replace acc k ({ c with c_count = c.c_count } :: others))
            sh.tbl))
    table;
  sorted_bindings acc

let sum f cells = List.fold_left (fun a c -> a + f c) 0 cells

let snapshot () =
  List.map
    (fun (path, cells) ->
      ( path,
        {
          count = sum (fun c -> c.c_count) cells;
          self_ns = sum (fun c -> c.c_self_ns) cells;
          self_minor_words = float_of_int (sum (fun c -> c.c_self_minor) cells);
        } ))
    (grouped Fun.id)

type closes = {
  closes : int;
  wall_ns : int;
  max_ns : int;
  minor_words : float;
  major_words : float;
  durations : Histogram.t;
}

let last_segment path =
  match String.rindex_opt path ';' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let closes_by_name () =
  List.map
    (fun (name, cells) ->
      ( name,
        {
          closes = sum (fun c -> c.c_count) cells;
          wall_ns = sum (fun c -> c.c_wall_ns) cells;
          max_ns = List.fold_left (fun a c -> max a (Histogram.max_value c.c_hist)) 0 cells;
          minor_words = float_of_int (sum (fun c -> c.c_minor) cells);
          major_words = float_of_int (sum (fun c -> c.c_major) cells);
          durations = Histogram.merge (List.map (fun c -> c.c_hist) cells);
        } ))
    (grouped last_segment)

let reset_all () =
  Array.iter (fun sh -> Mutex.protect sh.mu (fun () -> Hashtbl.reset sh.tbl)) table

(* Accumulate (count, self_ns, self_minor) into a stat table. *)
let bump tbl key ~count ~self_ns ~self_minor =
  let s =
    Option.value (Hashtbl.find_opt tbl key)
      ~default:{ count = 0; self_ns = 0; self_minor_words = 0. }
  in
  Hashtbl.replace tbl key
    {
      count = s.count + count;
      self_ns = s.self_ns + self_ns;
      self_minor_words = s.self_minor_words +. self_minor;
    }

(* Per-name rollup of a path snapshot: a name's inclusive total is the
   sum of self values over every path it appears on, counted once per
   occurrence (so recursive spans — "a;b;a" — roll up exactly like
   closes_by_name, which books every close's inclusive wall).  Count is
   closes, i.e. paths that END in the name. *)
let name_totals snap =
  let tbl : (string, stat) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (path, (s : stat)) ->
      bump tbl (last_segment path) ~count:s.count ~self_ns:0 ~self_minor:0.;
      List.iter
        (fun name ->
          bump tbl name ~count:0 ~self_ns:s.self_ns
            ~self_minor:s.self_minor_words)
        (String.split_on_char ';' path))
    snap;
  sorted_bindings tbl

type flavor = Wall_ns | Minor_words

let folded_lines flavor snap =
  List.map
    (fun (path, (s : stat)) ->
      match flavor with
      | Wall_ns -> Printf.sprintf "%s %d" path s.self_ns
      | Minor_words -> Printf.sprintf "%s %.0f" path s.self_minor_words)
    snap

let alloc_path path =
  if Filename.check_suffix path ".folded" then
    Filename.chop_suffix path ".folded" ^ ".alloc.folded"
  else path ^ ".alloc"

(* [profile.export] is the fault probe the smoke matrix kills at: a
   SIGKILL here must leave no .folded at all (the writes below go
   through Atomic_io, so a kill mid-write leaves only a temp file) *)
let write_folded path =
  if Fault.armed () then Fault.hit "profile.export";
  let snap = snapshot () in
  let dump flavor path =
    Atomic_io.write_file path (fun oc ->
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          (folded_lines flavor snap))
  in
  dump Wall_ns path;
  dump Minor_words (alloc_path path)

(* --- span.rollup events: drained deltas, and the readers' fold --- *)

type window = {
  mutable w_count : int;
  mutable w_self_ns : int;
  mutable w_self_minor : int;
  mutable w_wall_ns : int;
  mutable w_max_ns : int;
  mutable w_minor : int;
  mutable w_major : int;
  w_buckets : int array;
}

let rollup_fields path w =
  let buckets = ref [] in
  for i = Array.length w.w_buckets - 1 downto 0 do
    if w.w_buckets.(i) > 0 then
      buckets := Json.List [ Json.Int i; Json.Int w.w_buckets.(i) ] :: !buckets
  done;
  [
    ("path", Json.Str path);
    ("count", Json.Int w.w_count);
    ("self_ns", Json.Int w.w_self_ns);
    ("self_minor_w", Json.Int w.w_self_minor);
    ("wall_ns", Json.Int w.w_wall_ns);
    ("max_ns", Json.Int w.w_max_ns);
    ("minor_w", Json.Int w.w_minor);
    ("major_w", Json.Int w.w_major);
    ("buckets", Json.List !buckets);
  ]

(* Every cell that booked a close since the last drain yields its
   deltas, merged by path across shards; the cell then remembers what
   it reported.  Counts, words and times are sums over the window and
   max_ns is the window's max, so any sequence of drains adds back up
   to the table. *)
let drain_rollups () =
  let acc : (string, window) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.iter
            (fun path c ->
              let r = c.c_reported in
              if c.c_count > r.r_count then begin
                let buckets = Histogram.bucket_counts c.c_hist in
                let w =
                  match Hashtbl.find_opt acc path with
                  | Some w -> w
                  | None ->
                      let w =
                        {
                          w_count = 0;
                          w_self_ns = 0;
                          w_self_minor = 0;
                          w_wall_ns = 0;
                          w_max_ns = 0;
                          w_minor = 0;
                          w_major = 0;
                          w_buckets = Array.make (Array.length buckets) 0;
                        }
                      in
                      Hashtbl.add acc path w;
                      w
                in
                w.w_count <- w.w_count + c.c_count - r.r_count;
                w.w_self_ns <- w.w_self_ns + c.c_self_ns - r.r_self_ns;
                w.w_self_minor <- w.w_self_minor + c.c_self_minor - r.r_self_minor;
                w.w_wall_ns <- w.w_wall_ns + c.c_wall_ns - r.r_wall_ns;
                w.w_max_ns <- max w.w_max_ns c.c_win_max;
                w.w_minor <- w.w_minor + c.c_minor - r.r_minor;
                w.w_major <- w.w_major + c.c_major - r.r_major;
                Array.iteri
                  (fun i b ->
                    let before =
                      if i < Array.length r.r_buckets then r.r_buckets.(i) else 0
                    in
                    w.w_buckets.(i) <- w.w_buckets.(i) + b - before)
                  buckets;
                c.c_reported <-
                  {
                    r_count = c.c_count;
                    r_self_ns = c.c_self_ns;
                    r_self_minor = c.c_self_minor;
                    r_wall_ns = c.c_wall_ns;
                    r_minor = c.c_minor;
                    r_major = c.c_major;
                    r_buckets = buckets;
                  };
                c.c_win_max <- 0
              end)
            sh.tbl))
    table;
  List.map (fun (path, w) -> rollup_fields path w) (sorted_bindings acc)

let read_rollup j =
  match (Json.str_field "event" j, Json.str_field "path" j) with
  | Some "span.rollup", Some path ->
      let int k = Option.value ~default:0 (Json.int_field k j) in
      let words k = float_of_int (int k) in
      let counts =
        match Json.member "buckets" j with
        | Some (Json.List l) ->
            List.filter_map
              (function
                | Json.List [ Json.Int i; Json.Int c ] -> Some (i, c) | _ -> None)
              l
        | _ -> []
      in
      Some
        ( path,
          { count = int "count"; self_ns = int "self_ns"; self_minor_words = words "self_minor_w" },
          {
            closes = int "count";
            wall_ns = int "wall_ns";
            max_ns = int "max_ns";
            minor_words = words "minor_w";
            major_words = words "major_w";
            durations =
              Histogram.of_buckets counts ~total:(int "wall_ns")
                ~max_value:(int "max_ns");
          } )
  | _ -> None

let of_events events =
  let acc : (string, stat) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun j ->
      match read_rollup j with
      | Some (path, s, _) ->
          bump acc path ~count:s.count ~self_ns:s.self_ns
            ~self_minor:s.self_minor_words
      | None -> ())
    events;
  sorted_bindings acc

(* top self-time paths, for Stats.print and report --summarize *)
let top ?(limit = 10) snap =
  let sorted =
    List.stable_sort
      (fun (_, a) (_, b) -> compare b.self_ns a.self_ns)
      snap
  in
  List.filteri (fun i _ -> i < limit) sorted
