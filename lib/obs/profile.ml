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
   It is sharded per domain (same Domain.self pattern as Metrics) so
   Parallel workers record without contending; the open-span stacks
   live in domain-local storage and never need a lock at all. *)

type stat = { count : int; self_ns : int; self_minor_words : float }

(* --- per-domain open-span stacks --- *)

type frame = {
  f_path : string;
  f_dom : int;
  mutable child_ns : int;
  mutable child_minor : float;
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

type cell = {
  mutable c_count : int;
  mutable c_self_ns : int;
  mutable c_self_minor : float;
  mutable c_wall_ns : int;
  mutable c_max_ns : int;
  mutable c_minor : float;
  mutable c_major : float;
  c_hist : Histogram.t;
}

let shards = 8
let shard_index () = (Domain.self () :> int) land (shards - 1)

type shard = { tbl : (string, cell) Hashtbl.t; mu : Mutex.t }

let table = Array.init shards (fun _ -> { tbl = Hashtbl.create 32; mu = Mutex.create () })

let record path ~self_ns ~self_minor ~wall_ns ~minor_words ~major_words =
  let sh = table.(shard_index ()) in
  Mutex.protect sh.mu (fun () ->
      let c =
        match Hashtbl.find_opt sh.tbl path with
        | Some c -> c
        | None ->
            let c =
              {
                c_count = 0;
                c_self_ns = 0;
                c_self_minor = 0.;
                c_wall_ns = 0;
                c_max_ns = 0;
                c_minor = 0.;
                c_major = 0.;
                c_hist = Histogram.create ();
              }
            in
            Hashtbl.add sh.tbl path c;
            c
      in
      c.c_count <- c.c_count + 1;
      c.c_self_ns <- c.c_self_ns + self_ns;
      c.c_self_minor <- c.c_self_minor +. self_minor;
      c.c_wall_ns <- c.c_wall_ns + wall_ns;
      if wall_ns > c.c_max_ns then c.c_max_ns <- wall_ns;
      c.c_minor <- c.c_minor +. minor_words;
      c.c_major <- c.c_major +. major_words;
      Histogram.record c.c_hist wall_ns)

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
      child_minor = 0.;
      on_stack = true;
    }
  in
  st.stack <- f :: st.stack;
  f

let close f ~wall_ns ~minor_words ~major_words =
  record f.f_path ~self_ns:(wall_ns - f.child_ns)
    ~self_minor:(minor_words -. f.child_minor)
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
          p.child_minor <- p.child_minor +. minor_words
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
let sumf f cells = List.fold_left (fun a c -> a +. f c) 0. cells

let snapshot () =
  List.map
    (fun (path, cells) ->
      ( path,
        {
          count = sum (fun c -> c.c_count) cells;
          self_ns = sum (fun c -> c.c_self_ns) cells;
          self_minor_words = sumf (fun c -> c.c_self_minor) cells;
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
          max_ns = List.fold_left (fun a c -> max a c.c_max_ns) 0 cells;
          minor_words = sumf (fun c -> c.c_minor) cells;
          major_words = sumf (fun c -> c.c_major) cells;
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

(* --- offline reconstruction from recorded span events --- *)

type node = {
  n_name : string;
  n_start : float;
  n_ns : int;
  n_minor : float;
  mutable n_children : node list;
}

(* Rebuild the span tree of one domain from its close events (already
   in close order: a parent's event always follows its children's).
   Classic folded-stack reconstruction: when a close arrives, every
   pending subtree that STARTED after it is one of its children. *)
let tree_of_closes closes =
  let pending = ref [] in
  let roots = ref [] in
  List.iter
    (fun (name, start, ns, minor) ->
      let node =
        { n_name = name; n_start = start; n_ns = ns; n_minor = minor; n_children = [] }
      in
      let rec claim = function
        | top :: rest when top.n_start >= start ->
            node.n_children <- top :: node.n_children;
            claim rest
        | rest -> rest
      in
      pending := node :: claim !pending)
    closes;
  (* anything still pending is a top-level span *)
  roots := List.rev !pending;
  !roots

let of_events events =
  let by_dom : (int, (string * float * int * float) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let dom_order = ref [] in
  List.iter
    (fun j ->
      match Json.member "event" j with
      | Some (Json.Str "span") -> (
          match (Json.member "name" j, Json.num_field "dur_us" j) with
          | Some (Json.Str name), Some dur_us ->
              let ts = Option.value ~default:0. (Json.num_field "ts_us" j) in
              (* recordings made by this library carry the span's own
                 start stamp; older ones fall back to close - duration *)
              let start =
                Option.value ~default:(ts -. dur_us) (Json.num_field "t0_us" j)
              in
              let ns = int_of_float (Float.round (dur_us *. 1e3)) in
              let minor = Option.value ~default:0. (Json.num_field "minor_w" j) in
              let dom = Option.value ~default:0 (Json.int_field "dom" j) in
              let bucket =
                match Hashtbl.find_opt by_dom dom with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add by_dom dom l;
                    dom_order := dom :: !dom_order;
                    l
              in
              bucket := (name, start, ns, minor) :: !bucket
          | _ -> ())
      | _ -> ())
    events;
  let acc : (string, stat) Hashtbl.t = Hashtbl.create 64 in
  let rec walk prefix node =
    let path = if prefix = "" then node.n_name else prefix ^ ";" ^ node.n_name in
    let child_ns = List.fold_left (fun a c -> a + c.n_ns) 0 node.n_children in
    let child_minor =
      List.fold_left (fun a c -> a +. c.n_minor) 0. node.n_children
    in
    bump acc path ~count:1 ~self_ns:(node.n_ns - child_ns)
      ~self_minor:(node.n_minor -. child_minor);
    List.iter (walk path) node.n_children
  in
  List.iter
    (fun dom ->
      let closes = List.rev !(Hashtbl.find by_dom dom) in
      List.iter (walk "") (tree_of_closes closes))
    (List.rev !dom_order);
  sorted_bindings acc

(* top self-time paths, for Stats.print and report --summarize *)
let top ?(limit = 10) snap =
  let sorted =
    List.stable_sort
      (fun (_, a) (_, b) -> compare b.self_ns a.self_ns)
      snap
  in
  List.filteri (fun i _ -> i < limit) sorted
