(* The traced run's recorder.  Spans are opened around calls into the
   bbng layers from the benchmark's own code (never inside lib/): each
   keeps its name, start, end and the span that caused it, all held in
   memory and written out once the run ends.

   Calls too fine-grained to keep one record each (hundreds of
   thousands per census) go to tallies instead: per name, a call count,
   total nanoseconds and minor words.  A tally's time is charged to the
   enclosing span as child time, so span self times stay exact. *)

module Json = Bbng_obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the causing span; -1 at the root *)
  t0 : int;
  mutable t1 : int;
  mutable child_ns : int;
}

type tally = { mutable calls : int; mutable ns : int; mutable words : float }

let closed : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let origin = ref 0
let tallies : (string, tally) Hashtbl.t = Hashtbl.create 16

let reset () =
  closed := [];
  stack := [];
  next_id := 0;
  origin := Measure.now_ns ();
  Hashtbl.reset tallies

let charge_parent ns =
  match !stack with p :: _ -> p.child_ns <- p.child_ns + ns | [] -> ()

let span name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_id; name; parent; t0 = Measure.now_ns (); t1 = 0; child_ns = 0 } in
  incr next_id;
  stack := s :: !stack;
  Fun.protect f ~finally:(fun () ->
      s.t1 <- Measure.now_ns ();
      (stack := match !stack with _ :: rest -> rest | [] -> []);
      charge_parent (s.t1 - s.t0);
      closed := s :: !closed)

let tally name =
  match Hashtbl.find_opt tallies name with
  | Some t -> t
  | None ->
      let t = { calls = 0; ns = 0; words = 0. } in
      Hashtbl.add tallies name t;
      t

(* [count t f]: one fine-grained call, timed into tally [t] *)
let count t f =
  let w0 = Gc.minor_words () in
  let t0 = Measure.now_ns () in
  let r = f () in
  let dt = Measure.now_ns () - t0 in
  t.words <- t.words +. (Gc.minor_words () -. w0);
  t.ns <- t.ns + dt;
  t.calls <- t.calls + 1;
  charge_parent dt;
  r

(* a tally entry measured by the caller, e.g. a remainder *)
let add name ns =
  let t = tally name in
  t.ns <- t.ns + ns;
  t.calls <- t.calls + 1;
  charge_parent ns

let tally_s name = Measure.seconds_of_ns (tally name).ns
let tally_words name = (tally name).words

let dur s = Measure.seconds_of_ns (s.t1 - s.t0)
let named name = List.filter (fun s -> s.name = name) !closed
let durations name = List.map dur (named name)
let total_s name = List.fold_left (fun acc s -> acc +. dur s) 0. (named name)

(* Wall of the (single) span [name] and the share of it that its direct
   children cover: what the layer spans fail to cover is the residual
   an uninstrumented layer leaves. *)
let root_and_coverage name =
  match named name with
  | [] -> (nan, nan)
  | root :: _ ->
      let wall = root.t1 - root.t0 in
      ( Measure.seconds_of_ns wall,
        if wall = 0 then nan else float_of_int root.child_ns /. float_of_int wall )

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let line j =
        output_string oc (Json.to_string j);
        output_char oc '\n'
      in
      let us ns = Json.Float (float_of_int ns /. 1e3) in
      List.iter
        (fun s ->
          line
            (Json.Obj
               [
                 ("span", Json.Str s.name);
                 ("id", Json.Int s.id);
                 ("parent", Json.Int s.parent);
                 ("start_us", us (s.t0 - !origin));
                 ("end_us", us (s.t1 - !origin));
                 ("self_us", us (s.t1 - s.t0 - s.child_ns));
               ]))
        (List.sort (fun a b -> compare a.id b.id) !closed);
      Hashtbl.iter
        (fun name t ->
          line
            (Json.Obj
               [
                 ("tally", Json.Str name);
                 ("calls", Json.Int t.calls);
                 ("total_us", us t.ns);
                 ("minor_words", Json.Float t.words);
               ]))
        tallies)
