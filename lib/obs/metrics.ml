(* Live metrics registry: named counters / gauges / histograms that are
   snapshotable at any instant, with per-domain shards so Parallel
   workers record without bouncing one cache line between domains.

   A sharded counter is [shards] independent atomic cells; a writer
   touches only the cell indexed by its domain id, and a snapshot sums
   the cells.  The sum is exact once writers have quiesced (domains
   joined) and momentarily racy while they run — the standard
   Prometheus-style contract: every recorded increment lands in some
   scrape, no increment is ever lost. *)

let shards = 8 (* power of two: shard index is a mask of the domain id *)

let shard_index () = (Domain.self () :> int) land (shards - 1)

type counter = { c_name : string; c_help : string; c_cells : int Atomic.t array }

type gauge = {
  g_name : string;
  g_help : string;
  g_labels : (string * string) list;
  g_cell : float Atomic.t;
}

type histogram = { h_name : string; h_help : string; h_shards : Histogram.t array }

type registry = {
  mutable counters : counter list;
  mutable gauges : gauge list;
  mutable histograms : histogram list;
}

let registry = { counters = []; gauges = []; histograms = [] }
let registry_mutex = Mutex.create ()

(* make-functions are find-or-create by name (and, for gauges, by label
   set), like Counter.make — so library modules can declare their
   metrics at top level without coordinating *)

let counter ?(help = "") name =
  Mutex.protect registry_mutex (fun () ->
      match List.find_opt (fun c -> c.c_name = name) registry.counters with
      | Some c -> c
      | None ->
          let c =
            {
              c_name = name;
              c_help = help;
              c_cells = Array.init shards (fun _ -> Atomic.make 0);
            }
          in
          registry.counters <- c :: registry.counters;
          c)

let incr c = ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) 1)
let add c k = ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) k)

let counter_value c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.c_cells

let counter_shard_values c = Array.map Atomic.get c.c_cells

let gauge ?(help = "") ?(labels = []) name =
  Mutex.protect registry_mutex (fun () ->
      match
        List.find_opt
          (fun g -> g.g_name = name && g.g_labels = labels)
          registry.gauges
      with
      | Some g -> g
      | None ->
          let g =
            { g_name = name; g_help = help; g_labels = labels;
              g_cell = Atomic.make 0. }
          in
          registry.gauges <- g :: registry.gauges;
          g)

let set g v = Atomic.set g.g_cell v
let set_int g v = Atomic.set g.g_cell (float_of_int v)
let gauge_value g = Atomic.get g.g_cell

let histogram ?(help = "") name =
  Mutex.protect registry_mutex (fun () ->
      match List.find_opt (fun h -> h.h_name = name) registry.histograms with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_help = help;
              h_shards = Array.init shards (fun _ -> Histogram.create ());
            }
          in
          registry.histograms <- h :: registry.histograms;
          h)

let observe h v = Histogram.record h.h_shards.(shard_index ()) v

(* --- aggregated snapshots --- *)

let histogram_snapshot h = Histogram.merge (Array.to_list h.h_shards)

type snapshot = {
  counters : (string * string * int) list;
  gauges : (string * string * (string * string) list * float) list;
  histograms : (string * string * Histogram.t) list;
}

let snapshot () =
  let counters, gauges, histograms =
    Mutex.protect registry_mutex (fun () ->
        (registry.counters, registry.gauges, registry.histograms))
  in
  {
    counters =
      List.sort compare
        (List.map (fun c -> (c.c_name, c.c_help, counter_value c)) counters);
    gauges =
      List.sort compare
        (List.map (fun g -> (g.g_name, g.g_help, g.g_labels, gauge_value g))
           gauges);
    histograms =
      List.sort
        (fun (a, _, _) (b, _, _) -> compare a b)
        (List.map (fun h -> (h.h_name, h.h_help, histogram_snapshot h))
           histograms);
  }

let to_json () =
  let s = snapshot () in
  Json.Obj
    (List.map (fun (name, _, v) -> (name, Json.Int v)) s.counters
    @ List.map
        (fun (name, _, labels, v) ->
          let name =
            match labels with
            | [] -> name
            | l ->
                name ^ "{"
                ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
                ^ "}"
          in
          (name, Json.Float v))
        s.gauges)

let reset_for_tests () =
  Mutex.protect registry_mutex (fun () ->
      List.iter
        (fun c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells)
        registry.counters;
      List.iter (fun g -> Atomic.set g.g_cell 0.) registry.gauges;
      List.iter
        (fun h -> Array.iter Histogram.reset h.h_shards)
        registry.histograms)
