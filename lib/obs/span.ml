type stat = {
  count : int;
  total_ns : int;
  max_ns : int;
  minor_words : float;
  major_words : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
}

type open_span = {
  t0 : float;
  minor0 : int;
  major0 : int;
  ptok : Profile.token;
  mutable closed : bool;
}

type handle = Disabled | Open of open_span

(* one flag and one table, both Profile's: a close is booked once, at
   its call path, and the per-name stats are a rollup of that table *)
let enabled = Profile.enabled
let set_enabled = Profile.set_enabled

(* The calling domain's own allocation counters.  Gc.quick_stat would
   walk every domain (about a microsecond) and charge other domains'
   major allocation to this span; Gc.counters reads this domain only,
   and Gc.minor_words is the precise unboxed minor counter. *)
let minor_words () = int_of_float (Gc.minor_words ())

let major_words () =
  let _, _, major = Gc.counters () in
  int_of_float major

(* span entry doubles as a fault probe point ("span.<name>"): one
   atomic load when nothing is armed *)
let enter name =
  if Fault.armed () then Fault.hit ("span." ^ name);
  if not (enabled ()) then Disabled
  else
    (* before the minor read: Gc.counters' own result is then not
       charged to this span *)
    let major0 = major_words () in
    Open
      {
        t0 = Unix.gettimeofday ();
        minor0 = minor_words ();
        major0;
        ptok = Profile.enter name;
        closed = false;
      }

(* a close emits nothing: it books into Profile's table, and Sink
   drains that table as span.rollup events at its milestones *)
let exit = function
  | Disabled -> ()
  | Open span ->
      if not span.closed then begin
        span.closed <- true;
        let minor = minor_words () - span.minor0 in
        let major = major_words () - span.major0 in
        let ns = int_of_float ((Unix.gettimeofday () -. span.t0) *. 1e9) in
        Profile.close span.ptok ~wall_ns:(max 0 ns) ~minor_words:minor
          ~major_words:major
      end

let with_ name f =
  if not (enabled ()) then begin
    if Fault.armed () then Fault.hit ("span." ^ name);
    f ()
  end
  else begin
    let h = enter name in
    match f () with
    | v ->
        exit h;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        exit h;
        Printexc.raise_with_backtrace e bt
  end

let snapshot () =
  List.map
    (fun (name, (c : Profile.closes)) ->
      let q = Histogram.quantile c.durations in
      ( name,
        {
          count = c.closes;
          total_ns = c.wall_ns;
          max_ns = c.max_ns;
          minor_words = c.minor_words;
          major_words = c.major_words;
          p50_ns = q 0.5;
          p90_ns = q 0.9;
          p99_ns = q 0.99;
        } ))
    (Profile.closes_by_name ())

let reset_all = Profile.reset_all
