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
  name : string;
  t0 : float;
  gc0 : Gcstats.snapshot;
  ptok : Profile.token;
  mutable closed : bool;
}

type handle = Disabled | Open of open_span

(* one flag and one table, both Profile's: a close is booked once, at
   its call path, and the per-name stats are a rollup of that table *)
let enabled = Profile.enabled
let set_enabled = Profile.set_enabled

(* span entry doubles as a fault probe point ("span.<name>"): one
   atomic load when nothing is armed *)
let enter name =
  if Fault.armed () then Fault.hit ("span." ^ name);
  if not (enabled ()) then Disabled
  else
    Open
      {
        name;
        t0 = Unix.gettimeofday ();
        gc0 = Gcstats.capture ();
        ptok = Profile.enter name;
        closed = false;
      }

let exit = function
  | Disabled -> ()
  | Open span ->
      if not span.closed then begin
        span.closed <- true;
        let ns = int_of_float ((Unix.gettimeofday () -. span.t0) *. 1e9) in
        let ns = max 0 ns in
        let d = Gcstats.since span.gc0 in
        Profile.close span.ptok ~wall_ns:ns ~minor_words:d.Gcstats.minor_words
          ~major_words:d.Gcstats.major_words;
        (* a sinked run also sees each span close as an event, which is
           what Trace_export turns into Chrome complete slices.  t0_us
           is the span's exact start on the shared event clock (ts_us
           lags the close by the emit path, so ts - dur cannot recover
           it); dom and minor_w let `bbng_cli flame` re-nest per-domain
           stacks and attribute allocation offline. *)
        if Sink.active () then
          Sink.emit "span"
            [
              ("name", Json.Str span.name);
              ("dur_us", Json.Float (float_of_int ns /. 1e3));
              ("t0_us", Json.Float (Sink.to_us span.t0));
              ("dom", Json.Int (Domain.self () :> int));
              ("minor_w", Json.Float d.Gcstats.minor_words);
            ]
      end

let with_ name f =
  if not (enabled ()) then begin
    if Fault.armed () then Fault.hit ("span." ^ name);
    f ()
  end
  else begin
    let h = enter name in
    Fun.protect ~finally:(fun () -> exit h) f
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
