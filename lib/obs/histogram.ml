type t = {
  buckets : int Atomic.t array; (* bucket 0: value 0; bucket i: [2^(i-1), 2^i) *)
  count : int Atomic.t;
  total : int Atomic.t;
  max_v : int Atomic.t;
}

let n_buckets = 64

let create () =
  {
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    total = Atomic.make 0;
    max_v = Atomic.make 0;
  }

let bucket_of v =
  (* number of significant bits of v, i.e. v \in [2^(i-1), 2^i) lands in
     bucket i and 0 lands in bucket 0 *)
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  bits 0 v

let bucket_bounds i = if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let bump_max t v =
  let rec go () =
    let m = Atomic.get t.max_v in
    if v > m && not (Atomic.compare_and_set t.max_v m v) then go ()
  in
  go ()

let record t v =
  let v = if v < 0 then 0 else v in
  Atomic.incr t.buckets.(bucket_of v);
  Atomic.incr t.count;
  ignore (Atomic.fetch_and_add t.total v);
  bump_max t v

let count t = Atomic.get t.count
let total t = Atomic.get t.total
let max_value t = Atomic.get t.max_v

let bucket_counts t = Array.init n_buckets (fun i -> Atomic.get t.buckets.(i))

let of_buckets counts ~total ~max_value =
  let t = create () in
  List.iter
    (fun (i, c) ->
      if i >= 0 && i < n_buckets then begin
        ignore (Atomic.fetch_and_add t.buckets.(i) c);
        ignore (Atomic.fetch_and_add t.count c)
      end)
    counts;
  Atomic.set t.total total;
  Atomic.set t.max_v max_value;
  t

let merge ts =
  let m = create () in
  List.iter
    (fun t ->
      Array.iteri
        (fun i b -> ignore (Atomic.fetch_and_add m.buckets.(i) (Atomic.get b)))
        t.buckets;
      ignore (Atomic.fetch_and_add m.count (count t));
      ignore (Atomic.fetch_and_add m.total (total t));
      bump_max m (max_value t))
    ts;
  m

let quantile t q =
  let counts = bucket_counts t in
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    (* fractional rank into the sorted sequence of recorded values *)
    let rank = q *. float_of_int (n - 1) in
    let maxv = max_value t in
    let top = ref 0 in
    Array.iteri (fun i c -> if c > 0 then top := i) counts;
    let result = ref (float_of_int maxv) in
    let cum = ref 0. in
    (try
       Array.iteri
         (fun i c ->
           if c > 0 then begin
             let cum' = !cum +. float_of_int c in
             if rank < cum' then begin
               (* ranks [cum, cum + c - 1] map linearly onto [lo, hi],
                  with hi the exact max in the top occupied bucket; the
                  true rank-th value lies in the same bucket, so the
                  estimate is always within a factor of two of it.  A
                  lone sample is the bucket's last rank: in the top
                  bucket that is exactly max, elsewhere the floor. *)
               let lo, hi = bucket_bounds i in
               let hi = min hi maxv in
               let frac =
                 if c = 1 then if i = !top then 1. else 0.
                 else Float.min 1. ((rank -. !cum) /. float_of_int (c - 1))
               in
               result := float_of_int lo +. (frac *. float_of_int (hi - lo));
               raise Stdlib.Exit
             end;
             cum := cum'
           end)
         counts
     with Stdlib.Exit -> ());
    !result
  end

let to_json t =
  let occupied = ref [] in
  for i = n_buckets - 1 downto 0 do
    let c = Atomic.get t.buckets.(i) in
    if c > 0 then begin
      let lo, hi = bucket_bounds i in
      occupied :=
        Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int c) ]
        :: !occupied
    end
  done;
  Json.Obj
    [
      ("count", Json.Int (count t));
      ("total", Json.Int (total t));
      ("max", Json.Int (max_value t));
      ("p50", Json.Float (quantile t 0.5));
      ("p90", Json.Float (quantile t 0.9));
      ("p99", Json.Float (quantile t 0.99));
      ("buckets", Json.List !occupied);
    ]

let reset t =
  Array.iter (fun b -> Atomic.set b 0) t.buckets;
  Atomic.set t.count 0;
  Atomic.set t.total 0;
  Atomic.set t.max_v 0
