let recommended_domains () = max 1 (Domain.recommended_domain_count () - 1)

let c_spawned = Bbng_obs.Counter.make "parallel.domains_spawned"
let c_abandoned = Bbng_obs.Counter.make "parallel.chunks_abandoned"

(* per-domain sharded: every worker bumps its own cell, so recording
   from k domains costs no cache-line contention, and the snapshot sums
   shards — the same count whether the work ran on 1 domain or 8 *)
let m_tasks = Bbng_obs.Metrics.counter "parallel.tasks_executed"

(* The one scheduler: every worker claims indices one at a time from a
   shared atomic counter, so heterogeneous per-index costs (census
   shards, per-player scans) balance without any cost model.  Once
   [stop] is set — by [f], or by the first exception — no index is
   claimed any more; every domain is joined before the first exception
   is re-raised with its backtrace, so no worker outlives the call.
   With one domain the caller runs the same loop alone. *)
let run ?domains ?(stop = Atomic.make false) ~n f =
  let k = min n (match domains with Some d -> max 1 d | None -> recommended_domains ()) in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec worker () =
    if not (Atomic.get stop) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        Bbng_obs.Metrics.incr m_tasks;
        (match f i with
        | () -> ()
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            Atomic.set stop true);
        worker ()
      end
    end
  in
  (* spawned workers root their span paths under the caller's current
     call path, so a parallel fan-out's spans fold into the same
     flamegraph branch as the single-domain run's *)
  let base = Bbng_obs.Profile.current_path () in
  let spawned =
    List.init (max 0 (k - 1)) (fun _ ->
        Domain.spawn (fun () -> Bbng_obs.Profile.with_root base worker))
  in
  Bbng_obs.Counter.add c_spawned (List.length spawned);
  worker ();
  List.iter Domain.join spawned;
  Bbng_obs.Counter.add c_abandoned (n - min n (Atomic.get next));
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map ?domains ~n f =
  let results = Array.make n None in
  run ?domains ~n (fun i -> results.(i) <- Some (f i));
  Array.map
    (function Some r -> r | None -> assert false (* every index claimed *))
    results

let for_all ?domains ~n f =
  let stop = Atomic.make false in
  run ?domains ~stop ~n (fun i -> if not (f i) then Atomic.set stop true);
  not (Atomic.get stop)
