(* Clocks, resource readings and order statistics shared by the timed
   and the traced runs.  Everything here reads the process from the
   outside: no bbng code is touched. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9
let seconds_since t0 = seconds_of_ns (now_ns () - t0)

(* user + sys over every domain of the process *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_bytes path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* "Key:   value ..." lines of a /proc file *)
let proc_field path key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (read_lines path)

(* Peak resident set since the last [reset_peak_rss].  The CSR
   snapshots are Bigarrays outside the OCaml heap, so heap words alone
   would miss them; VmHWM sees every page. *)
let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> ( try float_of_string kb /. 1024. with Failure _ -> nan)
      | [] -> nan)
  | None -> nan

(* Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >=
   4.0), so each repetition gets its own peak.  Where that is refused
   the reading stays the process-lifetime peak. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc -> (
      try
        output_string oc "5";
        close_out oc
      with Sys_error _ -> close_out_noerr oc)
  | exception Sys_error _ -> ()

(* --- order statistics --- *)

let sorted xs = List.sort Float.compare xs

(* linear interpolation between closest ranks, as numpy's default *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let maximum xs = List.fold_left Float.max neg_infinity xs
