(* Clock, child processes and /proc readings.

   Every duration the benchmark reports comes from the monotonic clock;
   CLOCK_MONOTONIC is system-wide, so a parent and its children share
   it. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* ---- child processes ----------------------------------------------------- *)

type child = { pid : int; out : in_channel }

(* Spawn [prog args] with stdout piped back (stdin from /dev/null, stderr
   inherited unless [stderr] names a file). *)
let spawn ?env ?stderr prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    match stderr with
    | None -> Unix.stderr
    | Some path ->
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o644
  in
  let argv = Array.of_list (prog :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out_w;
        Unix.close null;
        if stderr <> None then Unix.close err)
      (fun () ->
        match env with
        | None -> Unix.create_process prog argv null out_w err
        | Some env -> Unix.create_process_env prog argv env null out_w err)
  in
  { pid; out = Unix.in_channel_of_descr out_r }

let read_line c = try Some (input_line c.out) with End_of_file -> None

(* Wait for the child, closing its pipe; true on a clean exit. *)
let wait c =
  close_in_noerr c.out;
  let rec go () =
    match Unix.waitpid [] c.pid with
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait c)

(* ---- /proc --------------------------------------------------------------- *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let b = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel b ic 1
           done
         with End_of_file -> ());
        Some (Buffer.contents b))
  with Sys_error _ -> None

let status_field pid field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some text ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = field ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)

(* Peak resident set (VmHWM) in MB; [pid] is a number or "self". *)
let peak_rss_mb pid =
  match status_field pid "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> 0.0)
    | [] -> 0.0)
  | None -> 0.0

(* User + system CPU seconds of a live process.  /proc/<pid>/stat counts
   in USER_HZ ticks, which Linux fixes at 100. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some text -> (
    (* fields after the parenthesised command name, which may hold spaces *)
    let rest =
      let i = String.rindex text ')' in
      String.sub text (i + 2) (String.length text - i - 2)
    in
    match String.split_on_char ' ' rest with
    | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags
      :: _minflt :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      (float_of_string utime +. float_of_string stime) /. 100.0
    | _ -> 0.0)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | a :: b :: c :: _ -> (
      try [ float_of_string a; float_of_string b; float_of_string c ]
      with Failure _ -> [])
    | _ -> [])
  | None -> []

(* CPUs this process may run on (what `nproc` prints), from the affinity
   list in /proc/self/status, e.g. "0-1" or "0,2-3". *)
let nproc () =
  match status_field "self" "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a ] when a <> "" -> acc + 1
        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
        | _ -> acc)
      0
      (String.split_on_char ',' list)
    |> max 1
