(* The one clock of trips_obs: CLOCK_MONOTONIC, in seconds.  Spans,
   request timelines, window buckets, deadlines and the daemon's queue
   wait and uptime all read it.  Unlike the wall clock it never steps
   when the system time is adjusted. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
